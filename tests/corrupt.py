"""Hypothesis strategy for parser property tests: damaged copies of a valid file."""

from hypothesis import strategies as st


def corrupted(base, tokens):
    """Arbitrary bytes, or `base` with one span replaced by random bytes or a token.

    `tokens` are byte strings meaningful to the parser under test, so that
    damaged files reach its later branches rather than failing on line one.
    """
    n = len(base)
    splice = st.tuples(
        st.integers(0, n),
        st.integers(0, n),
        st.one_of(st.binary(max_size=8), st.sampled_from(tokens)),
    ).map(lambda t: base[: min(t[0], t[1])] + t[2] + base[max(t[0], t[1]) :])
    return st.one_of(st.binary(max_size=64), splice)
