"""The shortest round-trip text of float64 values, computed in numpy.

`rows` returns each row of a 2-D float64 block as its values' `repr`s
joined by commas, the text of ``",".join(map(repr, row))``, but computes it
over chunks of `_CHUNK` values with whole-array integer arithmetic instead
of one Python call per value.

The digits are the common case of Ryū's d2s (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018). A normal double is m * 2^(e2 + 2)
with m its 53-bit significand and e2 < 0 here; its interval of values that
round to it is bounded, in units of 2^e2, by mv - 1 - mmShift and mv + 2
around mv = 4m (mmShift is 0 only at a power of two, whose lower neighbour
is half as far). For the value's exponent Ryū picks q and a 125-bit entry M
(5^i cut to 125 bits, i = -e2 - q) such that (x * M) >> j is x * 2^e2 /
10^(q + e2) rounded down. Here M is stored shifted left by 121 - j, so
every exponent cuts at bit 121, and one exact product P = mv * M, held in
30-bit limbs in int64, gives all three:

    vr = P >> 121,  vp = (P + 2M) >> 121,  vm = (P - (1 + mmShift) M) >> 121.

The digits removed from vr are the most that leave vp and vm apart
(vp // 10^r > vm // 10^r); the output is vr // 10^r, plus one when the last
removed digit is 5 or more or when it equals vm // 10^r (the lower bound
itself is excluded). vp - vm lies in [30, 400), so r is 1 or 2 unless a
multiple of 10^(r+1) lies between the bounds, whose decimal trailing zeros
then add to r.

The text follows CPython's `repr` ('r' format): with decpt the position of
the decimal point after the first digit's place, the exponent form
d[.ddd]e±XX (two exponent digits at least) when decpt <= -4 or decpt > 16,
else the fixed form, with ".0" after an integral value, and a leading "-"
on a negative value. Each value's text is gathered into a fixed slot of
`_SLOT` bytes by one template per (sign, digit count, form), the slots'
padding is deleted and the chunk is decoded and split into rows.

Values outside that common case go through `repr` itself: ±0, subnormals,
inf and nan, |x| >= 2^50 (Ryū's e2 >= 0 branch and its q <= 1 cases) and
values whose mv is a multiple of 2^q (Ryū's trailing-zero path, which holds
every exact tie, every integral value and short binary fractions such as
0.5). So every value's text is its repr. A chunk more than half of such
values goes through `repr` alone, which then costs less than the kernel.
"""

import numpy as np

# Values per chunk that `rows` formats at once (whole rows, at least one).
_CHUNK = 4096
# Bytes per value in the laid-out chunk: up to 24 of text, then the separator.
_SLOT = 25
# The byte that pads a slot; `repr` never writes it.
_PAD = ord(" ")

_LIMB = 30
_MASK = (1 << _LIMB) - 1
# Every exponent's product is cut here (Ryū's shift j lies in 118..121).
_CUT = 121
_POW5_BITS = 125
# Biased exponents of the common case: normal, and e2 = exp - 1077 <= -5.
_EXP_MIN, _EXP_MAX = 1, 1072
_SIZE = _EXP_MAX + 1
# P mod 2^121
_FRACTION = (1 << _CUT) - 1


def _log10_pow5(e):
    """floor(log10(5^e)), as Ryū computes it for 0 <= e <= 2620."""
    return (e * 732923) >> 20


def _pow5_bits(e):
    """The bit length of 5^e (1 for e = 0), as Ryū computes it."""
    return ((e * 1217359) >> 19) + 1


def _exponent_tables():
    """Per biased exponent of the common case (the rest unused): M's five
    30-bit limbs; the decimal exponent e10 = q + e2 of vr's last digit; and
    the bounds' steps, each as (whole, high, low): the upper bound's step 2M
    as 2M >> 121 and the least P mod 2^121 that carries past bit 121 when
    2M is added, and the lower bound's step, 2M or (at a power of two, from
    column _SIZE on) M, as its whole part and the greatest P mod 2^121 that
    borrows when it is taken away, plus one. A threshold's high part is its
    bits 60 and up, its low part the rest. Also, for every biased exponent,
    the mask of mv's low min(q, 62) bits, whose being zero sends a value
    to `repr` (all of them outside the common case)."""
    limbs = np.zeros((5, _SIZE), dtype=np.int64)
    e10 = np.zeros(_SIZE, dtype=np.int64)
    up = np.zeros((3, _SIZE), dtype=np.int64)
    down = np.zeros((3, 2 * _SIZE), dtype=np.int64)
    low_bits = np.zeros(2048, dtype=np.int64)
    for exp in range(_EXP_MIN, _EXP_MAX + 1):
        ne2 = 1077 - exp
        q = _log10_pow5(ne2) - 1
        i = ne2 - q
        j = q - (_pow5_bits(i) - _POW5_BITS)
        pow5 = 5**i
        surplus = pow5.bit_length() - _POW5_BITS
        entry = pow5 >> surplus if surplus >= 0 else pow5 << -surplus
        entry <<= _CUT - j
        for k in range(5):
            limbs[k, exp] = (entry >> (_LIMB * k)) & _MASK
        e10[exp] = q - ne2
        low_bits[exp] = (1 << min(q, 62)) - 1
        up[:, exp] = _split(2 * entry >> _CUT, (1 << _CUT) - (2 * entry & _FRACTION))
        down[:, exp] = _split(2 * entry >> _CUT, 2 * entry & _FRACTION)
        down[:, _SIZE + exp] = _split(entry >> _CUT, entry & _FRACTION)
    return limbs, e10, up, down, low_bits


def _split(whole, threshold):
    """(whole, threshold's bits 60 and up, its bits below 60)."""
    return whole, threshold >> 60, threshold & ((1 << 60) - 1)


_M_LIMBS, _E10, _UP, _DOWN, _LOW_BITS = _exponent_tables()

_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)


def _digit_table():
    """0..9999 as four ASCII digits each, one uint32 (in memory order) per
    number, put together from the hundred pairs of digits."""
    n = np.arange(100)
    pairs = np.empty((100, 2), dtype=np.uint8)
    pairs[:, 0] = n // 10 + ord("0")
    pairs[:, 1] = n % 10 + ord("0")
    digits = np.empty((100, 100, 4), dtype=np.uint8)
    digits[:, :, :2] = pairs[:, None]
    digits[:, :, 2:] = pairs[None, :]
    return digits.view(np.uint32).ravel()


_DIGITS4 = _digit_table()

# A value's source row: its digits right-aligned in bytes 0..19, its
# exponent's magnitude as four digits in 20..23, then the literals below.
_ROW = 32
_LITERALS = b"-.0e+-" + bytes([_PAD]) * 2
_MINUS, _DOT, _ZERO, _E, _PLUS, _EMINUS, _PADDING = range(24, 31)
_WORDS = np.frombuffer(_LITERALS, dtype=np.uint32).copy()

# Forms: fixed for decpt = -3..16, then exponent form by (sign, three digits).
_FIXED_MIN, _FIXED_MAX = -3, 16
_FIXED_FORMS = _FIXED_MAX - _FIXED_MIN + 1
_FORMS = _FIXED_FORMS + 4


def _template(neg, n, form):
    """The source-row offsets of a value's text."""
    digits = list(range(20 - n, 20))
    out = [_MINUS] if neg else []
    if form < _FIXED_FORMS:
        decpt = form + _FIXED_MIN
        if decpt <= 0:
            out += [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < n:
            out += digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            out += digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
    else:
        negative_exp, three = divmod(form - _FIXED_FORMS, 2)
        out += digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        out += [_E, _EMINUS if negative_exp else _PLUS] + list(range(23 - three - 1, 24))
    return out


def _template_table():
    """`_template` of every key (neg * 17 + n - 1) * _FORMS + form, padded
    to `_SLOT` offsets, filled a row at a time."""
    table = np.full((2 * 17 * _FORMS, _SLOT), _PADDING, dtype=np.uint8)
    keys = ((neg, n, form) for neg in (0, 1) for n in range(1, 18) for form in range(_FORMS))
    for row, key in zip(table, keys):
        offsets = _template(*key)
        row[:len(offsets)] = offsets
    return table


_TEMPLATES = _template_table()


def rows(block, missing=None, layout=None):
    """Each row of the 2-D float `block` (at least one column) as its values'
    reprs joined by commas; a value where the boolean array `missing` (of
    block's shape) is set gives an empty field. `layout`, a `Layout` for at
    least block's rows at its width, lets one set of buffers serve many
    calls; without one, the call makes its own."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    n, width = block.shape
    step = max(1, _CHUNK // width)
    if layout is None:
        layout = Layout(n, width)
    out = []
    for lo in range(0, n, step):
        chunk = block[lo:lo + step]
        gone = None if missing is None else missing[lo:lo + step]
        slots = layout.slots(chunk.ravel())
        if slots is None:
            # mostly values that only repr formats (integral ones, say): one
            # repr call each costs less than the kernel and a repr call each
            cells = [list(map(repr, row)) for row in chunk.tolist()]
            if gone is not None:
                for i, j in zip(*np.nonzero(gone)):
                    cells[i][j] = ""
            out += map(",".join, cells)
            continue
        slots = slots.reshape(len(chunk), width, _SLOT)
        slots[:, :, -1] = ord(",")
        slots[:, -1, -1] = ord("\n")
        if gone is not None:
            slots[gone, :-1] = _PAD
        text = slots[slots != _PAD].tobytes().decode("ascii")
        out += text.split("\n")[:-1]
    return out


class Layout:
    """The buffers that lay out the values of one chunk of `rows` for a block
    of up to n rows of `width` values: each value's source row (see `_ROW`)
    as eight uint32 words, its template, the offsets of its slot's bytes in
    the source rows and the slots themselves. At 4096 values they take about
    1.2 MB, the (4096, 25) intp index 800 KB of it."""

    def __init__(self, n, width):
        size = min(n, max(1, _CHUNK // width)) * width
        self.source = np.empty((size, _ROW // 4), dtype=np.uint32)
        self.source[:, 6:] = _WORDS
        self.base = (np.arange(size) * _ROW)[:, None]
        self.template = np.empty((size, _SLOT), dtype=np.uint8)
        self.index = np.empty((size, _SLOT), dtype=np.intp)
        self.out = np.empty((size, _SLOT), dtype=np.uint8)

    def slots(self, values):
        """Each value's repr, left-aligned and padded in a row of `_SLOT`
        bytes; None when more than half the values go through `repr`."""
        n = len(values)
        bits = values.view(np.int64)
        exp = (bits >> 52) & 0x7FF
        mant = bits & ((1 << 52) - 1)
        mv = (mant | (1 << 52)) << 2
        # Ryū's trailing-zero path, mv a multiple of 2^q; every exponent
        # outside the common case has a zero mask too
        fallback = np.flatnonzero((mv & _LOW_BITS[exp]) == 0)
        if 2 * fallback.size > n:
            return None
        if fallback.size:
            # a common value (1.0000000000000002) in their place, whose
            # text is overwritten below
            exp[fallback] = 1023
            mant[fallback] = 1
            mv[fallback] = (1 << 54) + 4
        digits, count, decpt = _digits(exp, mant, mv)

        source = self.source[:n]
        high = digits // 10**8
        low = digits - high * 10**8
        top = high // 10**8
        high -= top * 10**8
        for word, group in enumerate((top, high // 10**4, high % 10**4, low // 10**4,
                                      low % 10**4, np.abs(decpt - 1))):
            source[:, word] = _DIGITS4[group]
        key = _FORMS * (17 * (bits < 0) + count - 1)
        key += np.where((decpt >= _FIXED_MIN) & (decpt <= _FIXED_MAX), decpt - _FIXED_MIN,
                        _FIXED_FORMS + 2 * (decpt <= 0) + (np.abs(decpt - 1) >= 100))
        # mode="clip" writes into `out` directly (the indices are in range)
        template = np.take(_TEMPLATES, key, axis=0, out=self.template[:n], mode="clip")
        index = np.add(template, self.base[:n], out=self.index[:n])
        slots = np.take(self.source.view(np.uint8).ravel(), index, out=self.out[:n],
                        mode="clip")
        if fallback.size:
            text = "".join(map("{!r:<24}".format, values[fallback].tolist()))
            slots[fallback, :-1] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
        return slots


def _digits(exp, mant, mv):
    """(output digits, their count, decpt) of each common value, by Ryū's
    common case."""
    m = [_M_LIMBS[k][exp] for k in range(5)]
    a0, a1 = mv & _MASK, mv >> _LIMB
    # P = mv * M in 30-bit columns, each carried into the next; the top two
    # columns are merged, as P >> 120 < 2^63 (vr < 2^62)
    x0 = a0 * m[0]
    x1 = a0 * m[1] + a1 * m[0] + (x0 >> _LIMB)
    x2 = a0 * m[2] + a1 * m[1] + (x1 >> _LIMB)
    x3 = a0 * m[3] + a1 * m[2] + (x2 >> _LIMB)
    x4 = a0 * m[4] + a1 * m[3] + ((a1 * m[4]) << _LIMB) + (x3 >> _LIMB)
    vr = x4 >> 1
    # P mod 2^121, as its bits 60 and up and its bits below 60
    high = ((x4 & 1) << 60) | ((x3 & _MASK) << _LIMB) | (x2 & _MASK)
    low = ((x1 & _MASK) << _LIMB) | (x0 & _MASK)
    vp = vr + _UP[0][exp] + 1 - _below(high, low, _UP[1][exp], _UP[2][exp])
    at = exp + _SIZE * ((mant == 0) & (exp > 1))  # mmShift = 0 at a power of two
    vm = vr - _DOWN[0][at] - _below(high, low, _DOWN[1][at], _DOWN[2][at])

    # vp - vm is in [30, 400), so 10 < 10^t <= vp - vm < 10^(t + 1)
    t = 1 + (vp - vm >= 100)
    scale = _POW10[t + 1]
    head = vp // scale
    removed = t + (head > vm // scale)
    # a multiple of 10^(t + 1) lies in (vm, vp]: its trailing zeros go too
    more = np.flatnonzero((removed > t) & (head % 10 == 0))
    while more.size:
        removed[more] += 1
        head[more] //= 10
        more = more[head[more] % 10 == 0]
    kept = vr // _POW10[removed - 1]
    digits = kept // 10
    round_up = kept - digits * 10 >= 5
    digits += round_up | (digits == vm // _POW10[removed])
    # the digits of vr (18 or 19) not removed; rounding up adds one only to
    # a 0, as any other carry would leave a zero that would have been removed
    count = np.maximum(18 + (vr >= 10**18) - removed, 1)
    return digits, count, _E10[exp] + removed + count


def _below(high, low, t_high, t_low):
    """Whether the numbers (high << 60) + low are below (t_high << 60) + t_low."""
    return (high < t_high) | ((high == t_high) & (low < t_low))
