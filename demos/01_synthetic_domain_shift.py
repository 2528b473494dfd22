"""Generate paired source/target datasets with a controlled domain shift and
watch the raw-feature MMD grow with the shift size.

The generator draws two balanced Gaussian classes per domain, then rotates
and translates the target. With no shift the linear-kernel MMD between raw
features is near zero; it grows quadratically with the translation.
"""

import os
import tempfile

import numpy as np

from iadt import KernelSpec, load_csv, mmd_sq, synth_domains, write_csv

print("=== squared MMD between raw source/target features ===")
print(f"{'shift':>8} {'rotation':>9} {'mmd^2':>10}")
for shift, rotation in [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.5, 0.0),
                        (0.0, 0.4), (1.5, 0.4)]:
    src, tgt = synth_domains(
        n_source=2000, n_target=2000, shift=[shift], rotation_angle=rotation,
        class_sep=2.0, noise_sd=0.5, dim=10, seed=0,
    )
    value = mmd_sq(src.x, tgt.x, KernelSpec("linear"))
    print(f"{shift:8.1f} {rotation:9.1f} {value:10.4f}")

print()
print("A pure rotation moves little mass (the class mixture is centered),")
print("while a translation moves the whole cloud and dominates the MMD.")

# The CSV round trip: one file holds both domains, labels and all.
src, tgt = synth_domains(20, 10, [1.0], 0.3, 3.0, 0.6, 5, seed=1)
merged = src.concat(tgt)
with tempfile.TemporaryDirectory() as tmp:  # also removes load_csv's cache entry
    path = os.path.join(tmp, "domains.csv")
    write_csv(merged, path)
    back = load_csv(path)
assert np.array_equal(back.x, merged.x)
print()
print(f"round trip through a CSV file: {len(back)} samples, "
      f"{back.feature_count} features, bit-exact features")
