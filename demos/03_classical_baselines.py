"""Run the four classical subspace adapters next to the raw logistic
baseline on the same shifted synthetic pair.

Each method maps raw features into its adapted space; a logistic classifier
is then trained on the adapted source and scored on the adapted target.
Correlation alignment matches first and second moments and handles this
rotate-and-translate shift almost perfectly; transfer components with a
strong regularizer fall back to kernel-PCA behavior and track the baseline;
subspace alignment recovers the rotated class axis.
"""

from iadt import evaluate_predictions, synth_domains
from iadt.baselines import (
    baseline_predict,
    coral_fit,
    gfk_fit,
    logistic_fit,
    logistic_predict,
    sa_fit,
    tca_fit,
)

src, tgt = synth_domains(
    n_source=400, n_target=200, shift=[1.5], rotation_angle=0.4,
    class_sep=4.0, noise_sd=0.7, dim=10, seed=0,
)
xs, ys = src.x, src.labels_strict()
xt, yt = tgt.x, tgt.labels_strict().astype(int)

rows = {}
model = logistic_fit(xs, ys)
probs = logistic_predict(model, xt)
rows["logistic"] = evaluate_predictions(yt, probs)[1]

for name, smap in (
    ("tca", tca_fit(xs, xt, dim=10, mu=1.0)),
    ("gfk", gfk_fit(xs, xt, dim=3)),
    ("sa", sa_fit(xs, xt, dim=2)),
    ("coral", coral_fit(xs, xt)),
):
    probs = baseline_predict(smap, xs, ys, xt)
    rows[name] = evaluate_predictions(yt, probs)[1]

print("=== target-domain metrics on the shifted pair ===")
print(f"{'method':10}{'acc':>8} {'bac':>8} {'auc':>8} {'sen':>8} {'spe':>8}")
for name, report in rows.items():
    vals = report.as_dict()
    print(f"{name:10}" + " ".join(f"{vals[k]:8.3f}" for k in ("acc", "bac", "auc", "sen", "spe")))
