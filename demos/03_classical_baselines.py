"""Run the four classical subspace adapters next to the raw logistic
baseline on the same shifted synthetic pair.

Each fit returns the source and target rows mapped into its adapted space
(the raw logistic baseline keeps them as they are); a logistic classifier is
then trained on the adapted source and scored on the adapted target.
Correlation alignment matches first and second moments and handles this
rotate-and-translate shift almost perfectly; transfer components with a
strong regularizer fall back to kernel-PCA behavior and track the baseline;
subspace alignment recovers the rotated class axis.
"""

from iadt import evaluate_predictions, synth_domains
from iadt.baselines import (
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
for name, (zs, zt) in (
    ("logistic", (xs, xt)),
    ("tca", tca_fit(xs, xt, dim=10, mu=1.0)),
    ("gfk", gfk_fit(xs, xt, dim=3)),
    ("sa", sa_fit(xs, xt, dim=2)),
    ("coral", coral_fit(xs, xt)),
):
    probs = logistic_predict(logistic_fit(zs, ys), zt)
    rows[name] = evaluate_predictions(yt, probs)[1]

print("=== target-domain metrics on the shifted pair ===")
print(f"{'method':10}{'acc':>8} {'bac':>8} {'auc':>8} {'sen':>8} {'spe':>8}")
for name, report in rows.items():
    vals = report.as_dict()
    print(f"{name:10}" + " ".join(f"{vals[k]:8.3f}" for k in ("acc", "bac", "auc", "sen", "spe")))
