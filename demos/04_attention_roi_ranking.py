"""Rank the 90 atlas regions by mean attention weight after training on a
cohort where four regions carry the class signal.

The generator plants discriminative signal in four named regions (left
hippocampus, left fusiform gyrus, left precuneus, right middle temporal
gyrus) while the other 86 fluctuate at a smaller scale. After joint
training, the ranking averages the per-sample attention vectors of the
correctly identified positive subjects, exactly how the trained model's
region report is meant to be read. The accuracy, the ranking and the
attention mass all come from one scoring pass over the target cohort,
which keeps the probabilities and running sums of the attention weights.
"""

import numpy as np

from iadt import TrainConfig, rank_rois, score, train
from iadt.data import dataset_from_arrays

PLANTED = {36: "Hippocampus left", 54: "Fusiform gyrus left",
           66: "Precuneus left", 85: "Middle temporal gyrus right"}

rng = np.random.default_rng(0)


def cohort(n, domain, shift=0.0):
    x = rng.normal(0.0, 0.4, size=(n, 90))
    y = np.array([1] * (n // 2) + [0] * (n // 2))
    for j in PLANTED:
        x[:, j] = rng.normal(0.0, 0.8, size=n) + np.where(y == 1, 1.2, -1.2)
    return dataset_from_arrays(x + shift, y, domain)


source = cohort(2000, "source")
target = cohort(600, "target", shift=0.25)

cfg = TrainConfig(latent_dim=16, lambda1=1.0, lambda2=5.0, lr=0.005,
                  epochs=200, batch_size=500, seed=0, standardize=False)
params, stats, _ = train(source, target, cfg)

scores = score(params, stats, target)
acc = float(((scores.probs >= 0.5) == target.labels_strict()).mean())
print(f"target accuracy: {acc:.3f}")

ranking = rank_rois(scores, target)
print(f"ranking computed over {ranking.n_selected} correctly identified positives")
print()
print("=== top ten regions by mean attention weight ===")
print(f"{'index':>6}  {'region':44}{'weight':>9} {'shifted':>9}")
for e in ranking.top(10):
    marker = " *" if (e.roi_index - 1) in PLANTED else ""
    print(f"{e.roi_index:>6}  {e.roi_name:44}{e.mean_weight:9.5f} "
          f"{e.shifted_weight:9.5f}{marker}")

mass = float((scores.weight_sum[list(PLANTED)] / len(target)).sum())
uniform = len(PLANTED) / 90.0
print()
print(f"combined attention mass on the four planted regions: {mass:.4f}")
print(f"uniform-attention share of four regions:             {uniform:.4f}")
print(f"concentration factor: {mass / uniform:.1f}x  (* marks planted regions)")
