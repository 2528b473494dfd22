"""Sweep the latent width and the two loss weights on a small synthetic
pair, mirroring the kind of sensitivity tables the training pipeline is
used for. Each grid point trains from scratch with a deterministic
per-point seed.
"""

from dataclasses import replace

from iadt import TrainConfig, evaluate_predictions, predict, synth_domains, train

src, tgt = synth_domains(
    n_source=200, n_target=100, shift=[1.2], rotation_angle=0.3,
    class_sep=4.0, noise_sd=0.7, dim=10, seed=0,
)
yt = tgt.labels_strict().astype(int)
base = TrainConfig(latent_dim=4, lambda1=2.0, lambda2=1.0, lr=0.003,
                   epochs=120, batch_size=200, seed=0)


def score(cfg):
    params, stats, _ = train(src, tgt, cfg)
    probs = predict(params, stats, tgt)
    return evaluate_predictions(yt, probs)[1]


print("=== latent width sweep ===")
print(f"{'latent':>7} {'acc':>8} {'bac':>8} {'auc':>8}")
for index, m in enumerate((2, 4, 8, 16, 32)):
    cfg = replace(base, latent_dim=m, seed=base.seed + index)
    report = score(cfg)
    print(f"{m:7d} {report.acc:8.3f} {report.bac:8.3f} {report.auc:8.3f}")

print()
print("=== loss-weight grid (balanced accuracy) ===")
lambdas = (0.01, 0.1, 1.0)
corner = "l1 / l2"
print(f"{corner:>8} " + " ".join(f"{l2:>7}" for l2 in lambdas))
index = 0
for l1 in lambdas:
    cells = []
    for l2 in lambdas:
        cfg = replace(base, lambda1=l1, lambda2=l2, seed=100 + index)
        cells.append(f"{score(cfg).bac:7.3f}")
        index += 1
    print(f"{l1:>8} " + " ".join(cells))

print()
print("Very small classification weights leave the latent space driven by")
print("reconstruction alone and the balanced accuracy drops accordingly.")
