"""Certified radii and l2 PGD attacks on a small image classifier.

A classifier whose feature blocks are non-expansive has Lipschitz constant
at most the norm of its linear readout.  The margin m(x) between the top two
logits then certifies that nothing within radius m(x) / (2L) changes the
prediction; the projected-gradient attack gives the complementary empirical
view.  The full desk-scale comparison lives in `stableflow robust`.
"""

import numpy as np

from stableflow import attacks, datasets, experiments, stability
from stableflow.training import TrainConfig, train

# small synthetic glyph corpus (10 classes of 28x28 images, pooled to 14x14)
images, labels = datasets.synthetic_image_corpus(1600, seed=0)
pooled = datasets.downsample(np.asarray(images, float) / 255.0)
ds = datasets.LabeledDataset(pooled.reshape(len(pooled), -1), labels, 10)
train_ds, test_ds = datasets.subset_split(ds, 1400, 200, seed=0)

net = experiments.build_image_classifier("nonexpansive", 196, 10, seed=0)
cfg = TrainConfig(epochs=8, batch_size=128, optimiser="adam", schedule="one_cycle",
                  lr_min=1e-4, lr_peak=1e-2, weight_decay=3e-4,
                  margin_offset=0.5, loss="margin", seed=0)
train(net, train_ds.inputs, train_ds.labels, cfg)

bound = stability.composed_lipschitz_bound(net)
print(f"composed Lipschitz bound (= readout norm here): {bound:.3f}")

_, _, radii = stability.certified_radius(net, test_ds.inputs, bound)
print(f"certified radii: median {np.median(radii):.4f}, max {radii.max():.4f}")

rows, _ = attacks.robust_accuracy(net, test_ds.inputs, test_ds.labels,
                                  [0.0, 0.2, 0.4, 0.6, 0.8], n_iter=50)
print("\n  eps   accuracy")
for eps, acc, _ in rows:
    certified = float(np.mean(radii > eps))
    print(f"  {eps:.1f}   {acc:.3f}   (fraction certified at this eps: {certified:.3f})")

print("\nEvery point whose certified radius exceeds eps is guaranteed to "
      "survive any attack of that size; the table shows the attack agreeing.")
