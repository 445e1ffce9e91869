"""Building networks that provably never expand distances.

A block applies explicit Euler sub-steps of the gradient flow of the convex
potential sum(gamma(Wx + b)); each sub-step x - h W^T relu(Wx + b) is
1-Lipschitz as long as h <= 2 / ||W||_2^2.  When training grows ||W||, the
block splits its fixed integration time into more sub-steps instead of
violating the constraint, so the whole composition stays non-expansive and
a final clamped scalar pins the network's Lipschitz bound.
"""

import numpy as np

from stableflow import linalg, stability
from stableflow.blocks import ClampedScale, Network, NonExpansiveBlock

rng = np.random.default_rng(1)

block = NonExpansiveBlock.random(8, 12, rng, total_time=1.0)
print(f"fresh block: ||W|| = {linalg.spectral_norm(block.weight):.3f}, "
      f"n_steps = {block.n_steps}")

# inflate the weights as an optimiser might; the step count adapts
for scale in (2.0, 4.0, 8.0):
    block.weight *= scale / linalg.spectral_norm(block.weight)
    block.refresh_spectral()
    h = block.total_time / block.n_steps
    print(f"||W|| = {scale}: n_steps -> {block.n_steps:>3}  "
          f"(h = {h:.4f} <= 2/||W||^2 = {2 / scale**2:.4f})")

# empirical check: distances never grow, even with the large weights
xs = rng.uniform(-10, 10, (20000, 8))
ys = rng.uniform(-10, 10, (20000, 8))
ratios = (np.linalg.norm(block.forward(xs) - block.forward(ys), axis=1)
          / np.linalg.norm(xs - ys, axis=1))
print(f"\nworst distance ratio over 20000 random pairs: {ratios.max():.12f}")

# compose blocks and cap the overall Lipschitz constant at 1.5
net = Network([NonExpansiveBlock.random(8, 12, rng) for _ in range(4)]
              + [ClampedScale(8, value=4.0, bound=1.5)], lipschitz_budget=1.5)
print(f"composed Lipschitz bound: {stability.composed_lipschitz_bound(net)} "
      f"(scale 4.0 clamped to the budget 1.5)")
ratios = (np.linalg.norm(net.forward(xs) - net.forward(ys), axis=1)
          / np.linalg.norm(xs - ys, axis=1))
print(f"empirical worst ratio:    {ratios.max():.6f}")
