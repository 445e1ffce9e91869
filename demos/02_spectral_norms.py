"""Tracking spectral norms with the power method.

The iteration u <- W^T W u / ||W^T W u|| estimates ||W||_2 from below.
Warm-started from the previous top-singular-vector estimate, a single
iteration per step follows a slowly drifting matrix.  It can still lag: a
step that grows W along a direction the vector does not see goes unnoticed,
which is why the non-expansive blocks take their step counts from LAPACK
(``linalg.spectral_norm``) instead.
"""

import numpy as np

from stableflow import linalg

rng = np.random.default_rng(0)

# sanity checks on matrices with known norms
for label, matrix in [("identity", np.eye(10)),
                      ("5 * identity", 5.0 * np.eye(10))]:
    est = linalg.power_method(matrix, rng.standard_normal(10), 100)
    print(f"{label:<28} power-method norm {est.norm:.12f}")

b = rng.standard_normal((10, 10))
orthogonal = linalg.matrix_exponential(b - b.T)  # exp of skew = orthogonal
est = linalg.power_method(orthogonal, rng.standard_normal(10), 100)
print(f"{'exp(B - B^T) (orthogonal)':<28} power-method norm {est.norm:.12f}")

# warm-starting: simulate a drifting weight matrix during training
weight = rng.standard_normal((20, 20)) * 0.3
estimate = linalg.power_method(weight, rng.standard_normal(20), 100)
drift_errors = []
for step in range(200):
    weight += 0.01 * rng.standard_normal((20, 20))  # optimiser-like drift
    estimate = linalg.power_method(weight, estimate.vector, 1)  # ONE iteration
    drift_errors.append(abs(estimate.norm - linalg.spectral_norm(weight)))
print(f"\n200 drift steps with one warm-started iteration each:")
print(f"worst error vs the LAPACK norm: {max(drift_errors):.2e}")
print(f"final error:                    {drift_errors[-1]:.2e}")
