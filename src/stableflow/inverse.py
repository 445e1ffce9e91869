"""The 2-d ill-conditioned inverse problem: forward model, Tikhonov baseline
with grid search and its analytic Lipschitz curve, and the reconstruction
network built from non-expansive blocks."""

from dataclasses import dataclass

import numpy as np

from .blocks import ClampedScale, LiftLayer, Network, NonExpansiveBlock, ProjectLayer
from .errors import InvalidInputError


@dataclass(frozen=True)
class ForwardModel:
    """Measurement operator [[1+eps, 1], [1, 1+eps]] with additive Gaussian
    noise.  Eigenvalues are 2+eps and eps, so the condition number 1 + 2/eps
    blows up as eps shrinks."""

    epsilon: float = 0.25
    noise_sigma: float = 0.1

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidInputError(f"epsilon must be positive, got {self.epsilon}")
        if self.noise_sigma < 0:
            raise InvalidInputError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    @property
    def matrix(self):
        e = self.epsilon
        return np.array([[1.0 + e, 1.0], [1.0, 1.0 + e]])

    @property
    def singular_values(self):
        # the matrix is symmetric positive definite, so these are also its eigenvalues
        return np.array([2.0 + self.epsilon, self.epsilon])

    @property
    def condition_number(self):
        return 1.0 + 2.0 / self.epsilon


def generate_dataset(n, epsilon=0.25, noise_sigma=0.1, seed=0, support_jitter=0.02):
    """Ground truths on a curved set and their noisy measurements.

    x = (t, t^2 - 1/2) + r * (unit normal), t ~ U[-1, 1],
    r ~ N(0, support_jitter^2); y = A x + z with z ~ N(0, noise_sigma^2 I).
    Returns (x, y) as (n, 2) rows.
    """
    model = ForwardModel(epsilon=epsilon, noise_sigma=noise_sigma)
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size=n)
    r = support_jitter * rng.standard_normal(n)
    scale = np.sqrt(1.0 + 4.0 * t * t)
    normal = np.stack([-2.0 * t, np.ones_like(t)], axis=1) / scale[:, None]
    xs = np.stack([t, t * t - 0.5], axis=1) + r[:, None] * normal
    ys = xs @ model.matrix.T
    if noise_sigma > 0:
        ys = ys + noise_sigma * rng.standard_normal(ys.shape)
    return xs, ys


class TikhonovReconstructor:
    """Linear reconstruction map (A^T A + tau I)^{-1} A^T, cached once."""

    def __init__(self, model, tau):
        if tau <= 0:
            raise InvalidInputError(f"tau must be positive, got {tau}")
        self.model = model
        self.tau = float(tau)
        a = model.matrix
        self.matrix = np.linalg.solve(a.T @ a + tau * np.eye(a.shape[1]), a.T)

    def reconstruct(self, y):
        y = np.asarray(y, dtype=float)
        return y @ self.matrix.T


def tikhonov_reconstruct(model, tau, y):
    """Minimiser of ||A x - y||^2 + tau ||x||^2."""
    return TikhonovReconstructor(model, tau).reconstruct(y)


def tikhonov_lipschitz(model, tau):
    """Operator norm of the reconstruction map: max_i sigma_i / (sigma_i^2 + tau),
    monotonically decreasing in tau from 1/min_i sigma_i towards 0."""
    if tau < 0:
        raise InvalidInputError(f"tau must be >= 0, got {tau}")
    s = model.singular_values
    return float(np.max(s / (s * s + tau)))


def log_tau_grid(lo=1e-4, hi=1e2, n=50):
    return np.logspace(np.log10(lo), np.log10(hi), n)


def grid_search_tau(model, xs, ys, taus):
    """tau minimising the mean squared reconstruction error on (xs, ys).

    Ties break toward the larger (more stable) tau.  Returns
    (tau_star, lipschitz_star, per-tau mean errors).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    taus = np.asarray(taus, dtype=float)
    errors = np.empty(len(taus))
    for i, tau in enumerate(taus):
        recon = TikhonovReconstructor(model, tau).reconstruct(ys)
        errors[i] = np.mean(np.sum((recon - xs) ** 2, axis=1))
    best = np.min(errors)
    tau_star = float(np.max(taus[errors == best]))
    return tau_star, tikhonov_lipschitz(model, tau_star), errors


def invert_tau_for_lipschitz(model, l_target):
    """The tau with L(tau) = l_target.

    sigma / (sigma^2 + tau) <= l exactly when tau >= sigma / l - sigma^2, so
    the continuous, decreasing L first meets l_target at the largest of
    these thresholds.
    """
    s = model.singular_values
    l_max = 1.0 / float(np.min(s))
    if not 0.0 < l_target < l_max:
        raise InvalidInputError(
            f"target {l_target} outside the attainable range (0, {l_max})")
    return float(np.max(s / l_target - s * s))


def build_invnet(l_bound, n_blocks=5, lift_dim=10, hidden_dim=10, seed=0,
                 total_time=1.0):
    """Reconstruction network: lift(2 -> lift_dim), n_blocks non-expansive
    blocks, project back to 2, and a learnable scale clamped to [-L, L].
    The composition is L-Lipschitz by construction."""
    rng = np.random.default_rng(seed)
    layers = [LiftLayer(2, lift_dim)]
    for _ in range(n_blocks):
        layers.append(NonExpansiveBlock.random(lift_dim, hidden_dim, rng,
                                               total_time=total_time))
    layers.append(ProjectLayer(lift_dim, 2))
    layers.append(ClampedScale(2, value=1.0, bound=l_bound))
    return Network(layers, lipschitz_budget=l_bound)
