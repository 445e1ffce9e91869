"""l2 projected-gradient-descent attacks and robust-accuracy grids."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import write_csv
from .training import batch_margin_cross_entropy

_ZERO_GRAD_FLOOR = 1e-300


@dataclass
class AttackConfig:
    """Perturbation budget (l2 radius), iteration count, and ascent step.

    ``step_size`` defaults to 2.5 * epsilon / n_iter so the ball boundary is
    reachable within the iteration budget.
    """

    epsilon: float
    n_iter: int = 100
    step_size: float = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvalidInputError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.n_iter < 1:
            raise InvalidInputError(f"n_iter must be >= 1, got {self.n_iter}")
        if self.step_size is None:
            self.step_size = 2.5 * self.epsilon / self.n_iter
        elif self.step_size <= 0:
            raise InvalidInputError(f"step_size must be positive, got {self.step_size}")


def _input_gradients(net, xs, labels):
    logits, cache = net.forward_with_cache(xs)
    _, gout = batch_margin_cross_entropy(logits, labels)
    gin, _ = net.backward(cache, gout, params=False)
    return np.atleast_2d(gin)


def pgd_l2_batch(net, xs, labels, cfg, stats=None):
    """Attack a stack of inputs at once.

    Starting from the clean inputs, each iteration ascends the loss along the
    per-sample unit-normalised input gradient and projects the perturbation
    back onto the l2 ball of radius epsilon.  Rows with a vanishing gradient
    skip the ascent for that iteration (counted in ``stats``).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    labels = np.asarray(labels, dtype=int)
    if cfg.epsilon == 0.0:
        return xs.copy()
    delta = np.zeros_like(xs)
    zero_grad = 0
    for _ in range(cfg.n_iter):
        grad = _input_gradients(net, xs + delta, labels)
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
        live = norms > _ZERO_GRAD_FLOOR
        zero_grad += int(np.sum(~live))
        scale = np.where(live, cfg.step_size / np.where(live, norms, 1.0), 0.0)
        delta = delta + scale * grad
        dnorm = np.linalg.norm(delta, axis=1, keepdims=True)
        over = dnorm > cfg.epsilon
        delta = delta * np.where(over, cfg.epsilon / np.where(over, dnorm, 1.0), 1.0)
    if stats is not None:
        stats["zero_grad_iterations"] = stats.get("zero_grad_iterations", 0) + zero_grad
    return xs + delta


def robust_accuracy(net, inputs, labels, epsilons, n_iter=100):
    """Fraction of samples still classified correctly after a PGD attack at
    each epsilon.  epsilon = 0 reports clean accuracy exactly (no attack).

    Returns (rows, attacked): a list of (epsilon, accuracy, n_samples) rows,
    and the attacked inputs keyed by each nonzero epsilon.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    labels = np.asarray(labels, dtype=int)
    n = inputs.shape[0]
    rows, attacked = [], {}
    for eps in epsilons:
        batch = inputs
        if eps != 0.0:
            cfg = AttackConfig(epsilon=float(eps), n_iter=n_iter)
            batch = attacked[float(eps)] = pgd_l2_batch(net, inputs, labels, cfg)
        preds = np.argmax(net.forward(batch), axis=1)
        rows.append((float(eps), float(np.mean(preds == labels)), n))
    return rows, attacked


def robust_accuracy_to_csv(path, rows):
    return write_csv(path, "epsilon,accuracy,n_samples", rows)
