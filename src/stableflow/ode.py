"""Explicit and symplectic Euler integrators plus exact linear flows.

Uniform time grids only: every experiment in this library uses a fixed
step size, and sub-step adaptation in ``blocks`` changes the step count,
not the grid shape.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, NumericOverflowError
from .linalg import as_matrix, as_vector, matrix_exponential, write_csv


@dataclass
class VectorField:
    """Right-hand side of an autonomous-or-not ODE ``x'(t) = eval(t, x)``.

    ``k_grad``/``u_grad`` optionally declare a separable decomposition for
    states split as (q, p); the symplectic integrator requires them.
    Detection of separability is undecidable in general, so the caller
    declares it.
    """

    dimension: int
    eval: Callable[[float, np.ndarray], np.ndarray]
    k_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    u_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def separable(self):
        return self.k_grad is not None and self.u_grad is not None


@dataclass
class Trajectory:
    """Discrete trajectory: strictly increasing times and matching states."""

    times: np.ndarray
    states: np.ndarray  # (len(times), dimension)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise InvalidInputError("trajectory needs 1-d times and 2-d states")
        if len(self.times) != len(self.states):
            raise InvalidInputError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise InvalidInputError("times must be strictly increasing")

    def to_csv(self, path):
        d = self.states.shape[1]
        return write_csv(path, "t," + ",".join(f"x{i + 1}" for i in range(d)),
                         np.column_stack([self.times, self.states]).tolist())


def _check_finite(x, step_index):
    if not np.all(np.isfinite(x)):
        raise NumericOverflowError("integration step produced a non-finite state",
                                   step_index=step_index)
    return x


def euler_step(field, t, x, h, step_index=None):
    """One explicit Euler step x + h * X(t, x)."""
    if h <= 0:
        raise InvalidInputError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    out = x + h * np.asarray(field.eval(t, x), dtype=float)
    return _check_finite(out, step_index)


def symplectic_euler_step(k_grad, u_grad, q, p, h, step_index=None):
    """One explicit symplectic Euler step for a separable Hamiltonian:
    q_hat = q + h * k_grad(p), then p <- p - h * u_grad(q_hat).
    """
    if h <= 0:
        raise InvalidInputError(f"step size must be positive, got {h}")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    q_hat = q + h * np.asarray(k_grad(p), dtype=float)
    p_new = p - h * np.asarray(u_grad(q_hat), dtype=float)
    _check_finite(q_hat, step_index)
    _check_finite(p_new, step_index)
    return q_hat, p_new


def exact_linear_flow(a, x0, t):
    """Flow of x' = a x at time t: expm(a t) @ x0."""
    a = as_matrix(a)
    x0 = as_vector(x0, "x0")
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"linear flow needs a square matrix, got {a.shape}")
    if x0.shape[0] != a.shape[0]:
        raise InvalidInputError(
            f"x0 has dimension {x0.shape[0]}, expected {a.shape[0]}")
    if t == 0.0:
        return x0.copy()
    return matrix_exponential(a * t) @ x0


def integrate(field, x0, t0, h, n, method="euler"):
    """Integrate ``n`` steps from ``x0`` and return the n+1 state trajectory."""
    x0 = as_vector(np.asarray(x0, dtype=float), "x0")
    if x0.shape[0] != field.dimension:
        raise InvalidInputError(
            f"x0 has dimension {x0.shape[0]}, field declares {field.dimension}")
    if n < 0:
        raise InvalidInputError(f"step count must be >= 0, got {n}")
    if method not in ("euler", "symplectic"):
        raise InvalidInputError(f"unknown method {method!r}")
    if method == "symplectic":
        if not field.separable:
            raise InvalidInputError(
                "symplectic integration needs a field with a declared (k_grad, u_grad) split")
        if field.dimension % 2 != 0:
            raise InvalidInputError("symplectic integration needs an even state dimension")
    states = np.empty((n + 1, field.dimension))
    states[0] = x0
    times = t0 + h * np.arange(n + 1)
    d = field.dimension // 2
    x = x0
    for i in range(n):
        if method == "euler":
            x = euler_step(field, times[i], x, h, step_index=i)
        else:
            q, p = symplectic_euler_step(field.k_grad, field.u_grad,
                                         x[:d], x[d:], h, step_index=i)
            x = np.concatenate([q, p])
        states[i + 1] = x
    return Trajectory(times=times, states=states)


def harmonic_oscillator():
    """The unit harmonic oscillator (x, p)' = (p, -x) with its separable split."""
    return VectorField(
        dimension=2,
        eval=lambda t, x: np.array([x[1], -x[0]]),
        k_grad=lambda p: p,
        u_grad=lambda q: q,
    )


def harmonic_energy(states):
    """Energy (x^2 + p^2) / 2 along a 2-d trajectory array or single state."""
    states = np.asarray(states, dtype=float)
    return 0.5 * np.sum(states * states, axis=-1)
