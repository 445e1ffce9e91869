"""Certification and stability analysis.

Composed Lipschitz bounds, classification margins and certified radii,
one-sided Lipschitz estimation of vector fields, and a Lyapunov-stable
vector-field parametrisation with a guaranteed decrease direction.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import relu, relu_prime
from .errors import DegenerateGradientError, InvalidInputError
from .linalg import write_csv


def margin(logits):
    """(argmax class, top minus runner-up) of each row of ``logits``.  Ties
    resolve to the lowest index, with a zero margin."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise InvalidInputError(f"need rows of at least 2 logits, got shape {logits.shape}")
    top2 = np.sort(logits, axis=1)[:, -2:]
    return np.argmax(logits, axis=1), top2[:, 1] - top2[:, 0]


def certified_radius(net, xs, lipschitz_bound):
    """(classes, margins, radii) of the rows ``xs``, with radius
    margin / (2 * lipschitz_bound): every point within it of a row receives
    that row's class, provided ``lipschitz_bound`` really bounds the
    network's Lipschitz constant."""
    if lipschitz_bound <= 0:
        raise InvalidInputError(f"Lipschitz bound must be positive, got {lipschitz_bound}")
    classes, margins = margin(net.forward(xs))
    return classes, margins, margins / (2.0 * lipschitz_bound)


def certificates_to_csv(path, lipschitz_bound, classes, margins, radii):
    return write_csv(path, "index,class,margin,lipschitz_bound,radius",
                     [(i, c, m, float(lipschitz_bound), r)
                      for i, (c, m, r) in enumerate(zip(classes, margins, radii))])


def composed_lipschitz_bound(net):
    """Product of per-block Lipschitz bounds; an upper bound on the network's
    Lipschitz constant, typically far from tight."""
    bound = 1.0
    for block in net.blocks:
        bound *= block.lipschitz_bound()
    return float(bound)


def _fd_jacobian(func, x, step=1e-5):
    """Central-difference Jacobian of a vector map."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    jac = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        jac[:, j] = (np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * step)
    return jac


def one_sided_lipschitz_estimate(field, samples):
    """Largest eigenvalue of the symmetrised Jacobian of ``field`` over the
    samples; an empirical lower bound on the one-sided Lipschitz constant."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    best = -np.inf
    for x in samples:
        jac = _fd_jacobian(lambda v: field.eval(0.0, v), x)
        sym = 0.5 * (jac + jac.T)
        best = max(best, float(np.linalg.eigvalsh(sym)[-1]))
    return best


class ConvexPotential:
    """Convex potential with a prescribed minimum at ``center``:

        V(x) = eps * ||x - center||^2 + sum_i gamma(w_i . (x - center))

    where gamma(s) = s^2/2 for s > 0 and 0 otherwise (so gamma' = relu).
    Convex by construction, V(center) = 0, grad V(center) = 0, and the
    gradient is exact and cheap.  ``value`` and ``grad`` take a vector or a
    stack of rows.
    """

    def __init__(self, weights, center, eps=1e-3):
        self.weights = np.array(weights, dtype=float)  # (H, d)
        self.center = np.array(center, dtype=float)
        if self.weights.ndim != 2 or self.weights.shape[1] != self.center.shape[0]:
            raise InvalidInputError("weights must be (H, d) matching the center dimension")
        self.eps = float(eps)

    def terms(self, x):
        """(u, relu(z), V, grad V) with u = x - center and z = u W^T, the
        shared terms from which V, grad V and their weight gradients follow."""
        u = np.asarray(x, dtype=float) - self.center
        sig = relu(u @ self.weights.T)
        value = self.eps * (u * u).sum(axis=-1) + 0.5 * (sig * sig).sum(axis=-1)
        return u, sig, value, 2.0 * self.eps * u + sig @ self.weights

    def value(self, x):
        """V at a vector (a float) or at each row (an array)."""
        value = self.terms(x)[2]
        return float(value) if np.ndim(value) == 0 else value

    def grad(self, x):
        return self.terms(x)[3]


@dataclass
class LyapunovSystem:
    """A base vector field projected so the potential decreases along flows.

    ``base_field`` is any map x -> dx (e.g. a small network);
    ``potential`` is the convex Lyapunov candidate with its minimum at the
    prescribed equilibrium; ``mu`` sets the enforced decrease rate.
    """

    base_field: object  # callable x -> vector
    potential: ConvexPotential
    mu: float

    # below this squared-gradient size the projection formula is singular
    degenerate_tol: float = 1e-12
    equilibrium_tol: float = 1e-9

    @property
    def equilibrium(self):
        return self.potential.center


def lyapunov_project_with_cache(system, x, xhat):
    """The projected field  X = Xhat - grad V * relu(grad V . Xhat + mu V) / ||grad V||^2
    at a vector or at each row of ``x``, given the base-field values ``xhat``.

    Returns (X, cache); the cache (u, relu(u W^T), grad V, ||grad V||^2,
    Xhat, relu(grad V . Xhat + mu V)) feeds :func:`lyapunov_project_vjp`.

    X satisfies <grad V, X> <= -mu V <= 0 wherever defined.  Where
    ||grad V||^2 < ``degenerate_tol`` the formula is singular: at the
    equilibrium X is Xhat exactly, anywhere else DegenerateGradientError.
    """
    u, sig, v, g = system.potential.terms(x)
    gg = (g * g).sum(axis=-1)
    s = (g * xhat).sum(axis=-1) + system.mu * v
    degenerate = gg < system.degenerate_tol
    if degenerate.any():
        at_equilibrium = np.sqrt((u * u).sum(axis=-1)) <= system.equilibrium_tol
        if (degenerate & ~at_equilibrium).any():
            raise DegenerateGradientError(
                "potential gradient vanished away from the equilibrium")
        gg = np.where(degenerate, 1.0, gg)
        s = np.where(degenerate, 0.0, s)
    a = relu(s)
    return xhat - g * (a / gg)[..., None], (u, sig, g, gg, xhat, a)


def lyapunov_project(system, x):
    """The projected field at ``x`` (a vector or rows); see
    :func:`lyapunov_project_with_cache`."""
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(system.base_field(x), dtype=float)
    return lyapunov_project_with_cache(system, x, xhat)[0]


def lyapunov_field(system):
    """The projected system as an autonomous :class:`~stableflow.ode.VectorField`."""
    from .ode import VectorField

    return VectorField(dimension=system.equilibrium.shape[0],
                       eval=lambda t, x: lyapunov_project(system, x))


def lyapunov_project_vjp(system, cache, upstream):
    """Pull upstream gradient rows on the projected field back to the
    base-field values and the potential weights.

    ``cache`` comes from :func:`lyapunov_project_with_cache` on a stack of
    rows.  Returns (base_upstream, weight_grad): ``base_upstream`` holds the
    rows to feed into the base field's own backward pass, ``weight_grad``
    matches ``system.potential.weights`` and is summed over the rows.  The
    relu switch is treated as locally constant.
    """
    e = np.asarray(upstream, dtype=float)
    u, sig, g, gg, xhat, a = cache
    if e.ndim != 2 or e.shape != xhat.shape:
        raise InvalidInputError(
            f"upstream must be rows shaped like the projection, got {e.shape}")
    weights = system.potential.weights
    active = a > 0.0
    eg = np.sum(e * g, axis=1)
    coeff = np.where(active, eg / gg, 0.0)
    # dX/dXhat = I - g g^T / gg on active rows, the identity elsewhere
    base_upstream = e - coeff[:, None] * g
    # gradient reaching grad V and V through the correction term
    v_g = -(coeff[:, None] * xhat + (a / gg)[:, None] * e
            - (2.0 * a * eg / gg ** 2)[:, None] * g)
    v_g[~active] = 0.0
    c_v = -coeff * system.mu
    # grad V = 2 eps u + W^T relu(W u): d(grad V)/dW pulled back by v_g,
    # plus dV/dW scaled by c_v
    # relu(z) > 0 exactly where z > 0
    weight_grad = (sig.T @ v_g + (relu_prime(sig) * (v_g @ weights.T)).T @ u
                   + (c_v[:, None] * sig).T @ u)
    return base_upstream, weight_grad
