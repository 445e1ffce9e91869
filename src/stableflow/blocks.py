"""Network layers with explicit forward passes and hand-derived backward passes.

Every block maps a vector or a stack of rows to the same form and knows how
to pull an upstream gradient back to its input and parameters.  There is no
general autodiff here: each backward pass is written out per block kind.
``Block`` turns a single vector into a one-row stack and back, so each kind
writes its maths once, on stacks of rows.

Conventions: a weight of shape (H, d) acts on a d-vector as ``w @ x`` in
column form, i.e. ``x @ w.T`` on rows.  Parameter updates mutate the arrays
in place; callers must invalidate outstanding caches via
``Network.mark_params_updated`` afterwards.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError, InvalidStateError


def relu(z):
    return np.maximum(z, 0.0)


def relu_prime(z):
    # subgradient 0 at the kink, matching sigma(0) = 0
    return (z > 0).astype(float)


def tanh_prime(z):
    t = np.tanh(z)
    return 1.0 - t * t


ACTIVATIONS = {"relu": (relu, relu_prime), "tanh": (np.tanh, tanh_prime)}


def uniform_init(rng, rows, cols):
    """i.i.d. uniform weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(cols)
    return rng.uniform(-bound, bound, size=(rows, cols))


def uniform_bias(rng, n, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=n)


def _rows(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise InvalidInputError(f"expected a vector or a stack of rows, got shape {x.shape}")


class Block:
    """Base of the layer kinds.  A kind writes ``_forward(rows, keep_cache)``
    and ``_backward(cache, grad_rows, params)`` on 2-d stacks of rows; a
    single vector passes through them as one row.  ``param_names`` names the
    parameter attributes; ``checkpoint_attrs`` holds the (attribute, parser)
    pairs a checkpoint's manifest line stores besides them, in manifest order.

    A plain ``forward`` asks for no cache, so a kind whose cache grows with
    its depth (the non-expansive sub-steps) need not keep it.  ``backward``
    with ``params=False`` pulls the gradient back to the input only: each
    kind skips its parameter-gradient products, and the base returns
    ``None`` in place of the parameter gradients.
    """

    kind = None
    param_names = ()
    checkpoint_attrs = ()

    def params(self):
        """The live parameter arrays by name, in ``param_names`` order."""
        return {name: getattr(self, name) for name in self.param_names}

    def forward(self, x):
        return self.forward_with_cache(x, keep_cache=False)[0]

    def forward_with_cache(self, x, keep_cache=True):
        xs, single = _rows(x)
        y, cache = self._forward(xs, keep_cache)
        return (y[0] if single else y), (cache if keep_cache else None)

    def backward(self, cache, grad_out, params=True):
        g, single = _rows(grad_out)
        gx, grads = self._backward(cache, g, params)
        return (gx[0] if single else gx), (grads if params else None)


def _step_count(text):
    n = int(text)
    if n < 1:
        raise InvalidInputError(f"n_steps must be at least 1, got {n}")
    return n


class NonExpansiveBlock(Block):
    """Explicit Euler sub-steps of the gradient flow of a convex potential:
    x <- x - h * W^T relu(W x + b) with h = total_time / n_steps.

    The step is 1-Lipschitz whenever h <= 2 / ||W||_2^2.  ``refresh_spectral``
    sets ``n_steps`` to the fewest sub-steps that meet it, from the LAPACK
    norm; the constructor calls it, and so must any code that changes the
    weight (``training.train`` does after every optimiser step).

    The sub-steps run on the pre-activation z_k = x_k W^T + b (rows), with
    r_k = relu(z_k) and G = h W W^T:

        z_{k+1} = z_k - r_k G,    x_n = x_0 - h (sum_k r_k) W.

    A forward is n + 1 GEMMs (two d x H, n - 1 H x H) instead of 2n d x H,
    and the backward runs the same recurrence on u = g W^T.  One sub-step
    costs H^2 per row instead of 2 H d, so this pays while H < 2d.
    """

    kind = "nonexpansive"
    param_names = ("weight", "bias")
    checkpoint_attrs = (("total_time", float), ("n_steps", _step_count))

    def __init__(self, weight, bias, total_time=1.0):
        self.weight = np.array(weight, dtype=float)
        self.bias = np.array(bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise InvalidInputError("weight must be (H, d) with an H-dimensional bias")
        if total_time <= 0:
            raise InvalidInputError(f"total_time must be positive, got {total_time}")
        self.total_time = float(total_time)
        self.refresh_spectral()

    @classmethod
    def random(cls, dim, hidden, rng, total_time=1.0):
        return cls(uniform_init(rng, hidden, dim), uniform_bias(rng, hidden, dim),
                   total_time=total_time)

    @property
    def dim_in(self):
        return self.weight.shape[1]

    dim_out = dim_in

    def refresh_spectral(self):
        """Set ``n_steps`` to ceil(total_time ||W||_2^2 / 2), at least 1: the
        smallest count whose h = total_time / n_steps meets h ||W||^2 <= 2.
        Returns the count."""
        norm = linalg.spectral_norm(self.weight)
        self.n_steps = max(1, int(np.ceil(self.total_time * norm * norm / 2.0)))
        return self.n_steps

    def _forward(self, xs, keep_cache):
        if self.n_steps < 1:
            raise InvalidStateError("block has no integration sub-steps")
        n = self.n_steps
        h = self.total_time / n
        gram = h * (self.weight @ self.weight.T) if n > 1 else None
        z = xs @ self.weight.T
        z += self.bias
        r = relu(z)
        rs = [r]
        s = r.copy() if n > 1 else r
        for _ in range(1, n):
            z -= r @ gram
            if keep_cache:
                r = relu(z)
                rs.append(r)
            else:
                np.maximum(z, 0.0, out=r)
            s += r
        del z  # y may take its memory: a plain forward stays at four row arrays
        y = s @ self.weight
        y *= -h
        y += xs
        return y, {"x": xs, "r": rs, "s": s, "gram": gram, "h": h}

    def _backward(self, cache, g, params):
        h, gram, rs = cache["h"], cache["gram"], cache["r"]
        u = g @ self.weight.T
        c = None
        cross = np.zeros((u.shape[1], u.shape[1])) if params and len(rs) > 1 else None
        for k in range(len(rs) - 1, -1, -1):
            m = np.where(rs[k] > 0, u, 0.0)
            if c is None:
                c = m
            else:
                if params:
                    cross += rs[k].T @ c
                c += m
            if k:
                u -= m @ gram
        gx = c @ self.weight
        gx *= -h
        gx += g
        if not params:
            return gx, None
        # sum_k r_k^T C_{>k} + m_k^T P_k is cross + cross^T: both sum
        # r_j^T m_k over the pairs j < k
        gw = cache["s"].T @ g + c.T @ cache["x"]
        if cross is not None:
            gw -= h * ((cross + cross.T) @ self.weight)
        return gx, {"weight": -h * gw, "bias": -h * c.sum(axis=0)}

    def lipschitz_bound(self):
        # each sub-step's Jacobian I - h W^T D W (D a 0/1 diagonal) has its
        # spectrum in [1 - h ||W||^2, 1]
        q = self.total_time / self.n_steps * linalg.spectral_norm(self.weight) ** 2
        return float(max(1.0, q - 1.0) ** self.n_steps)


class ResidualBlock(Block):
    """Skip-connection layer x + h * B relu(A x + b); an explicit Euler step of
    a vector field whose flow is not non-expansive in general."""

    kind = "residual"
    param_names = ("weight_in", "weight_out", "bias")
    checkpoint_attrs = (("h", float),)

    def __init__(self, weight_in, weight_out, bias, h=1.0):
        self.weight_in = np.array(weight_in, dtype=float)    # (H, d)
        self.weight_out = np.array(weight_out, dtype=float)  # (d, H)
        self.bias = np.array(bias, dtype=float)
        shape_in = self.weight_in.shape
        if (len(shape_in) != 2 or self.weight_out.shape != shape_in[::-1]
                or self.bias.shape != shape_in[:1]):
            raise InvalidInputError("residual block shapes must be (H,d), (d,H), (H,)")
        if h <= 0:
            raise InvalidInputError(f"h must be positive, got {h}")
        self.h = float(h)

    @classmethod
    def random(cls, dim, hidden, rng, h=1.0):
        return cls(uniform_init(rng, hidden, dim), uniform_init(rng, dim, hidden),
                   uniform_bias(rng, hidden, dim), h=h)

    @property
    def dim_in(self):
        return self.weight_in.shape[1]

    dim_out = dim_in

    def _forward(self, xs, keep_cache):
        z = xs @ self.weight_in.T + self.bias
        y = xs + self.h * relu(z) @ self.weight_out.T
        return y, {"x": xs, "z": z}

    def _backward(self, cache, g, params):
        z, xs = cache["z"], cache["x"]
        mask = z > 0
        mg = np.where(mask, g @ self.weight_out, 0.0)
        grads = None
        if params:
            grads = {
                "weight_out": self.h * (g.T @ np.where(mask, z, 0.0)),
                "weight_in": self.h * (mg.T @ xs),
                "bias": self.h * mg.sum(axis=0),
            }
        return g + self.h * mg @ self.weight_in, grads

    def lipschitz_bound(self):
        return 1.0 + self.h * (linalg.spectral_norm_oracle(self.weight_out)
                               * linalg.spectral_norm_oracle(self.weight_in))


class MLPLayer(Block):
    """Plain two-matrix perceptron layer B sigma(A x + b), no skip connection."""

    kind = "mlp"
    param_names = ("weight_in", "weight_out", "bias")
    checkpoint_attrs = (("activation", str),)

    def __init__(self, weight_in, weight_out, bias, activation="tanh"):
        self.weight_in = np.array(weight_in, dtype=float)    # (H, d_in)
        self.weight_out = np.array(weight_out, dtype=float)  # (d_out, H)
        self.bias = np.array(bias, dtype=float)
        if (self.weight_in.ndim != 2 or self.weight_out.ndim != 2
                or self.weight_out.shape[1] != self.weight_in.shape[0]
                or self.bias.shape != self.weight_in.shape[:1]):
            raise InvalidInputError("mlp layer shapes must be (H,d_in), (d_out,H), (H,)")
        if activation not in ACTIVATIONS:
            raise InvalidInputError(f"unknown activation {activation!r}")
        self.activation = activation

    @classmethod
    def random(cls, dim_in, dim_out, hidden, rng, activation="tanh"):
        return cls(uniform_init(rng, hidden, dim_in), uniform_init(rng, dim_out, hidden),
                   uniform_bias(rng, hidden, dim_in), activation=activation)

    @property
    def dim_in(self):
        return self.weight_in.shape[1]

    @property
    def dim_out(self):
        return self.weight_out.shape[0]

    def _forward(self, xs, keep_cache):
        act, _ = ACTIVATIONS[self.activation]
        z = xs @ self.weight_in.T + self.bias
        return act(z) @ self.weight_out.T, {"x": xs, "z": z}

    def _backward(self, cache, g, params):
        act, act_prime = ACTIVATIONS[self.activation]
        z, xs = cache["z"], cache["x"]
        mg = act_prime(z) * (g @ self.weight_out)
        grads = None
        if params:
            grads = {
                "weight_out": g.T @ act(z),
                "weight_in": mg.T @ xs,
                "bias": mg.sum(axis=0),
            }
        return mg @ self.weight_in, grads

    def lipschitz_bound(self):
        return (linalg.spectral_norm_oracle(self.weight_out)
                * linalg.spectral_norm_oracle(self.weight_in))


class HamiltonianBlock(Block):
    """One explicit symplectic Euler step of a separable parametrised
    Hamiltonian on states (q, p):

        q_hat = q + h * B^T sigma(B p + b)
        p_new = p - h * C^T sigma(C q_hat + c)

    The step is symplectic for every h, so its Jacobian J satisfies
    J^T S J = S (S the canonical skew form) and ||J||_2 >= 1: stacks of
    these blocks cannot attenuate gradients.
    """

    kind = "hamiltonian"
    param_names = ("kin_weight", "kin_bias", "pot_weight", "pot_bias")
    checkpoint_attrs = (("h", float), ("activation", str))

    def __init__(self, kin_weight, kin_bias, pot_weight, pot_bias, h,
                 activation="tanh"):
        self.kin_weight = np.array(kin_weight, dtype=float)  # (d, d), acts on p
        self.kin_bias = np.array(kin_bias, dtype=float)
        self.pot_weight = np.array(pot_weight, dtype=float)  # (d, d), acts on q_hat
        self.pot_bias = np.array(pot_bias, dtype=float)
        if self.kin_weight.ndim != 2:
            raise InvalidInputError(
                f"kin_weight must be a (d, d) matrix, got shape {self.kin_weight.shape}")
        d = self.kin_weight.shape[1]
        for name, arr, shape in (("kin_weight", self.kin_weight, (d, d)),
                                 ("pot_weight", self.pot_weight, (d, d)),
                                 ("kin_bias", self.kin_bias, (d,)),
                                 ("pot_bias", self.pot_bias, (d,))):
            if arr.shape != shape:
                raise InvalidInputError(f"{name} must have shape {shape}, got {arr.shape}")
        if h <= 0:
            raise InvalidInputError(f"h must be positive, got {h}")
        if activation not in ACTIVATIONS:
            raise InvalidInputError(f"unknown activation {activation!r}")
        self.h = float(h)
        self.activation = activation

    @classmethod
    def random(cls, half_dim, rng, h=1.0, activation="tanh"):
        return cls(uniform_init(rng, half_dim, half_dim),
                   uniform_bias(rng, half_dim, half_dim),
                   uniform_init(rng, half_dim, half_dim),
                   uniform_bias(rng, half_dim, half_dim),
                   h=h, activation=activation)

    @property
    def dim_in(self):
        return 2 * self.kin_weight.shape[1]

    dim_out = dim_in

    def _forward(self, xs, keep_cache):
        act, _ = ACTIVATIONS[self.activation]
        if xs.shape[1] % 2 != 0:
            raise InvalidInputError(
                f"hamiltonian block needs an even input dimension, got {xs.shape[1]}")
        d = self.kin_weight.shape[1]
        if xs.shape[1] != 2 * d:
            raise InvalidInputError(f"expected dimension {2 * d}, got {xs.shape[1]}")
        q, p = xs[:, :d], xs[:, d:]
        z1 = p @ self.kin_weight.T + self.kin_bias
        q_hat = q + self.h * act(z1) @ self.kin_weight
        z2 = q_hat @ self.pot_weight.T + self.pot_bias
        p_new = p - self.h * act(z2) @ self.pot_weight
        y = np.concatenate([q_hat, p_new], axis=1)
        return y, {"p": p, "q_hat": q_hat, "z1": z1, "z2": z2}

    def _backward(self, cache, g, params):
        act, act_prime = ACTIVATIONS[self.activation]
        d = self.kin_weight.shape[1]
        v, u = g[:, :d], g[:, d:]  # upstream on (q_hat, p_new)
        p, q_hat, z1, z2 = cache["p"], cache["q_hat"], cache["z1"], cache["z2"]
        d1, d2 = act_prime(z1), act_prime(z2)
        # total gradient reaching q_hat: explicit part plus the p_new path
        cu = d2 * (u @ self.pot_weight.T)
        w = v - self.h * cu @ self.pot_weight
        bw = d1 * (w @ self.kin_weight.T)
        grads = None
        if params:
            grads = {
                "pot_weight": -self.h * (act(z2).T @ u + cu.T @ q_hat),
                "pot_bias": -self.h * cu.sum(axis=0),
                "kin_weight": self.h * (act(z1).T @ w + bw.T @ p),
                "kin_bias": self.h * bw.sum(axis=0),
            }
        gq = w
        gp = u + self.h * bw @ self.kin_weight
        return np.concatenate([gq, gp], axis=1), grads

    def lipschitz_bound(self):
        bn = linalg.spectral_norm_oracle(self.kin_weight)
        cn = linalg.spectral_norm_oracle(self.pot_weight)
        return (1.0 + self.h * bn * bn) * (1.0 + self.h * cn * cn)


class LinearLayer(Block):
    """Affine map W x + b."""

    kind = "linear"
    param_names = ("weight", "bias")

    def __init__(self, weight, bias):
        self.weight = np.array(weight, dtype=float)
        self.bias = np.array(bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise InvalidInputError("weight must be (out, in) with an out-dimensional bias")

    @classmethod
    def random(cls, dim_in, dim_out, rng):
        return cls(uniform_init(rng, dim_out, dim_in), uniform_bias(rng, dim_out, dim_in))

    @property
    def dim_in(self):
        return self.weight.shape[1]

    @property
    def dim_out(self):
        return self.weight.shape[0]

    def _forward(self, xs, keep_cache):
        return xs @ self.weight.T + self.bias, {"x": xs}

    def _backward(self, cache, g, params):
        grads = {"weight": g.T @ cache["x"], "bias": g.sum(axis=0)} if params else None
        return g @ self.weight, grads

    def lipschitz_bound(self):
        return linalg.spectral_norm(self.weight)


class LiftLayer(Block):
    """Appends zeros to reach a higher dimension; exactly norm-preserving."""

    kind = "lift"
    checkpoint_attrs = (("dim_in", int), ("dim_out", int))

    def __init__(self, dim_in, dim_out):
        if dim_out < dim_in:
            raise InvalidInputError(f"lift cannot shrink: {dim_in} -> {dim_out}")
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)

    def _forward(self, xs, keep_cache):
        out = np.zeros((xs.shape[0], self.dim_out))
        out[:, :self.dim_in] = xs
        return out, None

    def _backward(self, cache, g, params):
        return g[:, :self.dim_in].copy(), {}

    def lipschitz_bound(self):
        return 1.0


class ProjectLayer(Block):
    """Keeps the leading coordinates; non-expansive by construction."""

    kind = "project"
    checkpoint_attrs = (("dim_in", int), ("dim_out", int))

    def __init__(self, dim_in, dim_out):
        if dim_out > dim_in:
            raise InvalidInputError(f"projection cannot grow: {dim_in} -> {dim_out}")
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)

    def _forward(self, xs, keep_cache):
        return xs[:, :self.dim_out].copy(), None

    def _backward(self, cache, g, params):
        out = np.zeros((g.shape[0], self.dim_in))
        out[:, :self.dim_out] = g
        return out, {}

    def lipschitz_bound(self):
        return 1.0


class ClampedScale(Block):
    """Learnable scalar multiplier whose effective value is clamped to
    [-bound, bound], capping the Lipschitz constant of the whole network."""

    kind = "scale"
    param_names = ("value",)
    checkpoint_attrs = (("dim", int), ("bound", float))

    def __init__(self, dim, value=1.0, bound=1.0):
        if bound <= 0:
            raise InvalidInputError(f"bound must be positive, got {bound}")
        self.dim = self.dim_in = self.dim_out = int(dim)
        self.value = np.array(value, dtype=float).reshape(-1)
        if self.value.shape != (1,):
            raise InvalidInputError(f"value must be one number, got shape {np.shape(value)}")
        self.bound = float(bound)

    def effective_scale(self):
        return float(np.clip(self.value[0], -self.bound, self.bound))

    def clamp(self):
        """Clamp the stored parameter in place (applied after optimiser steps)."""
        self.value[0] = self.effective_scale()

    def _forward(self, xs, keep_cache):
        return self.effective_scale() * xs, {"x": xs}

    def _backward(self, cache, g, params):
        grads = None
        if params:
            inside = abs(self.value[0]) <= self.bound
            grads = {"value": np.array([float(np.sum(g * cache["x"])) if inside else 0.0])}
        return self.effective_scale() * g, grads

    def lipschitz_bound(self):
        return abs(self.effective_scale())


@dataclass
class NetworkCache:
    version: int
    block_caches: list


class Network:
    """Ordered block composition with reverse-mode gradients.

    Parameter arrays are shared live with the optimiser; after mutating them
    call :meth:`mark_params_updated` so stale caches are rejected.
    """

    def __init__(self, blocks, lipschitz_budget=None):
        blocks = list(blocks)
        for left, right in zip(blocks, blocks[1:]):
            if left.dim_out != right.dim_in:
                raise InvalidInputError(
                    f"incompatible blocks: {left.kind} emits {left.dim_out}, "
                    f"{right.kind} expects {right.dim_in}")
        self.blocks = blocks
        self.lipschitz_budget = lipschitz_budget
        self._version = 0

    @property
    def dim_in(self):
        return self.blocks[0].dim_in

    @property
    def dim_out(self):
        return self.blocks[-1].dim_out

    def __len__(self):
        return len(self.blocks)

    def mark_params_updated(self):
        self._version += 1

    def parameters(self):
        """Live (block_index, name, array) triples in a stable order."""
        out = []
        for i, block in enumerate(self.blocks):
            for name, arr in block.params().items():
                out.append((i, name, arr))
        return out

    def nonexpansive_blocks(self):
        return [b for b in self.blocks if isinstance(b, NonExpansiveBlock)]

    def forward(self, x, start=0, stop=None):
        stop = len(self.blocks) if stop is None else stop
        for block in self.blocks[start:stop]:
            x = block.forward(x)
        return x

    def states(self, x):
        """All intermediate states: states[i] enters block i; states[-1] is the output."""
        out = [np.asarray(x, dtype=float)]
        for block in self.blocks:
            out.append(block.forward(out[-1]))
        return out

    def forward_with_cache(self, x, start=0, stop=None):
        stop = len(self.blocks) if stop is None else stop
        caches = []
        for block in self.blocks[start:stop]:
            x, cache = block.forward_with_cache(x)
            caches.append((block, cache))
        return x, NetworkCache(version=self._version, block_caches=caches)

    def backward(self, cache, grad_out, params=True):
        """Gradients of a scalar loss wrt the input and every parameter.

        Returns (input_gradient, grads) with grads[i] the dict for block i of
        the cached range (empty dict for parameter-free blocks).  With
        ``params=False`` no block computes parameter gradients and grads is
        None.
        """
        if cache.version != self._version:
            raise InvalidStateError(
                "stale cache: parameters changed since the forward pass")
        grads = [None] * len(cache.block_caches)
        g = grad_out
        for i in range(len(cache.block_caches) - 1, -1, -1):
            block, block_cache = cache.block_caches[i]
            g, grads[i] = block.backward(block_cache, g, params)
        return g, (grads if params else None)


def jacobian_norm_probe(net, x, from_layer, to_layer, iterations=50,
                        fd_step=1e-7):
    """Spectral norm of d(state at to_layer) / d(state at from_layer) at the
    orbit of ``x``, by power iteration on J^T J.

    J v uses a forward difference of the sub-network; J^T u uses the exact
    hand-derived backward pass.
    """
    if not (0 <= from_layer <= to_layer <= len(net.blocks)):
        raise InvalidInputError(
            f"invalid layer range [{from_layer}, {to_layer}] for {len(net.blocks)} blocks")
    states = net.states(x)
    x_from = np.asarray(states[from_layer], dtype=float)
    if from_layer == to_layer:
        return 1.0
    f0 = net.forward(x_from, from_layer, to_layer)
    delta = fd_step * (1.0 + float(np.max(np.abs(x_from))))

    _, cache = net.forward_with_cache(x_from, from_layer, to_layer)

    def jv(v):
        return (net.forward(x_from + delta * v, from_layer, to_layer) - f0) / delta

    def jtu(u):
        g, _ = net.backward(cache, u, params=False)
        return g

    v = linalg.counter_seeded_unit(x_from.shape[0], 0)
    for _ in range(iterations):
        w = jtu(jv(v))
        wn = np.linalg.norm(w)
        if wn == 0.0:
            return 0.0
        v = w / wn
    return float(np.sqrt(np.linalg.norm(jtu(jv(v)))))


# --- checkpoints -----------------------------------------------------------
#
# A checkpoint directory holds manifest.txt plus one text file per parameter
# in the linalg matrix format.  The manifest is a "stableflow-network <count>"
# header, an optional "lipschitz_budget <value>" line, then one line per block:
#     <index> <kind> <attr>=<value> ... shape_<param>=<dims> ...
# with the kind's checkpoint_attrs, then its params() as block<index>_<param>.txt.

BLOCK_KINDS = {cls.kind: cls for cls in (
    NonExpansiveBlock, ResidualBlock, MLPLayer, HamiltonianBlock,
    LinearLayer, LiftLayer, ProjectLayer, ClampedScale)}


def save_network(net, directory):
    os.makedirs(directory, exist_ok=True)
    lines = [f"stableflow-network {len(net.blocks)}"]
    if net.lipschitz_budget is not None:
        lines.append(f"lipschitz_budget {linalg.format_entry(net.lipschitz_budget)}")
    for i, block in enumerate(net.blocks):
        words = [f"{i}", block.kind]
        for name, parse in block.checkpoint_attrs:
            value = getattr(block, name)
            words.append(f"{name}={linalg.format_entry(value) if parse is float else value}")
        for name, arr in block.params().items():
            words.append(f"shape_{name}={'x'.join(str(s) for s in arr.shape)}")
            save = linalg.save_vector if arr.ndim == 1 else linalg.save_matrix
            save(os.path.join(directory, f"block{i}_{name}.txt"), arr)
        lines.append(" ".join(words))
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(directory):
    """Rebuild a saved network through the block constructors, whose checks
    screen the checkpoint; a malformed manifest raises InvalidInputError."""
    path = os.path.join(directory, "manifest.txt")
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    try:
        if not lines or len(lines[0]) != 2 or lines[0][0] != "stableflow-network":
            raise InvalidInputError("not a network checkpoint")
        body = lines[1:]
        budget = None
        if body and body[0][0] == "lipschitz_budget":
            _, value = body.pop(0)
            budget = float(value)
        if int(lines[0][1]) != len(body):
            raise InvalidInputError(
                f"the header counts {lines[0][1]} blocks, the manifest lists {len(body)}")
        blocks = [_load_block(directory, i, words) for i, words in enumerate(body)]
        return Network(blocks, lipschitz_budget=budget)
    # a number or attribute word that does not parse raises ValueError
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _load_block(directory, index, words):
    if len(words) < 2 or words[0] != str(index) or words[1] not in BLOCK_KINDS:
        raise InvalidInputError(f"block line {' '.join(words)!r} should read '{index} "
                                f"<kind> ...' with a kind in {sorted(BLOCK_KINDS)}")
    cls = BLOCK_KINDS[words[1]]
    attrs = dict(word.split("=", 1) for word in words[2:])
    missing = [name for name, _ in cls.checkpoint_attrs if name not in attrs]
    if missing:
        raise InvalidInputError(f"block {index} ({cls.kind}) lacks {', '.join(missing)}")
    kwargs = {name: parse(attrs[name]) for name, parse in cls.checkpoint_attrs}
    n_steps = kwargs.pop("n_steps", None)  # block state, not a constructor argument
    names = [key[len("shape_"):] for key in attrs if key.startswith("shape_")]
    if names != list(cls.param_names):
        raise InvalidInputError(f"block {index} ({cls.kind}) stores parameters "
                                f"{names}, not {list(cls.param_names)}")
    params = {}
    for name in names:
        load = linalg.load_matrix if "x" in attrs[f"shape_{name}"] else linalg.load_vector
        params[name] = load(os.path.join(directory, f"block{index}_{name}.txt"))
    block = cls(**params, **kwargs)
    if n_steps is not None:
        block.n_steps = n_steps
    return block
