import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def fd_input_gradient(func, x, step=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (func(x + e) - func(x - e)) / (2.0 * step)
    return grad


def fd_param_gradient(func, arr, step=1e-5):
    """Central-difference gradient of a scalar function wrt an array that the
    function reads live (perturbed in place entry by entry)."""
    flat = arr.reshape(-1)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        up = func()
        flat[i] = old - step
        down = func()
        flat[i] = old
        grad[i] = (up - down) / (2.0 * step)
    return grad.reshape(arr.shape)


def fd_jacobian(func, x, step=1e-5):
    """Central-difference Jacobian of a vector map."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        jac[:, j] = (np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2 * step)
    return jac


def max_rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))))


def block_gradient_check(block, x, weights, step=1e-5):
    """Compare a block's analytic input/parameter gradients of the linear
    functional sum(weights * forward(x)) against central differences, the
    input gradient from both the full and the input-only backward.
    Returns the worst relative error."""
    x = np.asarray(x, dtype=float)
    y, cache = block.forward_with_cache(x)
    upstream = np.broadcast_to(weights, np.shape(y)).copy()
    grad_in, grads = block.backward(cache, upstream)
    grad_in_only, no_grads = block.backward(cache, upstream, params=False)
    assert no_grads is None

    def loss_of_input(flat):
        return float(np.sum(block.forward(flat.reshape(x.shape)) * weights))

    fd_in = fd_input_gradient(loss_of_input, x.ravel(), step).reshape(x.shape)
    worst = max(max_rel_err(fd_in, grad_in), max_rel_err(fd_in, grad_in_only))

    def loss_now():
        return float(np.sum(block.forward(x) * weights))

    for name, arr in block.params().items():
        worst = max(worst, max_rel_err(fd_param_gradient(loss_now, arr, step),
                                       grads[name]))
    return worst


def nonexpansive_reference(block, x, grad_out):
    """A non-expansive block's sub-steps run on x itself, as the definition
    reads: x <- x - h W^T relu(W x + b), each sub-step pulled back in turn.
    Returns the output, the input gradient and the parameter gradients of
    the functional sum(grad_out * forward(x)), for a vector or rows."""
    xs, g = np.atleast_2d(x), np.atleast_2d(grad_out)
    w, b = block.weight, block.bias
    h = block.total_time / block.n_steps
    steps = []
    for _ in range(block.n_steps):
        z = xs @ w.T + b
        steps.append((xs, z))
        xs = xs - h * np.maximum(z, 0.0) @ w
    gw, gb = np.zeros_like(w), np.zeros_like(b)
    for x_in, z in reversed(steps):
        mask = z > 0
        mg = np.where(mask, g @ w.T, 0.0)
        gw -= h * (np.where(mask, z, 0.0).T @ g + mg.T @ x_in)
        gb -= h * mg.sum(axis=0)
        g = g - h * mg @ w
    return xs.reshape(np.shape(x)), g.reshape(np.shape(x)), {"weight": gw, "bias": gb}


def canonical_skew(d):
    """The 2d x 2d canonical symplectic form [[0, I], [-I, 0]]."""
    top = np.hstack([np.zeros((d, d)), np.eye(d)])
    bottom = np.hstack([-np.eye(d), np.zeros((d, d))])
    return np.vstack([top, bottom])


def gapped_matrix(rng, rows, cols, top=3.0, gap=0.5):
    """Random matrix with a controlled singular spectrum: top singular value
    ``top``, the rest at most ``top - gap``."""
    k = min(rows, cols)
    q1, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    q2, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.zeros((rows, cols))
    values = np.sort(rng.uniform(0.05, top - gap, size=k))[::-1]
    values[0] = top
    np.fill_diagonal(s, values)
    return q1 @ s @ q2
