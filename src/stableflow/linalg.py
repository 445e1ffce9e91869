"""Dense linear-algebra kernels shared by every other module.

Matrices are 2-d float64 arrays in row-major layout, vectors are 1-d
float64 arrays treated as column vectors.  Everything here is a pure
function of its inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Below this, ||A^T A u|| is treated as zero and the iterate is re-seeded.
_RESEED_FLOOR = 1e-30


@dataclass
class SpectralEstimate:
    """Result of :func:`power_method`, which can be warm-started from it.

    ``vector`` is the unit-norm estimate of the top right singular vector;
    ``norm`` estimates the spectral norm and converges to it from below.
    """

    vector: np.ndarray
    norm: float


def as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def as_vector(v, name="vector"):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return v


def counter_seeded_unit(dim, counter):
    """Deterministic unit vector from a counter-based generator (Philox)."""
    rng = np.random.Generator(np.random.Philox(key=counter))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def power_method(a, u0, k):
    """Estimate the spectral norm of ``a`` by ``k`` iterations of
    u <- A^T A u / ||A^T A u||, started from ``u0``.

    Returns a :class:`SpectralEstimate` whose norm is sqrt(||A^T A u_k||),
    which converges to ||A||_2 when u0 is not orthogonal to the top right
    singular vector.  A (numerically) null iterate is re-seeded from a
    deterministic counter-based draw.
    """
    a = as_matrix(a)
    u = as_vector(u0, "u0")
    if u.shape[0] != a.shape[1]:
        raise InvalidInputError(
            f"u0 has dimension {u.shape[0]}, expected {a.shape[1]} (columns of A)"
        )
    if k < 1:
        raise InvalidInputError(f"iteration count must be >= 1, got {k}")
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise InvalidInputError("u0 must be nonzero")
    u = u / nrm
    reseeds = 0
    for _ in range(int(k)):
        w = a.T @ (a @ u)
        wn = np.linalg.norm(w)
        if wn < _RESEED_FLOOR:
            u = counter_seeded_unit(u.shape[0], reseeds)
            reseeds += 1
            continue
        u = w / wn
    w = a.T @ (a @ u)
    wn = np.linalg.norm(w)
    if wn < _RESEED_FLOOR:
        return SpectralEstimate(vector=u, norm=0.0)
    return SpectralEstimate(vector=u, norm=float(np.sqrt(wn)))


def spectral_norm(a):
    """||a||_2, the square root of the top eigenvalue of the smaller Gram
    matrix (a a^T or a^T a) from LAPACK's symmetric eigensolver.

    The one source of sigma_max behind the sub-step counts, the non-expansive
    and linear Lipschitz bounds, and ``verify``'s step check.
    """
    a = as_matrix(a)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))


def matrix_exponential(a):
    """exp(a) by scaling-and-squaring with a truncated power series."""
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise InvalidInputError(f"matrix exponential needs a square matrix, got {a.shape}")
    # scale so the series argument has 1-norm <= 0.5
    norm1 = float(np.max(np.sum(np.abs(a), axis=0)))
    squarings = 0 if norm1 <= 0.5 else int(np.ceil(np.log2(norm1 / 0.5)))
    b = a / (2.0 ** squarings)
    result = np.eye(n)
    term = np.eye(n)
    for j in range(1, 60):
        term = term @ b / j
        result = result + term
        if np.max(np.abs(term)) <= np.finfo(float).eps * np.max(np.abs(result)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def _round_robin_pairs(n):
    """The rounds of one Jacobi sweep over an n x n matrix, as (p, q) index
    arrays with p < q.

    Round-robin (Brent & Luk) order: each index meets every other exactly
    once per sweep, and the pairs of one round are disjoint.  An odd ``n``
    gets a phantom index ``n`` whose partner sits the round out.
    """
    m = n + n % 2
    players = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        a, b = players[:m // 2], players[m // 2:][::-1]
        p, q = np.minimum(a, b), np.maximum(a, b)
        keep = q < n
        rounds.append((p[keep], q[keep]))
        # circle method: the first index stays, the others move one seat on
        players = np.concatenate((players[:1], players[-1:], players[1:-1]))
    return rounds


def jacobi_eigenvalues(s, tol=1e-12, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by Jacobi sweeps in round-robin
    order.

    Each sweep is ``n - 1`` rounds (``n`` for odd ``n``) of disjoint
    ``(p, q)`` pairs.  Rotations on disjoint pairs commute, so a round
    computes all its rotations from the same matrix and applies them as
    whole-array row operations, first on ``w`` and then on its transpose.
    Sweeps run until the off-diagonal Frobenius norm drops below
    ``tol * max(1, ||s||_F)``.  Used as an eigensolver oracle in tests and
    for the one-sided Lipschitz estimate; independent of the power method.
    """
    s = as_matrix(s)
    n, m = s.shape
    if n != m:
        raise InvalidInputError(f"eigensolver needs a square matrix, got {s.shape}")
    if np.max(np.abs(s - s.T)) > 1e-10 * max(1.0, np.max(np.abs(s))):
        raise InvalidInputError("eigensolver needs a symmetric matrix")
    w = 0.5 * (s + s.T)  # kill roundoff asymmetry
    if n == 1:
        return w[0].copy()
    threshold = tol * max(1.0, float(np.linalg.norm(w)))
    rounds = _round_robin_pairs(n)
    for _ in range(max_sweeps):
        # the norm of the off-diagonal part itself: ||w||^2 - ||diag||^2
        # cancels to a floor near sqrt(eps) * ||w||, far above threshold
        if np.linalg.norm(w - np.diag(np.diag(w))) <= threshold:
            break
        for p, q in rounds:
            apq = w[p, q]
            active = np.abs(apq) > threshold / (n * n)
            if not active.any():
                continue
            p, q, apq = p[active], q[active], apq[active]
            theta = (w[q, q] - w[p, p]) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t[theta == 0.0] = 1.0
            c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
            sn = t[:, None] * c
            # rows of w, then rows of w^T: the column rotation with
            # contiguous gathers.  The result is symmetric up to roundoff,
            # so its transpose is carried on as w.
            _rotate_rows(w, p, q, c, sn)
            w = w.T.copy()
            _rotate_rows(w, p, q, c, sn)
    return np.sort(np.diag(w))


def _rotate_rows(w, p, q, c, sn):
    """Rows p, q of w <- (c w_p - s w_q, s w_p + c w_q), in place, for
    every pair at once."""
    wp, wq = w[p], w[q]
    w[p] = c * wp - sn * wq
    w[q] = sn * wp + c * wq


def spectral_norm_oracle(a):
    """||a||_2 from a symmetric eigensolve of A^T A (test oracle)."""
    a = as_matrix(a)
    gram = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    eigenvalues = jacobi_eigenvalues(gram)
    return float(np.sqrt(max(float(eigenvalues[-1]), 0.0)))


def format_entry(x):
    """Shortest decimal representation that round-trips a float64."""
    return repr(float(x))


def write_csv(path, header, rows):
    """CSV writer with round-tripping float formatting (determinism surface):
    floats go through ``format_entry``, everything else through ``str``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format_entry(v) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")
    return path


# Matrices serialise to plain text: "rows cols" on the first line, then one
# row per line with space-separated decimal entries.  Vectors are stored as
# n x 1 matrices.

def save_matrix(path, a):
    a = as_matrix(a)
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        # repr of a Python float is format_entry of the entry, byte for byte
        for row in a.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def load_matrix(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise InvalidInputError(f"{path}: expected 'rows cols' header, got {header!r}")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (rows, cols):
        raise InvalidInputError(
            f"{path}: header promises {rows}x{cols}, file holds {data.shape}"
        )
    return as_matrix(data, name=str(path))


def save_vector(path, v):
    v = as_vector(v)
    save_matrix(path, v[:, None])


def load_vector(path):
    a = load_matrix(path)
    if a.shape[1] != 1:
        raise InvalidInputError(f"{path}: expected a column vector, got shape {a.shape}")
    return a[:, 0]
