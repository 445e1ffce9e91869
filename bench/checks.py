"""Output checks computed apart from stableflow.

Everything here reads the program's files with its own parsers (IDX,
checkpoint manifests, matrix text files, CSVs), runs its own numpy forward
pass and takes spectral norms from LAPACK (``np.linalg.norm(W, 2)``).  No
function of stableflow is called, so a fault in the program cannot hide
itself by also breaking the check.

Every ``check_*`` function returns a list of problems; an empty list means
the outputs passed.
"""

import os
import struct

import numpy as np

# slack for round-off when comparing a float the program printed with one
# recomputed here
REL_TOL = 1e-9


# --- readers -----------------------------------------------------------------

def read_csv(path):
    """Rows of floats of a numeric CSV, header skipped."""
    with open(path) as fh:
        width = len(fh.readline().split(","))
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return np.array(rows, dtype=float).reshape(len(rows), width)


def read_idx(path):
    """Unsigned-byte IDX file -> ndarray of its declared shape."""
    with open(path, "rb") as fh:
        raw = fh.read()
    ndim = raw[3]
    dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
    return np.frombuffer(raw, dtype=np.uint8, offset=4 + 4 * ndim).reshape(dims)


def pool_rows(images, factor=2):
    """uint8 (n, H, W) -> [0, 1] rows after factor x factor average pooling."""
    x = images.astype(float) / 255.0
    n, h, w = x.shape
    x = x.reshape(n, h // factor, factor, w // factor, factor).mean(axis=(2, 4))
    return x.reshape(n, -1)


def read_matrix(path):
    with open(path) as fh:
        rows, cols = (int(v) for v in fh.readline().split())
        values = [float(v) for line in fh for v in line.split()]
    return np.array(values, dtype=float).reshape(rows, cols)


class Checkpoint:
    """A network checkpoint directory: budget plus (kind, attrs, params) per block."""

    def __init__(self, directory):
        with open(os.path.join(directory, "manifest.txt")) as fh:
            lines = [ln.split() for ln in fh if ln.strip()]
        self.budget = None
        self.blocks = []
        for parts in lines[1:]:
            if parts[0] == "lipschitz_budget":
                self.budget = float(parts[1])
                continue
            index, kind = int(parts[0]), parts[1]
            attrs = dict(p.split("=", 1) for p in parts[2:])
            params = {}
            for key, shape in attrs.items():
                if key.startswith("shape_"):
                    name = key[len("shape_"):]
                    arr = read_matrix(os.path.join(directory, f"block{index}_{name}.txt"))
                    params[name] = arr.reshape([int(s) for s in shape.split("x")])
            self.blocks.append((kind, attrs, params))

    @property
    def dim_in(self):
        kind, attrs, params = self.blocks[0]
        return int(attrs["dim_in"]) if kind == "lift" else params["weight"].shape[1]

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        for kind, attrs, p in self.blocks:
            if kind == "nonexpansive":
                n = int(attrs["n_steps"])
                h = float(attrs["total_time"]) / n
                for _ in range(n):
                    x = x - h * np.maximum(x @ p["weight"].T + p["bias"], 0.0) @ p["weight"]
            elif kind == "residual":
                x = x + float(attrs["h"]) * (
                    np.maximum(x @ p["weight_in"].T + p["bias"], 0.0) @ p["weight_out"].T)
            elif kind == "linear":
                x = x @ p["weight"].T + p["bias"]
            elif kind == "lift":
                x = np.concatenate(
                    [x, np.zeros((x.shape[0], int(attrs["dim_out"]) - x.shape[1]))], axis=1)
            elif kind == "project":
                x = x[:, :int(attrs["dim_out"])]
            elif kind == "scale":
                x = scale_value(attrs, p) * x
            else:
                raise ValueError(f"no reference forward pass for block kind {kind!r}")
        return x

    def lipschitz_bound(self):
        """Product of per-block bounds built from LAPACK spectral norms."""
        bound = 1.0
        for kind, attrs, p in self.blocks:
            if kind == "nonexpansive":
                n = int(attrs["n_steps"])
                q = float(attrs["total_time"]) / n * norm2(p["weight"]) ** 2
                # the step's Jacobian I - h W^T D W has spectrum in [1 - q, 1]
                bound *= 1.0 if q <= 2.0 else (q - 1.0) ** n
            elif kind == "residual":
                bound *= 1.0 + float(attrs["h"]) * norm2(p["weight_in"]) * norm2(p["weight_out"])
            elif kind == "linear":
                bound *= norm2(p["weight"])
            elif kind == "scale":
                bound *= abs(scale_value(attrs, p))
            elif kind not in ("lift", "project"):
                raise ValueError(f"no reference bound for block kind {kind!r}")
        return bound


def norm2(a):
    return float(np.linalg.norm(a, 2))


def scale_value(attrs, params):
    bound = float(attrs["bound"])
    return float(np.clip(params["value"][0], -bound, bound))


# --- checks --------------------------------------------------------------------

def check_step_constraint(ckpt, label):
    """Every non-expansive block takes steps with h * sigma_max(W)^2 <= 2."""
    problems = []
    for i, (kind, attrs, p) in enumerate(ckpt.blocks):
        if kind != "nonexpansive":
            continue
        q = float(attrs["total_time"]) / int(attrs["n_steps"]) * norm2(p["weight"]) ** 2
        if q > 2.0 + 1e-12:
            problems.append(f"{label}: block {i} has h*sigma^2 = {q:.4g} > 2")
    return problems


def check_pair_ratio(ckpt, label, rng, n_pairs=10000):
    """Empirical Lipschitz ratio over random pairs stays within the budget:
    half far pairs over [-10, 10]^d, half pairs 1e-3 apart."""
    d = ckpt.dim_in
    half = n_pairs // 2
    xs = rng.uniform(-10, 10, (n_pairs, d))
    ys = np.concatenate([rng.uniform(-10, 10, (half, d)),
                         xs[half:] + 1e-3 * rng.standard_normal((n_pairs - half, d))])
    gap_in = np.linalg.norm(xs - ys, axis=1)
    gap_out = np.linalg.norm(ckpt.forward(xs) - ckpt.forward(ys), axis=1)
    ratio = float(np.max(gap_out / gap_in))
    if ratio > ckpt.budget * (1.0 + REL_TOL):
        return [f"{label}: pair ratio {ratio:.6g} exceeds budget {ckpt.budget:.6g}"]
    return []


def check_verify(verify_dir, ckpt, label):
    """verify's spectral norms match LAPACK, its empirical ratio stays under
    its composed bound, and that bound is no lower than one composed here."""
    problems = []
    with open(os.path.join(verify_dir, "verify_spectral.csv")) as fh:
        spectral = [line.strip().split(",") for line in list(fh)[1:] if line.strip()]
    for block, param, norm, *_ in spectral:
        lapack = norm2(ckpt.blocks[int(block)][2][param])
        if abs(float(norm) - lapack) > 1e-6 * lapack:
            problems.append(f"{label}: block {block} {param} norm {norm} != LAPACK {lapack!r}")
    if len(spectral) != sum(a.ndim == 2 for _, _, p in ckpt.blocks for a in p.values()):
        problems.append(f"{label}: verify_spectral.csv has {len(spectral)} rows")
    lip = read_csv(os.path.join(verify_dir, "verify_lipschitz.csv"))
    _, max_ratio, composed, _, _ = lip[0]
    if max_ratio > composed * (1.0 + REL_TOL):
        problems.append(f"{label}: max_ratio {max_ratio:.6g} > composed_bound {composed:.6g}")
    reference = ckpt.lipschitz_bound()
    if composed < reference * (1.0 - REL_TOL):
        problems.append(f"{label}: composed_bound {composed:.6g} is below the "
                        f"LAPACK-composed bound {reference:.6g}")
    return problems


def check_robust(out_dir, seed, test_images_path, test_labels_path, clean_floor=0.80):
    """Clean accuracy recomputed from the checkpoints equals the epsilon=0 row
    and clears the floor, and the non-expansive network's robust accuracy
    never drops below the share of rows certified at each epsilon.

    The certificate divides the margin by twice the Lipschitz bound composed
    from LAPACK norms: sigma_max of the readout when every block meets
    h * sigma^2 <= 2.  The step constraint itself is not required here,
    because training saves some seeds' checkpoints with h * sigma^2 a few
    percent above 2 (CHANGES.md, FOUND)."""
    problems = []
    x = pool_rows(read_idx(test_images_path))
    labels = read_idx(test_labels_path).astype(int)
    for arch in ("nonexpansive", "resnet"):
        label = f"robust {arch} seed {seed}"
        table = read_csv(os.path.join(out_dir, f"robust_accuracy_{arch}_seed{seed}.csv"))
        ckpt = Checkpoint(os.path.join(out_dir, f"{arch}_seed{seed}"))
        logits = ckpt.forward(x)
        hit = np.argmax(logits, axis=1) == labels
        clean = float(np.mean(hit))
        if table[0, 0] != 0.0 or table[0, 1] != clean or table[0, 2] != len(labels):
            problems.append(f"{label}: epsilon=0 row {table[0].tolist()} != "
                            f"recomputed ({clean!r}, n={len(labels)})")
        if clean < clean_floor:
            problems.append(f"{label}: clean accuracy {clean:.3f} < {clean_floor}")
        if arch != "nonexpansive":
            continue
        top2 = np.sort(logits, axis=1)[:, -2:]
        radius = (top2[:, 1] - top2[:, 0]) / (2.0 * ckpt.lipschitz_bound())
        for eps, acc, _ in table[1:]:
            floor = float(np.mean(hit & (radius > eps)))
            if acc < floor:
                problems.append(f"{label}: accuracy {acc} at epsilon {eps} is below "
                                f"the certified share {floor}")
    return problems


def check_inverse(out_dir, seed, labels_budgets, epsilon=0.25):
    """Tikhonov curves against the closed form and LAPACK, tau_star against
    the tuning curve, and each checkpoint against its budget."""
    problems = []
    a = np.array([[1.0 + epsilon, 1.0], [1.0, 1.0 + epsilon]])
    s = np.linalg.svd(a, compute_uv=False)
    lip = read_csv(os.path.join(out_dir, f"tikhonov_lipschitz_seed{seed}.csv"))
    for tau, value in lip:
        closed = float(np.max(s / (s * s + tau)))
        lapack = norm2(np.linalg.solve(a.T @ a + tau * np.eye(2), a.T))
        if abs(value - closed) > REL_TOL * closed or abs(value - lapack) > REL_TOL * lapack:
            problems.append(f"inverse seed {seed}: L({tau!r}) = {value!r}, closed form "
                            f"{closed!r}, LAPACK {lapack!r}")
    tuning = read_csv(os.path.join(out_dir, f"tikhonov_tuning_seed{seed}.csv"))
    summary = read_csv(os.path.join(out_dir, f"inverse_summary_seed{seed}.csv"))
    tau_star, l_star = summary[0, 0], summary[0, 1]
    expected = float(np.max(tuning[tuning[:, 1] == np.min(tuning[:, 1]), 0]))
    if tau_star != expected:
        problems.append(f"inverse seed {seed}: tau_star {tau_star!r} is not the largest "
                        f"minimiser {expected!r} of the tuning curve")
    if abs(l_star - float(np.max(s / (s * s + tau_star)))) > REL_TOL * l_star:
        problems.append(f"inverse seed {seed}: l_star {l_star!r} != L(tau_star)")
    rng = np.random.default_rng(seed)
    for label, mult in labels_budgets:
        name = f"invnet {label} seed {seed}"
        ckpt = Checkpoint(os.path.join(out_dir, f"invnet_{label}_seed{seed}"))
        if abs(ckpt.budget - mult * l_star) > REL_TOL * ckpt.budget:
            problems.append(f"{name}: budget {ckpt.budget!r} != {mult} * l_star")
        scales = [scale_value(at, p) for kind, at, p in ckpt.blocks if kind == "scale"]
        if len(scales) != 1 or abs(scales[0]) > ckpt.budget:
            problems.append(f"{name}: scale {scales} outside budget {ckpt.budget!r}")
        problems += check_step_constraint(ckpt, name)
        problems += check_pair_ratio(ckpt, name, rng)
    return problems


def check_lyapunov(out_dir, seed, n_trajectories, traj_steps, decay):
    """The potential is >= 0 along every trajectory and ends at most 5% above
    ``decay`` (e^(-mu T)) times its start, the decrease the projected field
    guarantees in continuous time.

    Single Euler steps are not required to decrease V: on some seeds V rises
    by up to ~4e-7 between steps (CHANGES.md, FOUND)."""
    rows = read_csv(os.path.join(out_dir, f"lyapunov_v_series_seed{seed}.csv"))
    if rows.shape[0] != n_trajectories * (traj_steps + 1):
        return [f"lyapunov seed {seed}: {rows.shape[0]} V rows, expected "
                f"{n_trajectories * (traj_steps + 1)}"]
    v = rows[:, 2].reshape(n_trajectories, traj_steps + 1)
    problems = []
    if np.any(rows[:, 0].reshape(v.shape) != np.arange(n_trajectories)[:, None]):
        problems.append(f"lyapunov seed {seed}: trajectory column out of order")
    if np.min(v) < 0.0:
        problems.append(f"lyapunov seed {seed}: V reaches {np.min(v)!r} < 0")
    ratio = v[:, -1] / v[:, 0]
    if np.max(ratio) > 1.05 * decay:
        problems.append(f"lyapunov seed {seed}: trajectory {int(np.argmax(ratio))} "
                        f"decays V by only {np.max(ratio):.4g}, not {decay:.4g}")
    return problems
