"""The four benchmark workloads.

Each workload has one or more draws: independent inputs made from the
benchmark seed.  It writes the inputs in ``setup`` (timed as set-up), lists
the ``stableflow`` subcommands of one round, a round being one draw, in
``ops`` (timed as run time), checks a round's outputs in ``check``
(untimed, see checks.py), and states in ``expected_counts`` what the
counters of one traced cycle over all draws must read, worked out from its
configuration alone.  ``calibration`` names the parts of the reference
kernel (calibrate.py) that resemble the workload's own work.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

import checks

# (checkpoint label, budget as a multiple of the optimal Tikhonov constant),
# as the inverse study trains them
INVNET_BUDGETS = (("third", 1.0 / 3.0), ("optimal", 1.0), ("triple", 3.0))
ROBUST_EPSILONS = 8


@dataclass
class Op:
    argv: list
    # the program is expected to reject this input (exit nonzero); it counts
    # as failed when the program accepts it
    expect_reject: bool = False


def _write_config(path, values):
    with open(path, "w") as fh:
        fh.write("".join(f"{key}={value}\n" for key, value in values.items()))
    return path


class Robust:
    """`stableflow robust` on synthetic glyph corpora written as IDX files:
    train both classifiers, then run the 8-epsilon PGD grid.  Each draw has
    its own corpus and program seed; the sub-step counts that training
    settles on, and with them a round's work, differ between draws."""

    name = "robust"
    calibration = ("dense", "deep")
    DRAWS = 3
    CONFIG = {"n-train": 600, "n-test": 32, "epochs": 4, "n-iter": 12}

    def __init__(self, root, seed):
        self.root = root
        self.draws = [seed * self.DRAWS + k for k in range(self.DRAWS)]

    def _corpus(self, s):
        return os.path.join(self.root, "inputs", f"corpus{s}")

    def setup(self):
        from stableflow import datasets

        for s in self.draws:
            os.makedirs(self._corpus(s), exist_ok=True)
            for split, n, offset in (("train", self.CONFIG["n-train"], 0),
                                     ("test", self.CONFIG["n-test"], 1)):
                images, labels = datasets.synthetic_image_corpus(n, seed=2 * s + offset)
                datasets.save_idx(os.path.join(self._corpus(s), f"{split}-images.idx"), images)
                datasets.save_idx(os.path.join(self._corpus(s), f"{split}-labels.idx"), labels)
        self.config = _write_config(os.path.join(self.root, "inputs", "robust.cfg"),
                                    self.CONFIG)

    def ops(self, out, s):
        corpus = self._corpus(s)
        return [Op(["robust", "--seed", str(s), "--config", self.config, "--out-dir", out]
                   + [arg for split in ("train", "test") for kind in ("images", "labels")
                      for arg in (f"--{split}-{kind}",
                                  os.path.join(corpus, f"{split}-{kind}.idx"))])]

    def check(self, out, s):
        corpus = self._corpus(s)
        return checks.check_robust(out, s, os.path.join(corpus, "test-images.idx"),
                                   os.path.join(corpus, "test-labels.idx"))

    def expected_counts(self):
        c = self.CONFIG
        attacks = self.DRAWS * 2 * ROBUST_EPSILONS * c["n-iter"]
        return {"attacks.param_grads_discarded": attacks,
                "attacks.gradient_rows": attacks * c["n-test"],
                "training.steps": self.DRAWS * 2 * c["epochs"] * math.ceil(c["n-train"] / 128)}


class Inverse:
    """`stableflow inverse` (three Lipschitz budgets, lift 2 -> 10, B = 200),
    then `stableflow verify` on each checkpoint it saved.  Each draw is one
    program seed; the sub-step counts that training climbs to differ
    between draws."""

    name = "inverse"
    calibration = ("dense", "small", "interp")
    DRAWS = 3
    CONFIG = {"iterations": 500}

    def __init__(self, root, seed):
        self.root = root
        self.draws = [seed * self.DRAWS + k for k in range(self.DRAWS)]

    def setup(self):
        os.makedirs(os.path.join(self.root, "inputs"), exist_ok=True)
        self.config = _write_config(os.path.join(self.root, "inputs", "inverse.cfg"),
                                    self.CONFIG)

    @staticmethod
    def _checkpoint(out, s, label):
        return os.path.join(out, "inverse", f"invnet_{label}_seed{s}")

    def ops(self, out, s):
        ops = [Op(["inverse", "--seed", str(s), "--config", self.config,
                   "--out-dir", os.path.join(out, "inverse")])]
        for label, _ in INVNET_BUDGETS:
            ops.append(Op(["verify", "--seed", str(s),
                           "--checkpoint", self._checkpoint(out, s, label),
                           "--out-dir", os.path.join(out, f"verify_{label}")]))
        return ops

    def check(self, out, s):
        problems = checks.check_inverse(os.path.join(out, "inverse"), s, INVNET_BUDGETS)
        for label, _ in INVNET_BUDGETS:
            problems += checks.check_verify(
                os.path.join(out, f"verify_{label}"),
                checks.Checkpoint(self._checkpoint(out, s, label)),
                f"verify invnet {label} seed {s}")
        return problems

    def expected_counts(self):
        return {"training.steps": self.DRAWS * len(INVNET_BUDGETS) * self.CONFIG["iterations"],
                "inverse.grid_search_tau.calls": self.DRAWS,
                "blocks.load_network.calls": self.DRAWS * len(INVNET_BUDGETS),
                "attacks.gradient_rows": 0}


def gapped_matrix(rng, rows, cols, top):
    """Random matrix with largest singular value ``top`` and the rest at most
    0.7 * top, so power iterations converge well within verify's 500."""
    q1, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    q2, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    values = np.sort(rng.uniform(0.05, 0.7, min(rows, cols)))[::-1] * top
    values[0] = top
    return (q1[:, :len(values)] * values) @ q2[:len(values)]


class Certify:
    """`stableflow verify` on 196-wide non-expansive and residual classifier
    checkpoints shaped like those `robust` trains, plus one tampered
    reconstruction-network checkpoint that verify should reject.  The
    residual checkpoint has one block with 128 hidden units, where robust
    trains two with 196: its two Jacobi eigensolves then work on 128 x 128
    Gram matrices, a round stays near four seconds and a run holds several."""

    name = "certify"
    calibration = ("dense", "small", "interp")
    WIDTH, CLASSES, HIDDEN = 196, 10, 128
    # sub-step counts of the two non-expansive blocks, as robust trains them;
    # sigma^2 = 2n - 1 makes n the smallest count with h * sigma^2 <= 2
    N_STEPS = (8, 7)

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.draws = [seed]
        self.paths = {arch: os.path.join(root, "inputs", arch)
                      for arch in ("nonexpansive", "resnet", "tampered")}

    def setup(self):
        from stableflow import blocks, inverse

        rng = np.random.default_rng(self.seed)
        d = self.WIDTH

        def bias(n):
            return rng.uniform(-0.1, 0.1, n)

        def readout():
            return blocks.LinearLayer(gapped_matrix(rng, self.CLASSES, d, 3.0),
                                      bias(self.CLASSES))

        layers = []
        for n in self.N_STEPS:
            block = blocks.NonExpansiveBlock(
                gapped_matrix(rng, d, d, math.sqrt(2 * n - 1)), bias(d))
            block.n_steps = n
            layers.append(block)
        blocks.save_network(blocks.Network(layers + [readout()]), self.paths["nonexpansive"])
        hidden = self.HIDDEN
        residual = blocks.ResidualBlock(gapped_matrix(rng, hidden, d, 2.0),
                                        gapped_matrix(rng, d, hidden, 2.0), bias(hidden),
                                        h=0.5)
        blocks.save_network(blocks.Network([residual, readout()]), self.paths["resnet"])
        # independent of the seed: this verify fails on every run while the
        # program accepts the checkpoint
        net = inverse.build_invnet(2.0, seed=0)
        for block in net.nonexpansive_blocks():
            block.weight *= 3.0
        blocks.save_network(net, self.paths["tampered"])

    def ops(self, out, _):
        return [Op(["verify", "--seed", str(self.seed) if arch != "tampered" else "0",
                    "--checkpoint", path, "--out-dir", os.path.join(out, f"verify_{arch}")],
                   expect_reject=arch == "tampered")
                for arch, path in self.paths.items()]

    def check(self, out, _):
        problems = []
        for arch in ("nonexpansive", "resnet"):
            ckpt = checks.Checkpoint(self.paths[arch])
            problems += checks.check_step_constraint(ckpt, arch)
            problems += checks.check_verify(os.path.join(out, f"verify_{arch}"), ckpt,
                                            f"verify {arch}")
        if not checks.check_step_constraint(checks.Checkpoint(self.paths["tampered"]), "tampered"):
            problems.append("the tampered checkpoint meets its step constraint")
        return problems

    def expected_counts(self):
        # verify bounds the residual block with two Jacobi oracle calls
        return {"linalg.spectral_norm_oracle.calls": 2,
                "blocks.load_network.calls": len(self.paths),
                "training.steps": 0, "attacks.gradient_rows": 0}


class Lyapunov:
    """`stableflow lyapunov`: fit the projected field, then integrate
    trajectories of 1000 Euler steps through per-sample callbacks.  25
    trajectories instead of the default 100 keep a round near two seconds,
    so that a run holds several rounds."""

    name = "lyapunov"
    calibration = ("dense", "small", "interp")
    CONFIG = {"trajectories": 25, "traj-steps": 1000, "traj-h": 1e-3, "mu": 2.0,
              "iterations": 600}

    def __init__(self, root, seed):
        self.root = root
        self.draws = [seed]

    def setup(self):
        os.makedirs(os.path.join(self.root, "inputs"), exist_ok=True)
        self.config = _write_config(os.path.join(self.root, "inputs", "lyapunov.cfg"),
                                    self.CONFIG)

    def ops(self, out, s):
        return [Op(["lyapunov", "--seed", str(s), "--config", self.config, "--out-dir", out])]

    def check(self, out, s):
        c = self.CONFIG
        return checks.check_lyapunov(out, s, c["trajectories"], c["traj-steps"],
                                     math.exp(-c["mu"] * c["traj-h"] * c["traj-steps"]))

    def expected_counts(self):
        c = self.CONFIG
        return {"ode.integrate.calls": c["trajectories"],
                "ode.euler_step.calls": c["trajectories"] * c["traj-steps"],
                "training.adam_step.calls": c["iterations"],
                "training.steps": 0}


WORKLOADS = {w.name: w for w in (Robust, Inverse, Certify, Lyapunov)}
