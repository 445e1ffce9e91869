"""Experiment runner: one subcommand per worked example, each emitting CSV
artifacts plus a run manifest into --out-dir.

Outputs are deterministic under --seed.  A manifest is written on success and
on failure; partially written outputs are removed when a run fails, and the
exit code is 0 only if every declared output exists and contains finite
numbers.
"""

import argparse
import os
import shutil
import sys
import time

import numpy as np

from . import __version__, blocks, experiments, linalg, stability
from .errors import StableflowError


def read_kv_config(path):
    """Flat key=value text file; blank lines and #-comments ignored."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise StableflowError(f"{path}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class RunContext:
    """Tracks outputs and writes the manifest on both exit paths.

    Used as a context manager around a subcommand's body: a clean exit runs
    ``finish``, and a typed library error, an I/O error or a bad value
    becomes ``fail`` with the error's message.
    """

    def __init__(self, subcommand, out_dir, seed, config):
        self.subcommand = subcommand
        self.out_dir = out_dir
        self.seed = seed
        self.config = dict(config)
        self.outputs = []
        self.started = time.perf_counter()
        os.makedirs(out_dir, exist_ok=True)

    def add(self, paths):
        if isinstance(paths, (str, os.PathLike)):
            paths = [paths]
        self.outputs.extend(str(p) for p in paths)
        return paths

    def _write_manifest(self, status, error=None):
        lines = [f"subcommand {self.subcommand}",
                 f"status {status}",
                 f"seed {self.seed}",
                 f"version {__version__}",
                 f"wall_time_seconds {time.perf_counter() - self.started:.3f}"]
        for key in sorted(self.config):
            lines.append(f"config.{key} {self.config[key]}")
        for path in self.outputs:
            lines.append(f"output {os.path.relpath(path, self.out_dir)}")
        if error:
            lines.append(f"error {error}")
        with open(os.path.join(self.out_dir, "manifest.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            self.finish()
        elif isinstance(exc, (StableflowError, OSError, ValueError)):
            self.fail(str(exc))
        return False

    def finish(self):
        bad = [p for p in self.outputs if not _output_ok(p)]
        if bad:
            self.fail(f"non-finite or missing outputs: {', '.join(bad)}")
        self._write_manifest("ok")
        return 0

    def fail(self, message):
        for path in self.outputs:
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            elif os.path.exists(path):
                os.remove(path)
        self._write_manifest("failed", error=message)
        raise SystemExit(f"stableflow {self.subcommand}: {message}")


def _output_ok(path):
    if os.path.isdir(path):
        return True
    if not os.path.exists(path):
        return False
    if path.endswith(".csv"):
        with open(path) as fh:
            # a header may name a column "info"; only data lines can hold
            # these letters, and in numeric data only as non-finite values
            next(fh, None)
            for line in fh:
                low = line.lower()
                if "nan" in low or "inf" in low:
                    return False
    return True


def _resolved(defaults, file_config, args, keys):
    """Merge defaults <- config file <- CLI flags, keeping declared types."""
    merged = dict(defaults)
    for key, value in file_config.items():
        if key not in merged:
            raise StableflowError(f"unknown config key {key!r}")
        merged[key] = type(defaults[key])(value) if defaults[key] is not None else value
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    return merged


# --- subcommands -------------------------------------------------------------

def cmd_oscillator(args, file_config):
    with RunContext("oscillator", args.out_dir, args.seed, {}) as ctx:
        cfg = _resolved({"h": 0.1, "steps": 500}, file_config, args, ["h", "steps"])
        ctx.config.update(cfg)
        result = experiments.oscillator_study(h=cfg["h"], n_steps=int(cfg["steps"]))
        ctx.add(experiments.write_oscillator_csvs(result, args.out_dir))


def cmd_swissroll(args, file_config):
    defaults = {"arch": "hnn", "layers": 12, "samples": 1000, "noise": 0.05,
                "probe-every": 100, "epochs": 0}
    with RunContext("swissroll", args.out_dir, args.seed, {}) as ctx:
        cfg = _resolved(defaults, file_config, args, ["arch", "layers", "epochs"])
        ctx.config.update(cfg)
        settings = {"epochs": int(cfg["epochs"])} if int(cfg["epochs"]) else None
        result = experiments.swissroll_study(
            cfg["arch"], int(cfg["layers"]), args.seed,
            n_samples=int(cfg["samples"]), noise=float(cfg["noise"]),
            probe_every=int(cfg["probe-every"]), settings=settings)
        ctx.add(experiments.write_swissroll_csvs(result, args.out_dir))


def cmd_inverse(args, file_config):
    defaults = {"n-train": 200, "n-test": 200, "epsilon": 0.25,
                "noise-sigma": 0.1, "iterations": 10000}
    with RunContext("inverse", args.out_dir, args.seed, {}) as ctx:
        cfg = _resolved(defaults, file_config, args, ["iterations"])
        ctx.config.update(cfg)
        result = experiments.inverse_study(
            args.seed, n_train=int(cfg["n-train"]), n_test=int(cfg["n-test"]),
            epsilon=float(cfg["epsilon"]), noise_sigma=float(cfg["noise-sigma"]),
            iterations=int(cfg["iterations"]))
        ctx.add(experiments.write_inverse_csvs(result, args.out_dir))
        for label, net in result.invnet_nets.items():
            ckpt = os.path.join(args.out_dir, f"invnet_{label}_seed{args.seed}")
            blocks.save_network(net, ckpt)
            ctx.add(ckpt)


def cmd_robust(args, file_config):
    defaults = {"n-train": 6000, "n-test": 500, "epochs": 15, "n-iter": 100,
                "weight-decay": 3e-4, "margin-offset": 0.5, "lr-peak": 1e-2,
                "pool-factor": 2}
    with RunContext("robust", args.out_dir, args.seed, {}) as ctx:
        cfg = _resolved(defaults, file_config, args, ["epochs"])
        ctx.config.update(cfg)
        for path in (args.train_images, args.train_labels, args.test_images,
                     args.test_labels):
            if not os.path.exists(path):
                raise StableflowError(f"missing IDX file: {path}")
        tr_x, tr_y, te_x, te_y = experiments.load_image_split(
            args.train_images, args.train_labels, args.test_images,
            args.test_labels, int(cfg["n-train"]), int(cfg["n-test"]),
            args.seed, pool_factor=int(cfg["pool-factor"]))
        result = experiments.robust_study(
            tr_x, tr_y, te_x, te_y, args.seed, epochs=int(cfg["epochs"]),
            n_iter=int(cfg["n-iter"]), weight_decay=float(cfg["weight-decay"]),
            margin_offset=float(cfg["margin-offset"]), lr_peak=float(cfg["lr-peak"]))
        ctx.add(experiments.write_robust_csvs(result, args.out_dir))
        for arch, net in result.nets.items():
            ckpt = os.path.join(args.out_dir, f"{arch}_seed{args.seed}")
            blocks.save_network(net, ckpt)
            ctx.add(ckpt)


def cmd_lyapunov(args, file_config):
    defaults = {"mu": 2.0, "samples": 200, "iterations": 600,
                "trajectories": 100, "traj-steps": 1000, "traj-h": 1e-3}
    with RunContext("lyapunov", args.out_dir, args.seed, {}) as ctx:
        cfg = _resolved(defaults, file_config, args, [])
        ctx.config.update(cfg)
        result = experiments.lyapunov_study(
            args.seed, mu=float(cfg["mu"]), n_samples=int(cfg["samples"]),
            iterations=int(cfg["iterations"]),
            n_trajectories=int(cfg["trajectories"]),
            traj_steps=int(cfg["traj-steps"]), traj_h=float(cfg["traj-h"]))
        ctx.add(experiments.write_lyapunov_csvs(result, args.out_dir))


def cmd_verify(args, file_config):
    defaults = {"n-pairs": 10000, "certificates": 50}
    with RunContext("verify", args.out_dir, args.seed, {}) as ctx:
        cfg = _resolved(defaults, file_config, args, [])
        ctx.config.update(cfg)
        net = blocks.load_network(args.checkpoint)
        rng = np.random.default_rng(args.seed)

        rows = []
        for i, block in enumerate(net.blocks):
            for name, arr in block.params().items():
                if arr.ndim != 2:
                    continue
                norm = linalg.spectral_norm(arr)
                if block.kind == "nonexpansive":
                    h = block.total_time / block.n_steps
                    ok = int(norm == 0.0 or h <= 2.0 / norm ** 2 + 1e-12)
                    rows.append((i, name, norm, block.n_steps, float(h), ok))
                else:
                    rows.append((i, name, norm, 0, 0.0, 1))
        ctx.add(experiments.write_csv(
            os.path.join(args.out_dir, "verify_spectral.csv"),
            "block,param,norm,n_steps,h,step_bound_ok", rows))

        n_pairs = int(cfg["n-pairs"])
        xs = rng.uniform(-10, 10, (n_pairs, net.dim_in))
        ys = rng.uniform(-10, 10, (n_pairs, net.dim_in))
        gap_in = np.linalg.norm(xs - ys, axis=1)
        gap_out = np.linalg.norm(net.forward(xs) - net.forward(ys), axis=1)
        ratio = float(np.max(gap_out / gap_in))
        bound = stability.composed_lipschitz_bound(net)
        budget = net.lipschitz_budget if net.lipschitz_budget is not None else bound
        within = ratio <= budget + 1e-6
        ctx.add(experiments.write_csv(
            os.path.join(args.out_dir, "verify_lipschitz.csv"),
            "n_pairs,max_ratio,composed_bound,budget,within_budget",
            [(n_pairs, ratio, bound, float(budget), int(within))]))
        problems = [f"block {i} {name}: h = {h:.6g} breaks h * norm^2 <= 2 "
                    f"at norm {norm:.6g} with n_steps {n_steps}"
                    for i, name, norm, n_steps, h, ok in rows if not ok]
        if not within:
            problems.append(f"empirical Lipschitz ratio {ratio:.6g} exceeds the "
                            f"budget {float(budget):.6g} ({ratio / budget:.4g}x)")
        if problems:
            ctx.fail("verification failed: " + "; ".join(problems))

        n_cert = int(cfg["certificates"])
        if net.dim_out >= 2 and n_cert > 0:
            points = rng.standard_normal((n_cert, net.dim_in))
            certs = [stability.certified_radius(net, x, bound) for x in points]
            ctx.add(stability.certificates_to_csv(
                os.path.join(args.out_dir, "verify_certificates.csv"), certs))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stableflow",
        description="Run the library's worked examples; each subcommand writes "
                    "CSV artifacts plus manifest.txt into --out-dir.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--config", help="flat key=value config file")

    p = sub.add_parser("oscillator", help="explicit vs symplectic Euler on the "
                       "harmonic oscillator; emits trajectories and energies")
    common(p)
    p.add_argument("--h", type=float, help="step size (default 0.1)")
    p.add_argument("--steps", type=int, help="step count (default 500)")
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("swissroll", help="two-spiral classification study; "
                       "emits decision-boundary grid, accuracy, and "
                       "Jacobian-norm series (CSV schema: see README)")
    common(p)
    p.add_argument("--arch", choices=["hnn", "resnet", "mlp"])
    p.add_argument("--layers", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_swissroll)

    p = sub.add_parser("inverse", help="2-d ill-conditioned inverse problem: "
                       "Tikhonov tuning/Lipschitz curves, reconstruction "
                       "panels, reconstruction-network loss curves")
    common(p)
    p.add_argument("--iterations", type=int)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("robust", help="train non-expansive and residual "
                       "classifiers on IDX images, run the l2-PGD grid, emit "
                       "accuracy-vs-epsilon tables and checkpoints")
    common(p)
    p.add_argument("--train-images", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test-images", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("lyapunov", help="fit the projected stable field to a "
                       "damped spiral and emit the potential along Euler "
                       "trajectories")
    common(p)
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("verify", help="recompute spectral norms, empirical "
                       "Lipschitz ratios, and certificates for a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    file_config = read_kv_config(args.config) if args.config else {}
    args.func(args, file_config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
