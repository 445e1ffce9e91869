"""Spans around stableflow's public functions, installed from outside.

``Tracer.install`` replaces each function or method named in ``SPANS`` with
a wrapper that records one span (name, start, end, parent) per call, in
flat arrays kept in memory; ``uninstall`` puts the originals back.  A
module-level function is replaced in every stableflow module that bound it
by name (``attacks`` imports ``batch_margin_cross_entropy`` directly, for
example), so calls from inside the library are caught too.

A layer's self time is its spans' duration minus the part covered by their
child spans; calls are span counts.  ``COUNTS`` are tallied by hooks at the
same boundaries.
"""

import sys
import time
from array import array

import numpy as np

# (metric name, module, attribute path).  Blocks whose ``forward`` delegates
# to ``forward_with_cache`` are wrapped at the latter only, so one forward
# is one call.
SPANS = [
    ("blocks.nonexpansive.forward", "blocks", "NonExpansiveBlock.forward_with_cache"),
    ("blocks.nonexpansive.backward", "blocks", "NonExpansiveBlock.backward"),
    ("blocks.nonexpansive.refresh_spectral", "blocks", "NonExpansiveBlock.refresh_spectral"),
    ("blocks.residual.forward", "blocks", "ResidualBlock.forward_with_cache"),
    ("blocks.residual.backward", "blocks", "ResidualBlock.backward"),
    ("blocks.linear.forward", "blocks", "LinearLayer.forward"),
    ("blocks.linear.forward", "blocks", "LinearLayer.forward_with_cache"),
    ("blocks.linear.backward", "blocks", "LinearLayer.backward"),
    ("blocks.mlp.forward", "blocks", "MLPLayer.forward_with_cache"),
    ("blocks.mlp.backward", "blocks", "MLPLayer.backward"),
    ("blocks.network", "blocks", "Network.forward"),
    ("blocks.network", "blocks", "Network.forward_with_cache"),
    ("blocks.network", "blocks", "Network.backward"),
    ("blocks.network", "blocks", "Network.states"),
    ("blocks.save_network", "blocks", "save_network"),
    ("blocks.load_network", "blocks", "load_network"),
    ("linalg.save_matrix", "linalg", "save_matrix"),
    ("linalg.load_matrix", "linalg", "load_matrix"),
    ("linalg.power_method", "linalg", "power_method"),
    ("linalg.spectral_norm_oracle", "linalg", "spectral_norm_oracle"),
    ("linalg.jacobi_eigenvalues", "linalg", "jacobi_eigenvalues"),
    ("training.train", "training", "train"),
    ("training.adam_step", "training", "adam_step"),
    ("training.loss", "training", "batch_mse"),
    ("training.loss", "training", "batch_margin_cross_entropy"),
    ("training.loss", "training", "mse_loss"),
    ("training.loss", "training", "margin_cross_entropy"),
    ("training.TrainLog.export_csvs", "training", "TrainLog.export_csvs"),
    ("attacks.pgd_l2_batch", "attacks", "pgd_l2_batch"),
    ("stability.composed_lipschitz_bound", "stability", "composed_lipschitz_bound"),
    ("stability.certified_radius", "stability", "certified_radius"),
    ("stability.lyapunov_project", "stability", "lyapunov_project"),
    ("stability.ConvexPotential.value", "stability", "ConvexPotential.value"),
    ("ode.integrate", "ode", "integrate"),
    ("ode.euler_step", "ode", "euler_step"),
    ("experiments.lyapunov_study", "experiments", "lyapunov_study"),
    ("experiments.write_csv", "experiments", "write_csv"),
    ("inverse.grid_search_tau", "inverse", "grid_search_tau"),
    ("datasets.synthetic_image_corpus", "datasets", "synthetic_image_corpus"),
    ("datasets.save_idx", "datasets", "save_idx"),
    ("datasets.load_idx", "datasets", "load_idx"),
    ("datasets.downsample", "datasets", "downsample"),
    ("cli.main", "cli", "main"),
]

COUNTS = [
    "blocks.nonexpansive.substep_rows",   # rows x n_steps per forward
    "training.steps",                     # optimiser steps logged by train
    "linalg.power_method.iterations",     # the k argument, summed
    "attacks.gradient_rows",              # rows pulled back inside PGD
    "attacks.param_grads_discarded",      # Network.backward calls inside PGD
]


def _rows(x):
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


class Tracer:
    def __init__(self):
        self.names = sorted({name for name, _, _ in SPANS})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack = []
        self._open = [0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._patched = []
        self._hooks = {
            "blocks.nonexpansive.forward": self._count_substeps,
            "blocks.network": self._count_pgd_backward,
            "training.train": self._count_steps,
            "linalg.power_method": self._count_power_iterations,
        }

    # counters, called while the span is still open
    def _count_substeps(self, fn, args, kwargs, result):
        self.counts["blocks.nonexpansive.substep_rows"] += _rows(args[1]) * args[0].n_steps

    def _count_pgd_backward(self, fn, args, kwargs, result):
        if fn.__name__ == "backward" and self._open[self._ids["attacks.pgd_l2_batch"]]:
            self.counts["attacks.param_grads_discarded"] += 1
            self.counts["attacks.gradient_rows"] += _rows(args[2])

    def _count_steps(self, fn, args, kwargs, result):
        self.counts["training.steps"] += len(result.step_loss)

    def _count_power_iterations(self, fn, args, kwargs, result):
        self.counts["linalg.power_method.iterations"] += int(
            args[2] if len(args) > 2 else kwargs["k"])

    def _wrap(self, name, fn):
        nid = self._ids[name]
        hook = self._hooks.get(name)
        start, end, name_id, parent = self.start, self.end, self.name_id, self.parent
        stack, open_ = self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            open_[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(fn, args, kwargs, result)
                return result
            finally:
                end[idx] = clock()
                start[idx] = t0
                open_[nid] -= 1
                stack.pop()

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every function in SPANS; a no-op when already installed."""
        if self._patched:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if key == "stableflow" or key.startswith("stableflow.")]
        for name, module, path in SPANS:
            owner = sys.modules[f"stableflow.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if classes:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def summary(self):
        """{name.calls, name.self_s} per span name, plus the counters."""
        names = np.array(self.name_id, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        self_time = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_time[i]), "s")
        for name, value in self.counts.items():
            out[name] = (int(value), "count")
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))
