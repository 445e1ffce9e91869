"""Losses, optimisers, learning-rate schedules, and the training loop.

The loop keeps non-expansive blocks honest: before the first step and after
every optimiser step it re-derives each block's sub-step count from the
LAPACK spectral norm of its weight (``blocks.refresh_step_counts``, one
stacked eigensolve per weight shape), so every step the network takes, and
the network it leaves, is non-expansive.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .blocks import ClampedScale, NonExpansiveBlock, refresh_step_counts
from .errors import DivergedTrainingError, InvalidInputError
from .linalg import write_csv


# --- losses ----------------------------------------------------------------

def mse_loss(pred, target):
    """Per-sample squared error ||pred - target||^2 and its gradient."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    diff = pred - target
    return float(np.dot(diff, diff)), 2.0 * diff


def margin_cross_entropy(logits, label, margin_offset=0.0):
    """Softmax cross-entropy with the true-class logit reduced by
    ``margin_offset`` before the softmax, encouraging larger margins."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1 or logits.shape[0] < 2:
        raise InvalidInputError(f"need at least 2 logits, got shape {logits.shape}")
    if not 0 <= label < logits.shape[0]:
        raise InvalidInputError(f"label {label} outside [0, {logits.shape[0]})")
    z = logits.copy()
    z[label] -= margin_offset
    z -= np.max(z)
    log_norm = np.log(np.sum(np.exp(z)))
    value = log_norm - z[label]
    grad = np.exp(z - log_norm)
    grad[label] -= 1.0
    return float(value), grad


def batch_mse(preds, targets):
    """Mean of per-sample squared errors over the rows, with gradients."""
    preds = np.atleast_2d(np.asarray(preds, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    diff = preds - targets
    n = preds.shape[0]
    return float(np.sum(diff * diff) / n), 2.0 * diff / n


def batch_margin_cross_entropy(logits, labels, margin_offset=0.0):
    """Mean margin cross-entropy over the rows, with gradients."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    labels = np.asarray(labels, dtype=int)
    n = logits.shape[0]
    z = logits.copy()
    z[np.arange(n), labels] -= margin_offset
    z -= z.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    value = float(np.mean(log_norm[:, 0] - z[np.arange(n), labels]))
    grad = np.exp(z - log_norm)
    grad[np.arange(n), labels] -= 1.0
    return value, grad / n


# --- optimisers ------------------------------------------------------------

def sgd_step(params, grads, lr):
    """In-place gradient descent step."""
    for p, g in zip(params, grads):
        p -= lr * g
    return params


@dataclass
class AdamState:
    """Adam's moments for a list of parameter arrays, each a flat vector
    holding the arrays' entries one after another in list order."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params):
        size = sum(np.size(p) for p in params)
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(state, params, grads, lr, weight_decay=0.0,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """Standard bias-corrected Adam step; the l2 penalty is added to the raw
    gradients when weight_decay > 0.  Updates the parameters in place.

    The moments and the step are computed once on the concatenated
    gradients; each entry sees the same operations as a per-array loop."""
    state.t += 1
    correction1 = 1.0 - beta1 ** state.t
    correction2 = 1.0 - beta2 ** state.t
    g = np.concatenate(grads, axis=None)
    if weight_decay > 0.0:
        decay = np.concatenate(params, axis=None)
        decay *= weight_decay
        g += decay
    g2 = g * g
    g *= 1.0 - beta1
    state.m *= beta1
    state.m += g
    g2 *= 1.0 - beta2
    state.v *= beta2
    state.v += g2
    # lr * m_hat / (sqrt(v_hat) + eps), in the two scratch vectors
    step = np.divide(state.m, correction1, out=g)
    step *= lr
    denom = np.sqrt(np.divide(state.v, correction2, out=g2), out=g2)
    denom += eps
    step /= denom
    start = 0
    for p in params:
        p -= step[start:start + p.size].reshape(p.shape)
        start += p.size
    return state, params


def one_cycle_lr(step, total, lr_min, lr_peak, warmup_fraction=0.3):
    """Cosine warmup lr_min -> lr_peak over the first ``warmup_fraction`` of
    the run, then cosine annealing back to lr_min."""
    if total <= 0:
        raise InvalidInputError(f"total steps must be positive, got {total}")
    apex = warmup_fraction * total
    if step <= apex:
        phase = step / apex if apex > 0 else 1.0
        return lr_min + (lr_peak - lr_min) * 0.5 * (1.0 - math.cos(math.pi * phase))
    phase = (step - apex) / (total - apex)
    return lr_min + (lr_peak - lr_min) * 0.5 * (1.0 + math.cos(math.pi * phase))


# --- training loop ---------------------------------------------------------

@dataclass
class TrainConfig:
    iterations: int = 0          # total optimiser steps; 0 means epochs drive the run
    epochs: int = 0
    batch_size: int = 128
    optimiser: str = "adam"      # "adam" | "sgd"
    schedule: str = "constant"   # "constant" (at lr_peak) | "one_cycle"
    lr_min: float = 1e-4
    lr_peak: float = 1e-2
    weight_decay: float = 0.0
    margin_offset: float = 0.0
    loss: str = "mse"            # "mse" | "margin"
    seed: int = 0

    def __post_init__(self):
        if self.lr_min > self.lr_peak:
            raise InvalidInputError(f"lr_min {self.lr_min} exceeds lr_peak {self.lr_peak}")
        if self.weight_decay < 0:
            raise InvalidInputError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.optimiser not in ("adam", "sgd"):
            raise InvalidInputError(f"unknown optimiser {self.optimiser!r}")
        if self.schedule not in ("constant", "one_cycle"):
            raise InvalidInputError(f"unknown schedule {self.schedule!r}")
        if self.loss not in ("mse", "margin"):
            raise InvalidInputError(f"unknown loss {self.loss!r}")
        if self.iterations == 0 and self.epochs == 0:
            raise InvalidInputError("set iterations or epochs")


@dataclass
class TrainLog:
    step_loss: list = field(default_factory=list)
    step_lr: list = field(default_factory=list)
    epoch_accuracy: list = field(default_factory=list)
    # (step, block_index, n_steps) whenever a block's sub-step count changes
    step_counts: list = field(default_factory=list)
    # (step, from_layer, value) from any probes recorded by callbacks
    probes: list = field(default_factory=list)

    def export_csvs(self, out_dir, prefix):
        tables = [("loss", "step,loss,lr",
                   [(i, float(l), float(r)) for i, (l, r) in
                    enumerate(zip(self.step_loss, self.step_lr))])]
        if self.epoch_accuracy:
            tables.append(("accuracy", "epoch,accuracy",
                           [(i, float(a)) for i, a in enumerate(self.epoch_accuracy)]))
        if self.step_counts:
            tables.append(("step_counts", "step,block,n_steps", self.step_counts))
        if self.probes:
            tables.append(("probes", "step,from_layer,norm",
                           [(s, f, float(v)) for s, f, v in self.probes]))
        return [write_csv(os.path.join(out_dir, f"{prefix}_{name}.csv"), header, rows)
                for name, header, rows in tables]


def classification_accuracy(net, inputs, labels):
    logits = net.forward(inputs)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def train(net, inputs, targets, cfg, eval_inputs=None, eval_labels=None,
          callback=None):
    """Minibatch training that re-derives every non-expansive sub-step count
    from its weight's spectral norm before the first and after every
    optimiser step.

    ``targets`` are integer labels for the margin loss and float rows for
    mse.  ``callback(step, net)`` runs after each completed step.  Raises
    :class:`DivergedTrainingError` on a non-finite loss.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = inputs.shape[0]
    if cfg.loss == "margin":
        targets = np.asarray(targets, dtype=int)
    else:
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, n)
    steps_per_epoch = (n + batch - 1) // batch
    total_steps = cfg.iterations if cfg.iterations else cfg.epochs * steps_per_epoch

    named = net.parameters()
    params = [arr for _, _, arr in named]
    adam_state = AdamState.for_params(params)
    indices = [i for i, b in enumerate(net.blocks) if isinstance(b, NonExpansiveBlock)]
    nonexpansive = [net.blocks[i] for i in indices]
    scales = [b for b in net.blocks if isinstance(b, ClampedScale)]

    log = TrainLog()
    counts = refresh_step_counts(nonexpansive)
    log.step_counts.extend((0, idx, n) for idx, n in zip(indices, counts))

    order = rng.permutation(n)
    cursor = 0
    for step in range(total_steps):
        if cursor + batch > n:
            order = rng.permutation(n)
            cursor = 0
        take = order[cursor:cursor + batch]
        cursor += batch
        xb, tb = inputs[take], targets[take]

        if cfg.schedule == "one_cycle":
            lr = one_cycle_lr(step, total_steps, cfg.lr_min, cfg.lr_peak)
        else:
            lr = cfg.lr_peak

        out, cache = net.forward_with_cache(xb)
        if cfg.loss == "margin":
            loss, gout = batch_margin_cross_entropy(out, tb, cfg.margin_offset)
        else:
            loss, gout = batch_mse(out, tb)
        if not np.isfinite(loss):
            raise DivergedTrainingError("loss became non-finite", step=step)
        _, grads = net.backward(cache, gout)
        flat_grads = [grads[i][name] for i, name, _ in named]

        if cfg.optimiser == "adam":
            adam_step(adam_state, params, flat_grads, lr,
                      weight_decay=cfg.weight_decay)
        else:
            if cfg.weight_decay > 0.0:
                flat_grads = [g + cfg.weight_decay * p
                              for g, p in zip(flat_grads, params)]
            sgd_step(params, flat_grads, lr)
        for block in scales:
            block.clamp()
        net.mark_params_updated()

        previous = [block.n_steps for block in nonexpansive]
        counts = refresh_step_counts(nonexpansive)
        log.step_counts.extend((step + 1, idx, n) for idx, n, old
                               in zip(indices, counts, previous) if n != old)

        log.step_loss.append(loss)
        log.step_lr.append(lr)
        if callback is not None:
            callback(step, net)
        if eval_inputs is not None and (step + 1) % steps_per_epoch == 0:
            log.epoch_accuracy.append(
                classification_accuracy(net, eval_inputs, eval_labels))
    return log
