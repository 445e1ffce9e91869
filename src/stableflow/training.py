"""Losses, optimisers, learning-rate schedules, and the training loop.

The loop keeps non-expansive blocks honest: before the first step and after
every optimiser step it re-derives each block's sub-step count from the
LAPACK spectral norm of its weight (``NonExpansiveBlock.refresh_spectral``),
so every step the network takes, and the network it leaves, is
non-expansive.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .blocks import ClampedScale, NonExpansiveBlock
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
    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(state, params, grads, lr, weight_decay=0.0,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """Standard bias-corrected Adam step; the l2 penalty is added to the raw
    gradients when weight_decay > 0.  Updates the parameters in place."""
    state.t += 1
    correction1 = 1.0 - beta1 ** state.t
    correction2 = 1.0 - beta2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if weight_decay > 0.0:
            g = g + weight_decay * p
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * (g * g)
        m_hat = state.m[i] / correction1
        v_hat = state.v[i] / correction2
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
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

    params = [arr for _, _, arr in net.parameters()]
    adam_state = AdamState.for_params(params)
    nonexpansive = [(i, b) for i, b in enumerate(net.blocks)
                    if isinstance(b, NonExpansiveBlock)]
    scales = [b for b in net.blocks if isinstance(b, ClampedScale)]

    log = TrainLog()
    for idx, block in nonexpansive:
        log.step_counts.append((0, idx, block.refresh_spectral()))

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
        flat_grads = []
        for i, name, _ in net.parameters():
            flat_grads.append(grads[i][name])

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

        for idx, block in nonexpansive:
            previous = block.n_steps
            if block.refresh_spectral() != previous:
                log.step_counts.append((step + 1, idx, block.n_steps))

        log.step_loss.append(loss)
        log.step_lr.append(lr)
        if callback is not None:
            callback(step, net)
        if eval_inputs is not None and (step + 1) % steps_per_epoch == 0:
            log.epoch_accuracy.append(
                classification_accuracy(net, eval_inputs, eval_labels))
    return log
