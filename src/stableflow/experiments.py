"""Reproducible experiment drivers.

Each study returns a plain result object and has a companion ``write_*``
helper emitting the CSV artifacts; the command-line runner and the test
suite share these so outputs stay byte-identical across entry points.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import attacks, datasets, inverse, ode, stability, training
from .blocks import (HamiltonianBlock, LinearLayer, MLPLayer, Network,
                     NonExpansiveBlock, ResidualBlock, jacobian_norm_probe)
from .linalg import write_csv
from .training import TrainConfig


# --- harmonic oscillator -----------------------------------------------------

@dataclass
class OscillatorResult:
    h: float
    euler: ode.Trajectory
    symplectic: ode.Trajectory


def oscillator_study(h=0.1, n_steps=500, x0=(1.0, 0.0)):
    """Explicit vs symplectic Euler on the harmonic oscillator."""
    field_ = ode.harmonic_oscillator()
    x0 = np.asarray(x0, dtype=float)
    return OscillatorResult(
        h=h,
        euler=ode.integrate(field_, x0, 0.0, h, n_steps, "euler"),
        symplectic=ode.integrate(field_, x0, 0.0, h, n_steps, "symplectic"),
    )


def write_oscillator_csvs(result, out_dir):
    paths = []
    for name, traj in (("euler", result.euler), ("symplectic", result.symplectic)):
        path = os.path.join(out_dir, f"oscillator_{name}.csv")
        traj.to_csv(path)
        paths.append(path)
    e_euler = ode.harmonic_energy(result.euler.states)
    e_sympl = ode.harmonic_energy(result.symplectic.states)
    paths.append(write_csv(
        os.path.join(out_dir, "oscillator_energy.csv"),
        "step,t,euler_energy,symplectic_energy",
        [(i, float(t), float(a), float(b)) for i, (t, a, b) in
         enumerate(zip(result.euler.times, e_euler, e_sympl))]))
    return paths


# --- Swiss roll --------------------------------------------------------------

# per-architecture training settings found by experiment; the comparison only
# fixes the dataset, depth, and the shared loss
SWISSROLL_SETTINGS = {
    "hnn": dict(total_time=8.0, width=None, epochs=300, lr_peak=3e-2),
    "resnet": dict(total_time=6.0, width=16, epochs=150, lr_peak=1e-2),
    "mlp": dict(total_time=None, width=32, epochs=150, lr_peak=2e-2),
}


def build_swissroll_network(arch, n_layers, seed, settings=None):
    cfg = dict(SWISSROLL_SETTINGS[arch])
    if settings:
        cfg.update(settings)
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(n_layers):
        if arch == "hnn":
            layers.append(HamiltonianBlock.random(2, rng, h=cfg["total_time"] / n_layers))
        elif arch == "resnet":
            layers.append(ResidualBlock.random(4, cfg["width"], rng,
                                               h=cfg["total_time"] / n_layers))
        elif arch == "mlp":
            layers.append(MLPLayer.random(4, 4, cfg["width"], rng, activation="tanh"))
        else:
            raise ValueError(f"unknown architecture {arch!r}")
    layers.append(LinearLayer.random(4, 2, rng))
    return Network(layers)


@dataclass
class SwissrollResult:
    arch: str
    n_layers: int
    seed: int
    test_accuracy: float
    log: training.TrainLog
    boundary: np.ndarray  # rows (x1, x2, logit0, logit1, predicted)
    net: Network


def swissroll_study(arch, n_layers, seed, n_samples=1000, noise=0.05,
                    probe_every=100, grid_resolution=61, settings=None):
    """Train one architecture on the two-spiral task, recording the spectral
    norms of the map from each hidden state to the last hidden state."""
    cfg = dict(SWISSROLL_SETTINGS[arch])
    if settings:
        cfg.update(settings)
    ds = datasets.swiss_roll(n_samples, noise=noise, seed=seed)
    train_ds, test_ds = datasets.subset_split(ds, (3 * n_samples) // 4,
                                              n_samples - (3 * n_samples) // 4,
                                              seed=seed)
    net = build_swissroll_network(arch, n_layers, seed, settings)
    probe_x = test_ds.inputs[0]
    probes = []

    def record_probes(step, net_):
        for j in range(n_layers):
            probes.append(
                (step, j, jacobian_norm_probe(net_, probe_x, j, n_layers)))

    train_cfg = TrainConfig(epochs=cfg["epochs"], batch_size=128, optimiser="adam",
                            schedule="one_cycle", lr_min=1e-4, lr_peak=cfg["lr_peak"],
                            loss="margin", seed=seed)

    def callback(step, net_):
        if (step + 1) % probe_every == 0:
            record_probes(step + 1, net_)

    if probe_every:
        record_probes(0, net)
    log = training.train(net, train_ds.inputs, train_ds.labels, train_cfg,
                         eval_inputs=test_ds.inputs, eval_labels=test_ds.labels,
                         callback=callback if probe_every else None)
    log.probes = probes

    accuracy = training.classification_accuracy(net, test_ds.inputs, test_ds.labels)
    grid = np.linspace(-1.15, 1.15, grid_resolution)
    xx, yy = np.meshgrid(grid, grid)
    points = np.zeros((grid_resolution * grid_resolution, 4))
    points[:, 0] = xx.ravel()
    points[:, 2] = yy.ravel()
    logits = net.forward(points)
    boundary = np.column_stack([points[:, 0], points[:, 2], logits,
                                np.argmax(logits, axis=1)])
    return SwissrollResult(arch=arch, n_layers=n_layers, seed=seed,
                           test_accuracy=accuracy, log=log, boundary=boundary,
                           net=net)


def write_swissroll_csvs(result, out_dir):
    tag = f"{result.arch}{result.n_layers}_seed{result.seed}"
    paths = [write_csv(
        os.path.join(out_dir, f"swissroll_boundary_{tag}.csv"),
        "x1,x2,logit0,logit1,predicted",
        [(float(a), float(b), float(c), float(d), int(e)) for a, b, c, d, e
         in result.boundary])]
    paths += result.log.export_csvs(out_dir, f"swissroll_{tag}")
    paths.append(write_csv(
        os.path.join(out_dir, f"swissroll_testacc_{tag}.csv"),
        "test_accuracy", [(float(result.test_accuracy),)]))
    return paths


# --- inverse problem ---------------------------------------------------------

INVNET_BUDGETS = (("third", 1.0 / 3.0), ("optimal", 1.0), ("triple", 3.0))


@dataclass
class InverseResult:
    seed: int
    model: inverse.ForwardModel
    taus: np.ndarray
    train_errors: np.ndarray
    tau_star: float
    l_star: float
    best_tikhonov_test_mse: float
    tikhonov_panels: dict      # label -> (lipschitz_target, reconstruction rows)
    invnet_nets: dict          # label -> Network
    invnet_logs: dict          # label -> TrainLog
    invnet_test_mse: dict      # label -> float
    test_xs: np.ndarray
    test_ys: np.ndarray


def inverse_study(seed, n_train=200, n_test=200, epsilon=0.25, noise_sigma=0.1,
                  iterations=10000, budgets=INVNET_BUDGETS, lstar_callback=None):
    """Tikhonov baseline with grid-searched tau against reconstruction networks
    trained at Lipschitz budgets scaled from the optimal Tikhonov constant.

    ``lstar_callback(step, net)`` is attached to the budget-1 network's
    training (used by the acceptance suite to audit non-expansiveness live).
    """
    model = inverse.ForwardModel(epsilon=epsilon, noise_sigma=noise_sigma)
    xs_tr, ys_tr = inverse.generate_dataset(n_train, epsilon, noise_sigma, seed=seed)
    xs_te, ys_te = inverse.generate_dataset(n_test, epsilon, noise_sigma,
                                            seed=seed + 1000)
    taus = inverse.log_tau_grid()
    tau_star, l_star, train_errors = inverse.grid_search_tau(model, xs_tr, ys_tr, taus)

    test_errors = np.array([
        np.mean(np.sum((inverse.tikhonov_reconstruct(model, t, ys_te) - xs_te) ** 2,
                       axis=1)) for t in taus])
    best_tik = float(np.min(test_errors))

    # display panels at L*/3, L*, 3L*; targets above the attainable Tikhonov
    # range are clamped toward the supremum 1/min(sigma) for the panel only
    l_max = 1.0 / float(np.min(model.singular_values))
    panels = {}
    for label, mult in budgets:
        target = mult * l_star
        clamped = min(target, 0.5 * (l_star + l_max)) if target >= l_max else target
        tau = inverse.invert_tau_for_lipschitz(model, clamped)
        recon = inverse.tikhonov_reconstruct(model, tau, ys_te)
        panels[label] = (clamped, np.column_stack([xs_te, recon]))

    nets, logs, mses = {}, {}, {}
    for label, mult in budgets:
        net = inverse.build_invnet(mult * l_star, seed=seed)
        cfg = TrainConfig(iterations=iterations, batch_size=n_train,
                          optimiser="adam", schedule="constant",
                          lr_min=1e-3, lr_peak=1e-3, loss="mse", seed=seed)
        callback = lstar_callback if label == "optimal" else None
        logs[label] = training.train(net, ys_tr, xs_tr, cfg, callback=callback)
        pred = net.forward(ys_te)
        mses[label] = float(np.mean(np.sum((pred - xs_te) ** 2, axis=1)))
        nets[label] = net
    return InverseResult(seed=seed, model=model, taus=taus,
                         train_errors=train_errors, tau_star=tau_star,
                         l_star=l_star, best_tikhonov_test_mse=best_tik,
                         tikhonov_panels=panels, invnet_nets=nets,
                         invnet_logs=logs, invnet_test_mse=mses,
                         test_xs=xs_te, test_ys=ys_te)


def write_inverse_csvs(result, out_dir):
    seed = result.seed
    paths = [write_csv(
        os.path.join(out_dir, f"tikhonov_tuning_seed{seed}.csv"),
        "tau,mean_error",
        [(float(t), float(e)) for t, e in zip(result.taus, result.train_errors)])]
    paths.append(write_csv(
        os.path.join(out_dir, f"tikhonov_lipschitz_seed{seed}.csv"),
        "tau,lipschitz",
        [(float(t), inverse.tikhonov_lipschitz(result.model, t)) for t in result.taus]))
    header = "x1_true,x2_true,x1_recon,x2_recon"
    for label, (target, rows) in result.tikhonov_panels.items():
        paths.append(write_csv(
            os.path.join(out_dir, f"tikhonov_recon_{label}_seed{seed}.csv"),
            header, [tuple(float(v) for v in r) for r in rows]))
    for label, net in result.invnet_nets.items():
        recon = net.forward(result.test_ys)
        paths.append(write_csv(
            os.path.join(out_dir, f"invnet_recon_{label}_seed{seed}.csv"),
            header,
            [tuple(float(v) for v in r) for r in np.column_stack([result.test_xs, recon])]))
        paths.append(write_csv(
            os.path.join(out_dir, f"invnet_loss_{label}_seed{seed}.csv"),
            "step,loss",
            [(i, float(l)) for i, l in enumerate(result.invnet_logs[label].step_loss)]))
    paths.append(write_csv(
        os.path.join(out_dir, f"inverse_summary_seed{seed}.csv"),
        "tau_star,l_star,best_tikhonov_test_mse,invnet_third_mse,invnet_optimal_mse,invnet_triple_mse",
        [(float(result.tau_star), float(result.l_star),
          float(result.best_tikhonov_test_mse),
          float(result.invnet_test_mse.get("third", np.nan)),
          float(result.invnet_test_mse.get("optimal", np.nan)),
          float(result.invnet_test_mse.get("triple", np.nan)))]))
    return paths


# --- robust classification ---------------------------------------------------

ROBUST_EPSILONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def build_image_classifier(arch, dim, n_classes, seed, width=196, n_blocks=2):
    """Desk-scale dense classifier: non-expansive blocks (or residual blocks)
    followed by a linear readout."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(n_blocks):
        if arch == "nonexpansive":
            layers.append(NonExpansiveBlock.random(dim, width, rng, total_time=1.0))
        elif arch == "resnet":
            layers.append(ResidualBlock.random(dim, width, rng, h=1.0 / n_blocks))
        else:
            raise ValueError(f"unknown architecture {arch!r}")
    layers.append(LinearLayer.random(dim, n_classes, rng))
    return Network(layers)


@dataclass
class RobustResult:
    seed: int
    clean_accuracy: dict       # arch -> float
    tables: dict               # arch -> [(epsilon, accuracy, n)]
    nets: dict                 # arch -> Network
    logs: dict                 # arch -> TrainLog
    test_inputs: np.ndarray
    test_labels: np.ndarray
    attacked: dict             # arch -> {epsilon: attacked inputs}


def robust_study(train_inputs, train_labels, test_inputs, test_labels, seed,
                 epochs=15, epsilons=ROBUST_EPSILONS, n_iter=100,
                 weight_decay=3e-4, margin_offset=0.5, lr_peak=1e-2,
                 archs=("nonexpansive", "resnet")):
    """Train both architectures on clean images, then attack the test set on
    an epsilon grid with l2 PGD and tabulate robust accuracy.

    ``margin_offset`` shapes the training loss only; the attack ascends the
    plain cross-entropy.
    """
    dim = train_inputs.shape[1]
    n_classes = int(max(train_labels.max(), test_labels.max())) + 1
    clean, tables, nets, logs, attacked = {}, {}, {}, {}, {}
    for arch in archs:
        net = build_image_classifier(arch, dim, n_classes, seed)
        cfg = TrainConfig(epochs=epochs, batch_size=128, optimiser="adam",
                          schedule="one_cycle", lr_min=1e-4, lr_peak=lr_peak,
                          weight_decay=weight_decay, margin_offset=margin_offset,
                          loss="margin", seed=seed)
        logs[arch] = training.train(net, train_inputs, train_labels, cfg)
        tables[arch], attacked[arch] = attacks.robust_accuracy(
            net, test_inputs, test_labels, (0.0,) + tuple(epsilons), n_iter=n_iter)
        clean[arch] = tables[arch][0][1]
        nets[arch] = net
    return RobustResult(seed=seed, clean_accuracy=clean, tables=tables, nets=nets,
                        logs=logs, test_inputs=test_inputs, test_labels=test_labels,
                        attacked=attacked)


def write_robust_csvs(result, out_dir):
    paths = []
    for arch, rows in result.tables.items():
        path = os.path.join(out_dir, f"robust_accuracy_{arch}_seed{result.seed}.csv")
        attacks.robust_accuracy_to_csv(path, rows)
        paths.append(path)
        paths += result.logs[arch].export_csvs(out_dir, f"robust_{arch}_seed{result.seed}")
    return paths


def load_image_split(train_images_path, train_labels_path, test_images_path,
                     test_labels_path, n_train, n_test, seed, pool_factor=2):
    """IDX files -> pooled, flattened float inputs and integer labels."""
    tr_img = datasets.load_idx(train_images_path)
    tr_lab = datasets.load_idx(train_labels_path)
    te_img = datasets.load_idx(test_images_path)
    te_lab = datasets.load_idx(test_labels_path)
    rng_tr = np.random.default_rng(seed)
    take_tr = rng_tr.permutation(len(tr_img))[:n_train]
    rng_te = np.random.default_rng(seed + 1)
    take_te = rng_te.permutation(len(te_img))[:n_test]

    def prep(images):
        images = np.asarray(images, dtype=float) / 255.0
        if pool_factor > 1:
            images = datasets.downsample(images, pool_factor)
        return images.reshape(images.shape[0], -1)

    return (prep(tr_img[take_tr]), tr_lab[take_tr].astype(int),
            prep(te_img[take_te]), te_lab[take_te].astype(int))


def make_synthetic_idx_corpus(directory, n_train=6500, n_test=600, seed=0):
    """Write a synthetic glyph corpus to IDX files and return the four paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for split, n, offset in (("train", n_train, 0), ("test", n_test, 1)):
        images, labels = datasets.synthetic_image_corpus(n, seed=seed * 2 + offset)
        img_path = os.path.join(directory, f"{split}-images.idx")
        lab_path = os.path.join(directory, f"{split}-labels.idx")
        datasets.save_idx(img_path, images)
        datasets.save_idx(lab_path, labels)
        paths[f"{split}_images"] = img_path
        paths[f"{split}_labels"] = lab_path
    return paths


# --- Lyapunov-stable field fitting -------------------------------------------

def lyapunov_fit_loss(mlp, system, x_bar, samples, targets):
    """Mean squared error of the projected field against ``targets`` at
    ``samples``, its base field being ``mlp`` offset by its value at
    ``x_bar``.  Returns (loss, gradients): one per ``mlp.parameters()`` entry,
    then one for the potential weights.
    """
    out, cache = mlp.forward_with_cache(samples)
    out_bar, cache_bar = mlp.forward_with_cache(x_bar)
    projected, proj_cache = stability.lyapunov_project_with_cache(
        system, samples, out - out_bar)
    err = projected - targets
    base_up, w_grad = stability.lyapunov_project_vjp(system, proj_cache, 2.0 * err)
    n = len(samples)
    _, g = mlp.backward(cache, base_up / n)
    _, g_bar = mlp.backward(cache_bar, -base_up.sum(axis=0) / n)
    grads = [g[i][name] + g_bar[i][name] for i, name, _ in mlp.parameters()]
    return float(np.mean(np.sum(err * err, axis=1))), grads + [w_grad / n]


@dataclass
class LyapunovResult:
    seed: int
    system: stability.LyapunovSystem
    fit_losses: list
    equilibrium: np.ndarray
    v_series: list = field(default_factory=list)  # rows (traj, step, V)


def lyapunov_study(seed, equilibrium=(0.4, -0.3), mu=2.0, hidden=32,
                   potential_units=8, n_samples=300, iterations=1500,
                   lr=1e-2, n_trajectories=100, traj_steps=1000, traj_h=1e-3):
    """Fit the projected stable field to a known damped spiral and integrate
    the fitted system, recording the potential along every trajectory.

    The base network's output is offset by its value at the equilibrium so
    the fitted field vanishes there exactly.
    """
    rng = np.random.default_rng(seed)
    x_bar = np.asarray(equilibrium, dtype=float)
    a_true = np.array([[-0.5, 1.2], [-1.2, -0.5]])

    def true_field(x):
        return (x - x_bar) @ a_true.T

    mlp = Network([MLPLayer.random(2, 2, hidden, rng, activation="tanh")])
    potential = stability.ConvexPotential(
        0.7 * np.asarray([[np.cos(a), np.sin(a)] for a in
                          np.linspace(0, 2 * np.pi, potential_units, endpoint=False)]),
        center=x_bar)

    # the base field is set once the fit is done
    system = stability.LyapunovSystem(base_field=None, potential=potential, mu=mu)
    samples = x_bar + rng.standard_normal((n_samples, 2))
    targets = true_field(samples)
    params = [arr for _, _, arr in mlp.parameters()] + [potential.weights]
    state = training.AdamState.for_params(params)
    losses = []
    for _ in range(iterations):
        loss, grads = lyapunov_fit_loss(mlp, system, x_bar, samples, targets)
        losses.append(loss)
        training.adam_step(state, params, grads, lr)
        mlp.mark_params_updated()

    offset = mlp.forward(x_bar)  # the fitted network is fixed from here on

    def base_field(x):
        return mlp.forward(x) - offset

    system.base_field = base_field
    result = LyapunovResult(seed=seed, system=system, fit_losses=losses,
                            equilibrium=x_bar)
    fitted = stability.lyapunov_field(system)
    starts = x_bar + rng.standard_normal((n_trajectories, 2))
    for k, start in enumerate(starts):
        traj = ode.integrate(fitted, start, 0.0, traj_h, traj_steps, "euler")
        values = potential.value(traj.states)
        result.v_series.extend((k, i, float(v)) for i, v in enumerate(values))
    return result


def write_lyapunov_csvs(result, out_dir):
    seed = result.seed
    paths = [write_csv(os.path.join(out_dir, f"lyapunov_fit_loss_seed{seed}.csv"),
                       "step,loss",
                       [(i, float(l)) for i, l in enumerate(result.fit_losses)])]
    paths.append(write_csv(
        os.path.join(out_dir, f"lyapunov_v_series_seed{seed}.csv"),
        "trajectory,step,v", result.v_series))
    return paths
