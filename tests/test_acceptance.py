"""Acceptance suite: one test per exit criterion, numbered 01-13.

Heavy studies (inverse problem, Swiss roll, robust classification) run once
per session and are shared across criteria.  Each test prints a PASS line on
success (visible with pytest -s or -rP); a failure raises before printing.
"""

import filecmp
import os

import numpy as np
import pytest

from conftest import block_gradient_check, canonical_skew, fd_input_gradient, fd_jacobian
from stableflow import attacks, datasets, experiments, inverse, linalg, ode, stability, training
from stableflow.blocks import (ClampedScale, HamiltonianBlock, LiftLayer,
                               LinearLayer, MLPLayer, NonExpansiveBlock,
                               ProjectLayer, ResidualBlock)
from stableflow.errors import NumericOverflowError

SEEDS = (0, 1, 2)


def report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# --- shared heavy runs -------------------------------------------------------

class NonexpansivenessChecker:
    """Audits the lift->blocks->project core after every 100 training steps:
    fresh 500-iteration spectral estimates must satisfy the step constraint
    and 10^4 random pairs must not expand."""

    def __init__(self, net, seed=999):
        self.net = net
        self.rng = np.random.default_rng(seed)
        self.checks = 0
        self.failures = []

    def __call__(self, step, net):
        if (step + 1) % 100 != 0:
            return
        core_stop = len(net.blocks) - 1  # everything but the clamped scale
        for i, block in enumerate(net.blocks):
            if not isinstance(block, NonExpansiveBlock):
                continue
            est = linalg.power_method(
                block.weight, linalg.counter_seeded_unit(block.weight.shape[1], 1), 500)
            h = block.total_time / block.n_steps
            if est.norm > 0 and h > 2.0 / est.norm ** 2 + 1e-12:
                self.failures.append((step, i, "step constraint"))
        xs = self.rng.uniform(-10, 10, (10000, net.dim_in))
        ys = self.rng.uniform(-10, 10, (10000, net.dim_in))
        gap_out = np.linalg.norm(net.forward(xs, 0, core_stop)
                                 - net.forward(ys, 0, core_stop), axis=1)
        gap_in = np.linalg.norm(xs - ys, axis=1)
        if not np.all(gap_out <= gap_in + 1e-9):
            self.failures.append((step, -1, "expansion"))
        self.checks += 1


@pytest.fixture(scope="session")
def inverse_runs():
    runs = {}
    budgets = (("optimal", 1.0), ("triple", 3.0))
    for seed in SEEDS:
        checker = None
        if seed == 0:
            holder = {}

            def callback(step, net, holder=holder):
                if "checker" not in holder:
                    holder["checker"] = NonexpansivenessChecker(net)
                holder["checker"](step, net)

            result = experiments.inverse_study(seed, budgets=budgets,
                                               lstar_callback=callback)
            checker = holder["checker"]
        else:
            result = experiments.inverse_study(seed, budgets=budgets)
        runs[seed] = (result, checker)
    return runs


@pytest.fixture(scope="session")
def robust_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("idx_corpus")
    return experiments.make_synthetic_idx_corpus(directory, n_train=6500,
                                                 n_test=600, seed=0)


@pytest.fixture(scope="session")
def robust_runs(robust_corpus):
    runs = {}
    for seed in SEEDS:
        tr_x, tr_y, te_x, te_y = experiments.load_image_split(
            robust_corpus["train_images"], robust_corpus["train_labels"],
            robust_corpus["test_images"], robust_corpus["test_labels"],
            n_train=6000, n_test=500, seed=seed)
        runs[seed] = experiments.robust_study(tr_x, tr_y, te_x, te_y, seed,
                                              epochs=15)
    return runs


@pytest.fixture(scope="session")
def swissroll_runs():
    runs = {}
    for arch, layers in (("hnn", 12), ("resnet", 12), ("mlp", 12), ("mlp", 2)):
        probe = 100 if arch == "hnn" else 0
        runs[(arch, layers)] = [
            experiments.swissroll_study(arch, layers, seed, probe_every=probe)
            for seed in SEEDS]
    return runs


@pytest.fixture(scope="session")
def lyapunov_run():
    return experiments.lyapunov_study(0)


# --- criteria ----------------------------------------------------------------

def test_criterion_01_exact_energy_law():
    for h in (0.1, 0.3, 0.5):
        traj = ode.integrate(ode.harmonic_oscillator(), [1.0, 0.0], 0.0, h, 200)
        energies = ode.harmonic_energy(traj.states)
        law = 0.5 * (1.0 + h * h) ** np.arange(201)
        assert np.max(np.abs(energies / law - 1.0)) <= 1e-12
    report(1, "exact explicit-Euler energy law")


def test_criterion_02_symplectic_boundedness():
    for h in (0.5, 1.0, 1.9):
        traj = ode.integrate(ode.harmonic_oscillator(), [1.0, 0.0], 0.0, h,
                             10000, method="symplectic")
        energies = ode.harmonic_energy(traj.states)
        # the update conserves x^2 + p^2 + h x p = 1, trapping the energy
        lower, upper = 1.0 / (2.0 + h), 1.0 / (2.0 - h)
        assert np.all(energies >= lower * (1.0 - 1e-9))
        assert np.all(energies <= upper * (1.0 + 1e-9))
    with np.errstate(over="ignore"), pytest.raises(NumericOverflowError):
        ode.integrate(ode.harmonic_oscillator(), [1.0, 0.0], 0.0, 2.5, 10000,
                      method="symplectic")
    report(2, "symplectic-Euler energy stays in the invariant band")


def test_criterion_03_power_method():
    rng = np.random.default_rng(30)
    for matrix, expected in ((np.eye(10), 1.0), (5.0 * np.eye(10), 5.0)):
        est = linalg.power_method(matrix, rng.standard_normal(10), 100)
        assert abs(est.norm - expected) <= 1e-6
    b = rng.standard_normal((10, 10))
    orthogonal = linalg.matrix_exponential(b - b.T)
    est = linalg.power_method(orthogonal, rng.standard_normal(10), 100)
    assert abs(est.norm - 1.0) <= 1e-6
    checked = 0
    while checked < 10:
        a = rng.standard_normal((20, 20))
        s = np.linalg.svd(a, compute_uv=False)
        if s[1] / s[0] > 0.95:
            continue  # convergence tests need a spectral gap
        truth = linalg.spectral_norm_oracle(a)
        est = linalg.power_method(a, rng.standard_normal(20), 500)
        assert abs(est.norm - truth) <= 1e-8
        checked += 1
    report(3, "power method matches the Jacobi oracle")


BLOCK_FACTORIES = (
    ("nonexpansive", lambda rng: NonExpansiveBlock.random(4, 5, rng)),
    ("residual", lambda rng: ResidualBlock.random(4, 5, rng, h=0.7)),
    ("mlp_tanh", lambda rng: MLPLayer.random(4, 3, 5, rng, activation="tanh")),
    ("mlp_relu", lambda rng: MLPLayer.random(4, 3, 5, rng, activation="relu")),
    ("hamiltonian", lambda rng: HamiltonianBlock.random(2, rng, h=0.8)),
    ("linear", lambda rng: LinearLayer.random(4, 3, rng)),
    ("lift", lambda rng: LiftLayer(4, 6)),
    ("project", lambda rng: ProjectLayer(4, 2)),
    ("scale", lambda rng: ClampedScale(4, value=0.6, bound=2.0)),
)


def _relu_clearance(block, x):
    """Smallest |pre-activation| hit by relu stages at x (inf if none)."""
    gap = np.inf
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(block, NonExpansiveBlock):
        h = block.total_time / block.n_steps
        for _ in range(block.n_steps):
            z = xs @ block.weight.T + block.bias
            gap = min(gap, float(np.min(np.abs(z))))
            xs = xs - h * np.maximum(z, 0.0) @ block.weight
    elif isinstance(block, ResidualBlock):
        gap = float(np.min(np.abs(xs @ block.weight_in.T + block.bias)))
    elif isinstance(block, MLPLayer) and block.activation == "relu":
        gap = float(np.min(np.abs(xs @ block.weight_in.T + block.bias)))
    return gap


def test_criterion_04_gradient_correctness():
    for kind_index, (name, factory) in enumerate(BLOCK_FACTORIES):
        rng = np.random.default_rng(4000 + kind_index)
        done = 0
        while done < 50:
            block = factory(rng)
            if isinstance(block, NonExpansiveBlock):
                block.n_steps = int(rng.integers(1, 4))
            x = rng.standard_normal((2, 4)) * 1.5
            if _relu_clearance(block, x) < 1e-3:
                continue  # keep the finite-difference stencil off relu kinks
            weights = rng.standard_normal(block.dim_out)
            worst = block_gradient_check(block, x, weights, step=1e-5)
            assert worst <= 1e-5, f"{name}: relative error {worst}"
            done += 1
    rng = np.random.default_rng(40)
    for _ in range(50):
        pred, target = rng.standard_normal(5), rng.standard_normal(5)
        _, grad = training.mse_loss(pred, target)
        fd = fd_input_gradient(lambda p: training.mse_loss(p, target)[0], pred)
        assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) <= 1e-5
    for _ in range(50):
        logits = rng.standard_normal(6)
        label = int(rng.integers(6))
        offset = float(rng.uniform(0, 1))
        _, grad = training.margin_cross_entropy(logits, label, offset)
        fd = fd_input_gradient(
            lambda z: training.margin_cross_entropy(z, label, offset)[0], logits)
        assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) <= 1e-5
    report(4, "analytic gradients match central differences")


def test_criterion_05_live_nonexpansiveness(inverse_runs):
    _, checker = inverse_runs[0]
    assert checker is not None
    assert checker.checks == 100  # every 100 steps of the 10,000-step run
    assert checker.failures == []
    report(5, "step-count adaptation keeps the trained core non-expansive")


def test_criterion_06_symplecticity():
    rng = np.random.default_rng(60)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        block = HamiltonianBlock.random(d, rng, h=float(rng.uniform(0.1, 1.5)))
        x = rng.standard_normal(2 * d)
        jac = fd_jacobian(block.forward, x)
        skew = canonical_skew(d)
        assert np.max(np.abs(jac.T @ skew @ jac - skew)) <= 1e-6
        assert linalg.spectral_norm_oracle(jac) >= 1.0 - 1e-6
    report(6, "layer Jacobians are symplectic with norm >= 1")


def test_criterion_07_swissroll_study(swissroll_runs):
    passes = 0
    for idx, seed in enumerate(SEEDS):
        hnn = swissroll_runs[("hnn", 12)][idx]
        resnet = swissroll_runs[("resnet", 12)][idx]
        mlp12 = swissroll_runs[("mlp", 12)][idx]
        mlp2 = swissroll_runs[("mlp", 2)][idx]
        probe_floor = min(v for _, _, v in hnn.log.probes)
        ok = (hnn.test_accuracy >= 0.99 and resnet.test_accuracy >= 0.99
              and mlp12.test_accuracy <= 0.65 and mlp2.test_accuracy >= 0.70
              and probe_floor >= 1.0 - 1e-3)
        print(f"  seed {seed}: hnn={hnn.test_accuracy:.3f} "
              f"resnet={resnet.test_accuracy:.3f} mlp12={mlp12.test_accuracy:.3f} "
              f"mlp2={mlp2.test_accuracy:.3f} probe_floor={probe_floor:.4f} "
              f"{'ok' if ok else 'FAIL'}")
        passes += ok
    assert passes >= 2, f"only {passes} of {len(SEEDS)} seeds met the thresholds"
    report(7, "Swiss-roll accuracies and Jacobian floor (3-seed majority)")


def test_criterion_08_tikhonov_analytics():
    model = inverse.ForwardModel(epsilon=0.25)
    assert abs(model.condition_number - 9.0) <= 1e-12
    rng = np.random.default_rng(80)
    for tau in 10.0 ** rng.uniform(-4, 2, size=20):
        rec = inverse.TikhonovReconstructor(model, float(tau))
        analytic = inverse.tikhonov_lipschitz(model, float(tau))
        assert abs(analytic - linalg.spectral_norm_oracle(rec.matrix)) <= 1e-10
    report(8, "Tikhonov Lipschitz curve matches the operator-norm oracle")


def test_criterion_09_inverse_ordering(inverse_runs):
    passes = 0
    for seed in SEEDS:
        result, _ = inverse_runs[seed]
        ok = (result.invnet_test_mse["optimal"] < result.best_tikhonov_test_mse
              and result.invnet_test_mse["triple"] < result.best_tikhonov_test_mse)
        print(f"  seed {seed}: tik={result.best_tikhonov_test_mse:.4f} "
              f"net(L*)={result.invnet_test_mse['optimal']:.4f} "
              f"net(3L*)={result.invnet_test_mse['triple']:.4f} "
              f"{'ok' if ok else 'FAIL'}")
        passes += ok
    assert passes >= 2
    report(9, "reconstruction networks beat the best Tikhonov test error")


def test_criterion_10_certification_attack_consistency(robust_runs):
    run = robust_runs[0]
    net = run.nets["nonexpansive"]
    bound = stability.composed_lipschitz_bound(net)
    certs = [stability.certified_radius(net, x, bound) for x in run.test_inputs]
    radii = np.array([c.radius for c in certs])
    clean = np.array([c.predicted_class for c in certs])
    certified_any = 0
    for eps, adv in run.attacked["nonexpansive"].items():
        preds = np.argmax(net.forward(adv), axis=1)
        certified = radii > eps
        certified_any += int(np.sum(certified))
        flipped = certified & (preds != clean)
        assert not np.any(flipped), f"certified point flipped at eps={eps}"
    assert len(run.attacked["nonexpansive"]) == len(experiments.ROBUST_EPSILONS)
    print(f"  certified point-eps pairs checked: {certified_any}")
    report(10, "no certified point is flipped by PGD within its radius")


def test_criterion_11_robust_desk_scale(robust_runs):
    passes = 0
    for seed in SEEDS:
        run = robust_runs[seed]
        clean_ok = (run.clean_accuracy["nonexpansive"] >= 0.80
                    and run.clean_accuracy["resnet"] >= 0.80)
        nonexp = dict((e, a) for e, a, _ in run.tables["nonexpansive"])
        resnet = dict((e, a) for e, a, _ in run.tables["resnet"])
        order_ok = all(nonexp[e] >= resnet[e]
                       for e in experiments.ROBUST_EPSILONS if e >= 0.5)
        print(f"  seed {seed}: clean nonexp={run.clean_accuracy['nonexpansive']:.3f} "
              f"resnet={run.clean_accuracy['resnet']:.3f} "
              f"order@eps>=0.5 {'ok' if order_ok else 'FAIL'}")
        passes += clean_ok and order_ok
    assert passes >= 2
    report(11, "desk-scale robustness: clean floor and ordering (2-of-3 seeds)")


def test_criterion_12_lyapunov_decrease(lyapunov_run):
    rows = np.asarray(lyapunov_run.v_series, dtype=float)
    for k in range(int(rows[:, 0].max()) + 1):
        series = rows[rows[:, 0] == k][:, 2]
        assert np.all(np.diff(series) <= 1e-7)
    potential = lyapunov_run.system.potential
    assert potential.value(lyapunov_run.equilibrium) == 0.0
    rng = np.random.default_rng(120)
    for _ in range(1000):
        offset = rng.standard_normal(2)
        offset *= rng.uniform(1e-3, 3.0) / np.linalg.norm(offset)
        assert potential.value(lyapunov_run.equilibrium + offset) > 0.0
    report(12, "fitted stable field never increases its potential")


def test_criterion_13_determinism(inverse_runs, robust_runs, swissroll_runs,
                                  tmp_path):
    def compare(dir_a, dir_b):
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for name in names:
            assert filecmp.cmp(os.path.join(dir_a, name),
                               os.path.join(dir_b, name), shallow=False), name

    # criteria 5 and 9 share the seed-0 inverse run
    a = tmp_path / "inverse_a"
    b = tmp_path / "inverse_b"
    a.mkdir(), b.mkdir()
    result, _ = inverse_runs[0]
    experiments.write_inverse_csvs(result, a)
    rerun = experiments.inverse_study(0, budgets=(("optimal", 1.0), ("triple", 3.0)))
    experiments.write_inverse_csvs(rerun, b)
    compare(a, b)

    a = tmp_path / "swiss_a"
    b = tmp_path / "swiss_b"
    a.mkdir(), b.mkdir()
    experiments.write_swissroll_csvs(swissroll_runs[("hnn", 12)][0], a)
    experiments.write_swissroll_csvs(
        experiments.swissroll_study("hnn", 12, 0, probe_every=100), b)
    compare(a, b)

    a = tmp_path / "robust_a"
    b = tmp_path / "robust_b"
    a.mkdir(), b.mkdir()
    experiments.write_robust_csvs(robust_runs[0], a)
    run0 = robust_runs[0]
    rerun = experiments.robust_study(
        # the stored test split is already pooled and flattened; rebuild the
        # training side identically from the corpus seed
        *_rebuild_split(0), 0, epochs=15)
    experiments.write_robust_csvs(rerun, b)
    compare(a, b)
    report(13, "seed-0 CSV artifacts are byte-identical across reruns")


_SPLIT_CACHE = {}


def _rebuild_split(seed):
    if seed not in _SPLIT_CACHE:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            corpus = experiments.make_synthetic_idx_corpus(tmp, n_train=6500,
                                                           n_test=600, seed=0)
            _SPLIT_CACHE[seed] = experiments.load_image_split(
                corpus["train_images"], corpus["train_labels"],
                corpus["test_images"], corpus["test_labels"],
                n_train=6000, n_test=500, seed=seed)
    return _SPLIT_CACHE[seed]
