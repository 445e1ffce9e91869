import numpy as np
import pytest

from conftest import fd_param_gradient

from stableflow import experiments, inverse, linalg, ode, stability
from stableflow.blocks import (ClampedScale, LinearLayer, MLPLayer, Network,
                               NonExpansiveBlock)
from stableflow.errors import DegenerateGradientError, InvalidInputError


class TestMargin:
    def test_clear_winner(self):
        assert stability.margin(np.array([3.0, 1.0, 0.0])) == (0, 2.0)

    def test_tie_gives_zero_margin_and_lowest_index(self):
        assert stability.margin(np.array([1.0, 1.0])) == (0, 0.0)

    def test_single_logit_rejected(self):
        with pytest.raises(InvalidInputError):
            stability.margin(np.array([1.0]))

    def test_permutation_equivariance(self, rng):
        for _ in range(200):
            logits = rng.standard_normal(6)
            perm = rng.permutation(6)
            cls, m = stability.margin(logits)
            cls_p, m_p = stability.margin(logits[perm])
            assert m_p == m
            assert logits[perm][cls_p] == logits[cls]


class TestCertifiedRadius:
    def _net(self, rng):
        return Network([LinearLayer.random(4, 3, rng)])

    def test_zero_margin_zero_radius(self, rng):
        net = Network([LinearLayer(np.zeros((2, 3)), np.zeros(2))])
        cert = stability.certified_radius(net, rng.standard_normal(3), 1.0)
        assert cert.margin == 0.0 and cert.radius == 0.0

    def test_radius_formula(self, rng):
        net = self._net(rng)
        x = rng.standard_normal(4)
        bound = 2.5
        cert = stability.certified_radius(net, x, bound)
        assert cert.radius == cert.margin / (2.0 * bound)

    def test_nonpositive_bound_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            stability.certified_radius(self._net(rng), np.zeros(4), 0.0)

    def test_no_class_change_inside_radius(self, rng):
        net = self._net(rng)
        bound = stability.composed_lipschitz_bound(net)
        for _ in range(10):
            x = rng.standard_normal(4)
            cert = stability.certified_radius(net, x, bound)
            if cert.radius == 0.0:
                continue
            directions = rng.standard_normal((100, 4))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            radii = rng.uniform(0, cert.radius * (1 - 1e-6), size=(100, 1))
            probes = x + radii * directions
            preds = np.argmax(net.forward(probes), axis=1)
            assert np.all(preds == cert.predicted_class)

    def test_csv_export(self, rng, tmp_path):
        net = self._net(rng)
        certs = [stability.certified_radius(net, rng.standard_normal(4), 2.0)
                 for _ in range(3)]
        path = tmp_path / "certs.csv"
        stability.certificates_to_csv(path, certs)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,class,margin,lipschitz_bound,radius"
        assert len(lines) == 4


class TestComposedLipschitzBound:
    def test_nonexpansive_stack_with_scale(self, rng):
        layers = [NonExpansiveBlock.random(5, 6, rng) for _ in range(5)]
        net = Network(layers + [ClampedScale(5, value=9.0, bound=1.9)])
        assert abs(stability.composed_lipschitz_bound(net) - 1.9) <= 1e-12

    def test_single_linear_layer_matches_svd(self, rng):
        layer = LinearLayer.random(6, 4, rng)
        net = Network([layer])
        svd_norm = np.linalg.norm(layer.weight, 2)
        assert abs(stability.composed_lipschitz_bound(net) - svd_norm) <= 1e-6
        # sigma_1 = 1, sigma_2 = 0.999: a power method stays below sigma_1
        q1, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        q2, _ = np.linalg.qr(rng.standard_normal((196, 196)))
        values = np.concatenate([[1.0, 0.999], np.sort(rng.uniform(0.1, 0.9, 8))[::-1]])
        near = LinearLayer((q1 * values) @ q2[:10], np.zeros(10))
        assert near.lipschitz_bound() >= np.linalg.norm(near.weight, 2)

    def test_bound_covers_blocks_that_break_the_step_constraint(self, rng):
        net = inverse.build_invnet(2.0, seed=0)
        for block in net.nonexpansive_blocks():
            block.weight *= 3.0
        bound = stability.composed_lipschitz_bound(net)
        xs = rng.uniform(-10, 10, (10000, 2))
        ys = rng.uniform(-10, 10, (10000, 2))
        ratio = (np.linalg.norm(net.forward(xs) - net.forward(ys), axis=1)
                 / np.linalg.norm(xs - ys, axis=1))
        assert 1.0 < np.max(ratio) <= bound

    def test_empirical_ratio_never_exceeds_bound(self, rng):
        net = Network([NonExpansiveBlock.random(4, 5, rng),
                       LinearLayer.random(4, 4, rng),
                       MLPLayer.random(4, 3, 6, rng, activation="relu")])
        bound = stability.composed_lipschitz_bound(net)
        xs = rng.uniform(-3, 3, (100000, 4))
        ys = rng.uniform(-3, 3, (100000, 4))
        ratio = (np.linalg.norm(net.forward(xs) - net.forward(ys), axis=1)
                 / np.linalg.norm(xs - ys, axis=1))
        assert np.max(ratio) <= bound + 1e-9


class TestOneSidedLipschitz:
    def test_linear_decay(self, rng):
        field = ode.VectorField(3, lambda t, x: -x)
        est = stability.one_sided_lipschitz_estimate(field, rng.standard_normal((5, 3)))
        assert abs(est + 1.0) <= 1e-6

    def test_linear_growth(self, rng):
        field = ode.VectorField(3, lambda t, x: 2.0 * x)
        est = stability.one_sided_lipschitz_estimate(field, rng.standard_normal((5, 3)))
        assert abs(est - 2.0) <= 1e-6

    def test_gradient_flow_field_is_nonexpansive(self, rng):
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        field = ode.VectorField(
            3, lambda t, x: -(w.T @ np.maximum(w @ x + b, 0.0)))
        est = stability.one_sided_lipschitz_estimate(
            field, rng.standard_normal((30, 3)))
        assert est <= 1e-6

    def test_contractive_field_has_unique_attractor(self, rng):
        s = rng.standard_normal((4, 4))
        s = s - s.T
        a = -(np.eye(4) + s)
        for _ in range(100):
            x = rng.uniform(-5, 5, 4)
            for _ in range(20):
                x = ode.exact_linear_flow(a, x, 1.0)
            assert np.linalg.norm(x) <= 1e-6


def hand_system(rng, mu=1.5):
    potential = stability.ConvexPotential(rng.standard_normal((6, 2)),
                                          center=np.array([0.5, -0.25]))
    w1 = rng.standard_normal((2, 2))

    def base(x):
        return np.tanh(x @ w1.T) - np.tanh(potential.center @ w1.T)

    return stability.LyapunovSystem(base_field=base, potential=potential, mu=mu)


class TestLyapunovProject:
    def test_inactive_branch_returns_base_field_exactly(self, rng):
        system = hand_system(rng)
        hits = 0
        for _ in range(500):
            x = system.equilibrium + rng.standard_normal(2)
            g = system.potential.grad(x)
            score = (np.dot(g, system.base_field(x))
                     + system.mu * system.potential.value(x))
            if score <= 0:
                hits += 1
                out = stability.lyapunov_project(system, x)
                assert np.array_equal(out, np.asarray(system.base_field(x)))
        assert hits > 0

    def test_active_branch_decrease_identity(self, rng):
        system = hand_system(rng)
        checked = 0
        for _ in range(500):
            x = system.equilibrium + rng.standard_normal(2)
            g = system.potential.grad(x)
            value = system.potential.value(x)
            if np.dot(g, system.base_field(x)) + system.mu * value > 0:
                out = stability.lyapunov_project(system, x)
                assert abs(np.dot(g, out) + system.mu * value) <= 1e-9
                checked += 1
        assert checked > 0

    def test_decrease_along_euler_flow(self, rng):
        system = hand_system(rng)
        field = stability.lyapunov_field(system)
        for _ in range(100):
            x = system.equilibrium + rng.standard_normal(2)
            v_prev = system.potential.value(x)
            for _ in range(200):
                x = ode.euler_step(field, 0.0, x, 1e-3)
                v = system.potential.value(x)
                assert v <= v_prev + 1e-7
                v_prev = v

    def test_equilibrium_returns_base_field(self, rng):
        system = hand_system(rng)
        out = stability.lyapunov_project(system, system.equilibrium)
        assert np.array_equal(out, np.asarray(system.base_field(system.equilibrium)))

    def test_degenerate_gradient_away_from_equilibrium(self, rng):
        # near (but not at) the equilibrium, inside the relu-inactive cone,
        # ||grad V||^2 = 4 eps^2 r^2 can drop below the tolerance
        potential = stability.ConvexPotential(np.array([[1.0, 0.0]]),
                                              center=np.zeros(2))
        system = stability.LyapunovSystem(base_field=lambda x: -x,
                                          potential=potential, mu=1.0)
        x = np.array([-1e-5, 0.0])  # relu arm inactive here
        assert np.dot(potential.grad(x), potential.grad(x)) < 1e-12
        with pytest.raises(DegenerateGradientError):
            stability.lyapunov_project(system, x)


def fit_problem(rng, n=40):
    """A small projected-field fit as lyapunov_study sets it up, with its
    samples kept off the relu kinks of V and off the projection's switch."""
    x_bar = np.array([0.4, -0.3])
    mlp = Network([MLPLayer.random(2, 2, 8, rng, activation="tanh")])
    mlp.blocks[0].weight_out *= 3.0  # strong enough to leave some rows unprojected
    angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    potential = stability.ConvexPotential(
        0.7 * np.column_stack([np.cos(angles), np.sin(angles)]), center=x_bar)
    system = stability.LyapunovSystem(base_field=None, potential=potential, mu=0.5)
    samples = x_bar + rng.standard_normal((4 * n, 2))
    u = samples - x_bar
    xhat = mlp.forward(samples) - mlp.forward(x_bar)
    g = potential.grad(samples)
    switch = np.sum(g * xhat, axis=1) + system.mu * potential.value(samples)
    clear = (np.min(np.abs(u @ potential.weights.T), axis=1) > 1e-3) & (np.abs(switch) > 1e-3)
    samples = samples[clear][:n]
    targets = (samples - x_bar) @ np.array([[-0.5, 1.2], [-1.2, -0.5]]).T
    return mlp, system, x_bar, samples, targets


class TestProjectionRows:
    def test_fit_gradients_match_finite_differences(self, rng):
        mlp, system, x_bar, samples, targets = fit_problem(rng)
        _, cache = stability.lyapunov_project_with_cache(
            system, samples, mlp.forward(samples) - mlp.forward(x_bar))
        active = cache[-1] > 0
        assert 0 < np.sum(active) < len(samples)  # both branches are exercised
        _, grads = experiments.lyapunov_fit_loss(mlp, system, x_bar, samples, targets)
        arrays = [arr for _, _, arr in mlp.parameters()] + [system.potential.weights]

        def loss():
            return experiments.lyapunov_fit_loss(mlp, system, x_bar, samples, targets)[0]

        fd = [fd_param_gradient(loss, arr) for arr in arrays]
        for group in (slice(0, -1), slice(-1, None)):  # the MLP, then the potential
            exact = np.concatenate([g.ravel() for g in grads[group]])
            approx = np.concatenate([g.ravel() for g in fd[group]])
            assert np.linalg.norm(approx - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_rows_match_per_row_calls(self, rng):
        system = hand_system(rng)
        pot = system.potential
        xs = system.equilibrium + rng.standard_normal((50, 2))
        values = pot.value(xs)
        assert isinstance(pot.value(xs[0]), float) and values.shape == (50,)
        np.testing.assert_allclose(values, [pot.value(x) for x in xs], rtol=1e-13, atol=0)
        np.testing.assert_allclose(pot.grad(xs), [pot.grad(x) for x in xs],
                                   rtol=1e-13, atol=1e-15)
        out, cache = stability.lyapunov_project_with_cache(system, xs, system.base_field(xs))
        assert 0 < np.sum(cache[-1] > 0) < len(xs)
        np.testing.assert_allclose(out, [stability.lyapunov_project(system, x) for x in xs],
                                   rtol=1e-13, atol=1e-15)
        upstream = rng.standard_normal(xs.shape)
        base_up, w_grad = stability.lyapunov_project_vjp(system, cache, upstream)
        per_row = [stability.lyapunov_project_vjp(
            system, stability.lyapunov_project_with_cache(
                system, x[None], system.base_field(x[None]))[1], e[None])
            for x, e in zip(xs, upstream)]
        np.testing.assert_allclose(base_up, [b[0] for b, _ in per_row],
                                   rtol=1e-13, atol=1e-15)
        total = sum(w for _, w in per_row)
        assert np.max(np.abs(w_grad - total)) <= 1e-13 * np.max(np.abs(total))

    def test_degenerate_row_in_a_stack_raises(self):
        potential = stability.ConvexPotential(np.array([[1.0, 0.0]]), center=np.zeros(2))
        system = stability.LyapunovSystem(base_field=lambda x: -x, potential=potential,
                                          mu=1.0)
        xs = np.array([[1.0, 1.0], [-1e-5, 0.0], [0.5, -0.3]])
        with pytest.raises(DegenerateGradientError):
            stability.lyapunov_project(system, xs)

    def test_equilibrium_row_in_a_stack_keeps_the_base_field(self):
        potential = stability.ConvexPotential(np.array([[1.0, 0.0]]), center=np.zeros(2))
        system = stability.LyapunovSystem(base_field=lambda x: 1.0 - x,
                                          potential=potential, mu=1.0)
        xs = np.array([[0.0, 0.0], [1.5, 0.5]])
        out = stability.lyapunov_project(system, xs)
        assert np.array_equal(out[0], np.ones(2))
        assert np.array_equal(out[1], stability.lyapunov_project(system, xs[1]))

    def test_vjp_takes_rows_only(self, rng):
        system = hand_system(rng)
        x = system.equilibrium + rng.standard_normal(2)
        _, cache = stability.lyapunov_project_with_cache(system, x, system.base_field(x))
        with pytest.raises(InvalidInputError):
            stability.lyapunov_project_vjp(system, cache, np.ones(2))
