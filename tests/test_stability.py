import numpy as np
import pytest

from stableflow import inverse, linalg, ode, stability
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
