import os
import tracemalloc

import numpy as np
import pytest

from conftest import (block_gradient_check, canonical_skew, fd_jacobian,
                      max_rel_err, nonexpansive_reference)
from stableflow import blocks, inverse, linalg
from stableflow.blocks import (ClampedScale, HamiltonianBlock, LiftLayer,
                               LinearLayer, MLPLayer, Network,
                               NonExpansiveBlock, ProjectLayer, ResidualBlock,
                               jacobian_norm_probe)
from stableflow.errors import InvalidInputError, InvalidStateError


def scalar_block(total_time=1.0, n_steps=1):
    block = NonExpansiveBlock(np.array([[1.0]]), np.array([0.0]),
                              total_time=total_time)
    block.n_steps = n_steps
    return block


# one small instance per entry of blocks.BLOCK_KINDS, all taking 4-vectors
KIND_MAKERS = {
    "nonexpansive": lambda rng: NonExpansiveBlock.random(4, 5, rng),
    "residual": lambda rng: ResidualBlock.random(4, 5, rng, h=0.6),
    "mlp": lambda rng: MLPLayer.random(4, 3, 5, rng, activation="tanh"),
    "hamiltonian": lambda rng: HamiltonianBlock.random(2, rng, h=0.8),
    "linear": lambda rng: LinearLayer.random(4, 3, rng),
    "lift": lambda rng: LiftLayer(4, 6),
    "project": lambda rng: ProjectLayer(4, 2),
    "scale": lambda rng: ClampedScale(4, value=0.7, bound=2.0),
}


def make_block(kind, rng):
    block = KIND_MAKERS[kind](rng)
    if isinstance(block, NonExpansiveBlock):
        block.n_steps = 3
    return block


class TestNonExpansiveBlock:
    def test_inactive_relu_is_identity(self):
        assert scalar_block().forward(np.array([-3.0]))[0] == -3.0

    def test_single_substep_hand_value(self):
        # 2 - 1 * 1 * relu(2) = 0
        assert scalar_block().forward(np.array([2.0]))[0] == 0.0

    def test_zero_substeps_rejected(self):
        block = scalar_block()
        block.n_steps = 0
        with pytest.raises(InvalidStateError):
            block.forward(np.array([1.0]))

    def test_one_lipschitz_under_step_constraint(self, rng):
        for _ in range(5):
            block = NonExpansiveBlock.random(6, 8, rng)
            block.n_steps = 3
            h = block.total_time / block.n_steps
            # rescale so the non-expansiveness condition ||W||^2 <= 2/h holds
            target = np.sqrt(2.0 / h) * rng.uniform(0.3, 0.999)
            block.weight *= target / linalg.spectral_norm_oracle(block.weight)
            xs = rng.uniform(-10, 10, (1000, 6))
            ys = rng.uniform(-10, 10, (1000, 6))
            gap_out = np.linalg.norm(block.forward(xs) - block.forward(ys), axis=1)
            gap_in = np.linalg.norm(xs - ys, axis=1)
            assert np.all(gap_out <= gap_in + 1e-9)

    def test_step_count_formula(self):
        # n_steps = max(1, ceil(T ||W||^2 / 2)), unpadded
        block = NonExpansiveBlock(np.eye(2), np.zeros(2))
        for sigma, expected in ((0.0, 1), (1.0, 1), (2.0, 2), (np.sqrt(5.98), 3)):
            block.weight[:] = np.diag([sigma, 0.5 * sigma])
            assert block.refresh_spectral() == expected, sigma
            assert block.n_steps == expected
        assert NonExpansiveBlock(np.diag([2.0, 1.0]), np.zeros(2),
                                 total_time=3.0).n_steps == 6

    def test_lipschitz_bound_beyond_step_constraint(self):
        # h * w^2 = 9: on x > 0 the step is x - 9x = -8x, so the bound is 8
        # per sub-step; within h * w^2 <= 2 it is exactly 1
        block = NonExpansiveBlock(np.array([[3.0]]), np.array([0.0]))
        block.n_steps = 1
        assert block.lipschitz_bound() == 8.0
        gap = block.forward(np.array([2.0])) - block.forward(np.array([1.0]))
        assert abs(gap[0]) == 8.0
        block.n_steps = 2
        assert block.lipschitz_bound() == 3.5 ** 2
        block.n_steps = 5
        assert block.lipschitz_bound() == 1.0

    def test_zero_weight_keeps_single_step(self):
        block = NonExpansiveBlock(np.zeros((4, 4)), np.zeros(4))
        assert block.n_steps == 1
        assert block.refresh_spectral() == 1

    def test_stored_step_count_skips_the_norm(self, monkeypatch):
        monkeypatch.setattr(linalg, "spectral_norm", None)  # any call fails
        block = NonExpansiveBlock(3.0 * np.eye(2), np.zeros(2), n_steps="2")
        assert block.n_steps == 2
        with pytest.raises(InvalidInputError):
            NonExpansiveBlock(np.eye(2), np.zeros(2), n_steps=0)

    def test_refresh_step_counts_match_the_per_block_formula(self, rng):
        shapes = [(10, 10), (12, 10), (7, 20), (10, 10), (7, 20), (12, 10), (10, 10)]
        group = []
        for k, shape in enumerate(shapes):
            weight = rng.standard_normal(shape) * rng.uniform(0.2, 2.0)
            if k == 3:
                weight[:] = 0.0
            group.append(NonExpansiveBlock(weight, np.zeros(shape[0]),
                                           total_time=0.5 + k, n_steps=99))
        expected = []
        for block in group:
            norm = linalg.spectral_norm(block.weight)
            expected.append(max(1, int(np.ceil(block.total_time * norm * norm / 2.0))))
        assert blocks.refresh_step_counts(group) == expected
        assert [block.n_steps for block in group] == expected
        assert expected[3] == 1 and len(set(expected)) > 2
        assert [block.refresh_spectral() for block in group] == expected

    def test_potential_field_lipschitz_bound(self, rng):
        # the underlying vector field W^T relu(Wx + b) is ||W||^2-Lipschitz
        block = NonExpansiveBlock.random(4, 6, rng)
        lim = linalg.spectral_norm_oracle(block.weight) ** 2
        xs = rng.uniform(-10, 10, (10000, 4))
        ys = rng.uniform(-10, 10, (10000, 4))

        def field(v):
            return blocks.relu(v @ block.weight.T + block.bias) @ block.weight

        ratios = (np.linalg.norm(field(xs) - field(ys), axis=1)
                  / np.linalg.norm(xs - ys, axis=1))
        assert np.max(ratios) <= lim + 1e-6


@pytest.mark.parametrize("n_steps", [1, 2, 3, 8])
@pytest.mark.parametrize("hidden", [12, 7, 20])
@pytest.mark.parametrize("shape", [(12,), (5, 12)], ids=["vector", "rows"])
def test_preactivation_substeps_match_reference(rng, n_steps, hidden, shape):
    block = NonExpansiveBlock.random(12, hidden, rng)
    block.n_steps = n_steps
    x = rng.standard_normal(shape) * 2.0
    g = rng.standard_normal(shape)
    y_ref, gx_ref, grads_ref = nonexpansive_reference(block, x, g)
    y, cache = block.forward_with_cache(x)
    assert np.shape(y) == shape
    assert max_rel_err(y, y_ref) <= 1e-12
    assert max_rel_err(block.forward(x), y_ref) <= 1e-12
    gx, grads = block.backward(cache, g)
    gx_only, _ = block.backward(cache, g, params=False)
    assert np.shape(gx) == shape
    assert max_rel_err(gx, gx_ref) <= 1e-12
    assert max_rel_err(gx_only, gx_ref) <= 1e-12
    for name in ("weight", "bias"):
        assert max_rel_err(grads[name], grads_ref[name]) <= 1e-12, name


class TestHamiltonianBlock:
    def test_zero_weights_identity(self, rng):
        block = HamiltonianBlock(np.zeros((2, 2)), np.zeros(2),
                                 np.zeros((2, 2)), np.zeros(2), h=0.7)
        x = rng.standard_normal(4)
        assert np.array_equal(block.forward(x), x)

    def test_scalar_hand_value(self):
        block = HamiltonianBlock(np.array([[1.0]]), np.array([0.0]),
                                 np.array([[1.0]]), np.array([0.0]),
                                 h=0.5, activation="tanh")
        out = block.forward(np.array([0.0, 1.0]))
        # q_hat = 0.5 tanh(1); p_new = 1 - 0.5 tanh(q_hat), evaluated at
        # 25-digit precision beforehand
        assert abs(out[0] - 0.3807970779778824) <= 1e-15
        assert abs(out[1] - 0.8183002578054738) <= 1e-15

    def test_jacobian_is_symplectic(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            block = HamiltonianBlock.random(d, rng, h=float(rng.uniform(0.2, 1.5)))
            x = rng.standard_normal(2 * d)
            jac = fd_jacobian(block.forward, x)
            skew = canonical_skew(d)
            assert np.max(np.abs(jac.T @ skew @ jac - skew)) <= 1e-6
            assert linalg.spectral_norm_oracle(jac) >= 1.0 - 1e-6
            assert abs(abs(np.linalg.det(jac)) - 1.0) <= 1e-6

    def test_odd_dimension_rejected(self, rng):
        block = HamiltonianBlock.random(2, rng, h=0.5)
        with pytest.raises(InvalidInputError):
            block.forward(np.ones(3))


class TestBackward:
    def test_linear_layer_matches_least_squares_gradient(self, rng):
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        layer = LinearLayer(w, b)
        x = rng.standard_normal(4)
        y = rng.standard_normal(3)
        out, cache = layer.forward_with_cache(x)
        residual = out - y
        _, grads = layer.backward(cache, 2.0 * residual)
        assert np.allclose(grads["weight"], 2.0 * np.outer(residual, x), atol=1e-12)
        assert np.allclose(grads["bias"], 2.0 * residual, atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda rng: NonExpansiveBlock.random(4, 5, rng),
        lambda rng: ResidualBlock.random(4, 5, rng, h=0.6),
        lambda rng: MLPLayer.random(4, 3, 5, rng, activation="tanh"),
        lambda rng: MLPLayer.random(4, 3, 5, rng, activation="relu"),
        lambda rng: HamiltonianBlock.random(2, rng, h=0.8),
        lambda rng: LinearLayer.random(4, 3, rng),
        lambda rng: LiftLayer(4, 6),
        lambda rng: ProjectLayer(4, 2),
        lambda rng: ClampedScale(4, value=0.7, bound=2.0),
    ])
    def test_gradients_match_finite_differences(self, rng, make):
        for _ in range(5):
            block = make(rng)
            if isinstance(block, NonExpansiveBlock):
                block.n_steps = 2
            x = rng.standard_normal((2, 4)) * 1.5
            weights = rng.standard_normal(block.dim_out)
            assert block_gradient_check(block, x, weights) <= 1e-5

    def test_zero_upstream_gives_zero_gradients(self, rng):
        block = ResidualBlock.random(3, 4, rng)
        x = rng.standard_normal(3)
        _, cache = block.forward_with_cache(x)
        gin, grads = block.backward(cache, np.zeros(3))
        assert np.all(gin == 0.0)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_stale_cache_rejected(self, rng):
        net = Network([LinearLayer.random(3, 3, rng)])
        _, cache = net.forward_with_cache(rng.standard_normal(3))
        net.mark_params_updated()
        with pytest.raises(InvalidStateError):
            net.backward(cache, np.zeros(3))


@pytest.mark.parametrize("kind", sorted(blocks.BLOCK_KINDS))
@pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["vector", "rows"])
class TestInferencePaths:
    def test_plain_forward_matches_cached_forward(self, rng, kind, shape):
        block = make_block(kind, rng)
        x = rng.standard_normal(shape)
        y, _ = block.forward_with_cache(x)
        assert np.array_equal(block.forward(x), y)
        y_plain, no_cache = block.forward_with_cache(x, keep_cache=False)
        assert np.array_equal(y_plain, y)
        assert no_cache is None

    def test_input_only_backward_matches_full(self, rng, kind, shape):
        block = make_block(kind, rng)
        y, cache = block.forward_with_cache(rng.standard_normal(shape))
        g = rng.standard_normal(np.shape(y))
        gin, grads = block.backward(cache, g)
        gin_only, no_grads = block.backward(cache, g, params=False)
        assert np.shape(gin_only) == shape
        assert np.array_equal(gin_only, gin)
        assert no_grads is None
        assert sorted(grads) == sorted(block.param_names)


class TestPlainForwardMemory:
    def test_nonexpansive_forward_keeps_no_substeps(self):
        rng = np.random.default_rng(0)
        block = NonExpansiveBlock.random(196, 196, rng)
        block.n_steps = 8
        xs = rng.standard_normal((4000, 196))
        before = xs.copy()

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1] / xs.nbytes
            finally:
                tracemalloc.stop()

        # the cached forward holds every sub-step's relu(z) and no more than
        # a few other rows: the probe sees both
        cached = peak(lambda: block.forward_with_cache(xs))
        assert cached >= block.n_steps
        assert cached <= block.n_steps + 4
        assert peak(lambda: block.forward(xs)) < 6
        assert np.array_equal(xs, before)


class TestConstructors:
    @pytest.mark.parametrize("make", [
        lambda: ResidualBlock(np.ones(4), np.ones((4, 1)), np.ones(1)),
        lambda: MLPLayer(np.ones((3, 4)), np.ones(3), np.ones(3)),
        lambda: HamiltonianBlock(np.ones(2), np.ones(2), np.ones((2, 2)), np.ones(2),
                                 h=1.0),
    ], ids=["residual", "mlp", "hamiltonian"])
    def test_vector_for_a_weight_matrix_rejected(self, make):
        with pytest.raises(InvalidInputError):
            make()

    def test_checkpoint_with_a_vector_weight_rejected(self, rng, tmp_path):
        blocks.save_network(Network([ResidualBlock.random(4, 5, rng)]), tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("shape_weight_out=4x5",
                                                         "shape_weight_out=4"))
        linalg.save_vector(tmp_path / "block0_weight_out.txt", np.ones(4))
        with pytest.raises(InvalidInputError):
            blocks.load_network(tmp_path)


class TestNetwork:
    def test_input_only_backward_matches_full(self, rng):
        net = Network([NonExpansiveBlock.random(4, 5, rng),
                       HamiltonianBlock.random(2, rng, h=0.5),
                       MLPLayer.random(4, 3, 5, rng)])
        y, cache = net.forward_with_cache(rng.standard_normal((6, 4)))
        g = rng.standard_normal(y.shape)
        gin, grads = net.backward(cache, g)
        gin_only, no_grads = net.backward(cache, g, params=False)
        assert np.array_equal(gin_only, gin)
        assert no_grads is None
        assert len(grads) == 3

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            Network([LinearLayer.random(3, 4, rng), LinearLayer.random(3, 2, rng)])

    def test_project_after_lift_is_identity(self, rng):
        net = Network([LiftLayer(3, 8), ProjectLayer(8, 3)])
        x = rng.standard_normal((5, 3))
        assert np.array_equal(net.forward(x), x)

    def test_lift_preserves_norm_project_contracts(self, rng):
        x = rng.standard_normal(4)
        lifted = LiftLayer(4, 9).forward(x)
        assert np.linalg.norm(lifted) == np.linalg.norm(x)
        projected = ProjectLayer(4, 2).forward(x)
        assert np.linalg.norm(projected) <= np.linalg.norm(x)

    def test_composition_respects_clamped_scale_budget(self, rng):
        scale_bound = 1.7
        layers = [NonExpansiveBlock.random(5, 6, rng) for _ in range(3)]
        scale = ClampedScale(5, value=3.0, bound=scale_bound)  # clamps to 1.7
        net = Network(layers + [scale])
        xs = rng.uniform(-5, 5, (2000, 5))
        ys = rng.uniform(-5, 5, (2000, 5))
        gap_out = np.linalg.norm(net.forward(xs) - net.forward(ys), axis=1)
        gap_in = np.linalg.norm(xs - ys, axis=1)
        assert np.all(gap_out <= scale_bound * gap_in + 1e-9)

    def test_checkpoint_round_trip(self, rng, tmp_path):
        nonexpansive = NonExpansiveBlock.random(6, 5, rng)
        nonexpansive.n_steps = 7
        net = Network([
            LiftLayer(2, 6),
            nonexpansive,
            ResidualBlock.random(6, 4, rng, h=0.3),
            HamiltonianBlock.random(3, rng, h=0.4),
            MLPLayer.random(6, 6, 5, rng, activation="relu"),
            LinearLayer.random(6, 4, rng),
            ProjectLayer(4, 3),
            ClampedScale(3, value=0.4, bound=1.2),
        ], lipschitz_budget=1.2)
        first, second = tmp_path / "ckpt", tmp_path / "resaved"
        blocks.save_network(net, first)
        assert (first / "manifest.txt").read_text() == (
            "stableflow-network 8\n"
            "lipschitz_budget 1.2\n"
            "0 lift dim_in=2 dim_out=6\n"
            "1 nonexpansive total_time=1.0 n_steps=7 "
            "shape_weight=5x6 shape_bias=5\n"
            "2 residual h=0.3 shape_weight_in=4x6 shape_weight_out=6x4 shape_bias=4\n"
            "3 hamiltonian h=0.4 activation=tanh shape_kin_weight=3x3 "
            "shape_kin_bias=3 shape_pot_weight=3x3 shape_pot_bias=3\n"
            "4 mlp activation=relu shape_weight_in=5x6 shape_weight_out=6x5 "
            "shape_bias=5\n"
            "5 linear shape_weight=4x6 shape_bias=4\n"
            "6 project dim_in=4 dim_out=3\n"
            "7 scale dim=3 bound=1.2 shape_value=1\n")
        loaded = blocks.load_network(first)
        assert loaded.lipschitz_budget == 1.2
        x = rng.standard_normal((7, 2))
        assert np.array_equal(loaded.forward(x), net.forward(x))
        blocks.save_network(loaded, second)
        assert sorted(os.listdir(second)) == sorted(os.listdir(first))
        for name in os.listdir(first):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
        # checkpoints that still carry the retired norm_inflation attribute
        # load with their stored step count
        manifest = first / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            "total_time=1.0 n_steps=7", "total_time=1.0 norm_inflation=1.01 n_steps=7"))
        older = blocks.load_network(first)
        assert older.blocks[1].n_steps == 7
        assert np.array_equal(older.forward(x), net.forward(x))

    def test_checkpoint_load_keeps_stored_counts_without_a_norm(self, tmp_path, monkeypatch):
        # weights x3 break the stored counts' step constraint; the loader
        # must keep the counts and run no eigensolve to discard
        net = inverse.build_invnet(2.0, seed=0)
        for block in net.nonexpansive_blocks():
            block.weight *= 3.0
        blocks.save_network(net, tmp_path)
        stored = [block.n_steps for block in net.nonexpansive_blocks()]
        calls = []
        monkeypatch.setattr(linalg, "spectral_norm", lambda a: calls.append(a))
        loaded = blocks.load_network(tmp_path).nonexpansive_blocks()
        monkeypatch.undo()
        assert calls == []
        assert [block.n_steps for block in loaded] == stored
        refreshed = blocks.refresh_step_counts(loaded)
        assert all(n > m for n, m in zip(refreshed, stored))


class TestJacobianNormProbe:
    def test_identity_subnetwork(self, rng):
        net = Network([LiftLayer(4, 7), ProjectLayer(7, 4)])
        value = jacobian_norm_probe(net, rng.standard_normal(4), 0, 2)
        assert abs(value - 1.0) <= 1e-8

    def test_hamiltonian_stack_never_attenuates(self, rng):
        net = Network([HamiltonianBlock.random(2, rng, h=0.4) for _ in range(6)])
        value = jacobian_norm_probe(net, rng.standard_normal(4), 0, 6)
        assert value >= 1.0 - 1e-6

    def test_small_mlp_bounded_by_layer_norm_product(self, rng):
        layers = [MLPLayer.random(4, 4, 5, rng, activation="tanh") for _ in range(4)]
        for layer in layers:
            layer.weight_in *= 0.3
            layer.weight_out *= 0.3
        net = Network(layers)
        x = rng.standard_normal(4)
        states = net.states(x)
        product = 1.0
        for i in range(4):
            jac = fd_jacobian(layers[i].forward, states[i])
            product *= linalg.spectral_norm_oracle(jac)
        value = jacobian_norm_probe(net, x, 0, 4)
        assert value <= product + 1e-6

    def test_linear_stack_matches_product_norm(self, rng):
        first, second = LinearLayer.random(5, 4, rng), LinearLayer.random(4, 3, rng)
        value = jacobian_norm_probe(Network([first, second]), rng.standard_normal(5), 0, 2)
        exact = np.linalg.norm(second.weight @ first.weight, 2)
        assert abs(value - exact) <= 1e-12 * exact

    def test_close_top_singular_values_match_svd(self):
        # the top two singular values of this Jacobian are close, so a
        # power iteration creeps up on the norm from below
        rng = np.random.default_rng(0)
        net = Network([HamiltonianBlock.random(2, rng, h=0.4) for _ in range(6)])
        x = rng.standard_normal(4)
        state = net.forward(x, 0, 5)
        jac = fd_jacobian(lambda v: net.forward(v, 5, 6), state)
        exact = np.linalg.norm(jac, 2)
        assert abs(jacobian_norm_probe(net, x, 5, 6) - exact) <= 1e-6 * exact

    def test_invalid_range_rejected(self, rng):
        net = Network([LiftLayer(2, 3)])
        with pytest.raises(InvalidInputError):
            jacobian_norm_probe(net, rng.standard_normal(2), 1, 0)
