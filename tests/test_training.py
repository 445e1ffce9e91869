import numpy as np
import pytest

from conftest import fd_input_gradient
from stableflow import training
from stableflow.blocks import LinearLayer, Network, NonExpansiveBlock
from stableflow.errors import DivergedTrainingError, InvalidInputError
from stableflow.training import (AdamState, TrainConfig, adam_step,
                                 margin_cross_entropy, mse_loss, one_cycle_lr,
                                 sgd_step, train)


class TestLosses:
    def test_mse_at_target_is_zero(self):
        value, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert value == 0.0 and np.all(grad == 0.0)

    def test_mse_hand_value(self):
        value, grad = mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert value == 1.0
        assert np.array_equal(grad, [2.0, 0.0])

    def test_mse_gradient_matches_finite_differences(self, rng):
        target = rng.standard_normal(5)
        pred = rng.standard_normal(5)
        _, grad = mse_loss(pred, target)
        fd = fd_input_gradient(lambda p: mse_loss(p, target)[0], pred)
        assert np.max(np.abs(fd - grad)) <= 1e-7

    def test_uniform_logits_give_log_n_classes(self):
        value, _ = margin_cross_entropy(np.zeros(3), 0, margin_offset=0.0)
        assert abs(value - np.log(3.0)) <= 1e-12

    def test_margin_gradient_sums_to_zero(self, rng):
        for _ in range(20):
            logits = rng.standard_normal(7)
            _, grad = margin_cross_entropy(logits, int(rng.integers(7)), 0.5)
            assert abs(np.sum(grad)) <= 1e-12

    def test_margin_gradient_matches_finite_differences(self, rng):
        for offset in (0.0, 0.5):
            logits = rng.standard_normal(5)
            _, grad = margin_cross_entropy(logits, 2, offset)
            fd = fd_input_gradient(
                lambda z: margin_cross_entropy(z, 2, offset)[0], logits)
            assert np.max(np.abs(fd - grad)) <= 1e-6

    def test_offset_increases_loss_on_true_class(self, rng):
        logits = rng.standard_normal(4)
        base, _ = margin_cross_entropy(logits, 1, 0.0)
        pushed, _ = margin_cross_entropy(logits, 1, 0.5)
        assert pushed > base

    def test_batch_variants_match_singles(self, rng):
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        value, grad = training.batch_margin_cross_entropy(logits, labels, 0.3)
        singles = [margin_cross_entropy(l, int(y), 0.3) for l, y in zip(logits, labels)]
        assert abs(value - np.mean([v for v, _ in singles])) <= 1e-12
        stacked = np.stack([g for _, g in singles]) / 6
        assert np.max(np.abs(grad - stacked)) <= 1e-12


class TestOptimisers:
    def test_sgd_step(self):
        params = [np.array([1.0, 2.0])]
        sgd_step(params, [np.array([0.5, -1.0])], lr=0.1)
        assert np.allclose(params[0], [0.95, 2.1])

    def test_adam_first_step_is_normalised_gradient(self, rng):
        g = rng.standard_normal(6)
        params = [np.zeros(6)]
        state = AdamState.for_params(params)
        adam_step(state, params, [g.copy()], lr=0.01)
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.max(np.abs(params[0] - expected)) <= 1e-15

    def test_adam_equal_gradients_give_equal_steps(self, rng):
        # with a constant gradient the bias correction makes every step
        # identical: m_hat = g and v_hat = g^2 at every t
        g = rng.standard_normal(4)
        params = [np.zeros(4)]
        state = AdamState.for_params(params)
        adam_step(state, params, [g.copy()], lr=0.05)
        first = params[0].copy()
        adam_step(state, params, [g.copy()], lr=0.05)
        second = params[0] - first
        assert np.max(np.abs(np.abs(second) - np.abs(first))) <= 1e-15

    def test_adam_zero_gradient_is_noop(self):
        params = [np.array([3.0, -1.0])]
        state = AdamState.for_params(params)
        adam_step(state, params, [np.zeros(2)], lr=0.1, weight_decay=0.0)
        assert np.array_equal(params[0], [3.0, -1.0])

    def test_weight_decay_shrinks_parameters(self):
        params = [np.array([10.0])]
        state = AdamState.for_params(params)
        adam_step(state, params, [np.zeros(1)], lr=0.1, weight_decay=1e-2)
        assert params[0][0] < 10.0


class TestOneCycle:
    def test_starts_at_minimum(self):
        assert one_cycle_lr(0, 1000, 1e-4, 1e-2) == 1e-4

    def test_peaks_at_warmup_end(self):
        assert abs(one_cycle_lr(300, 1000, 1e-4, 1e-2) - 1e-2) <= 1e-18

    def test_ends_at_minimum(self):
        assert abs(one_cycle_lr(1000, 1000, 1e-4, 1e-2) - 1e-4) <= 1e-12

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(iterations=10, lr_min=1.0, lr_peak=0.1)
        with pytest.raises(InvalidInputError):
            TrainConfig(iterations=10, weight_decay=-1.0)
        with pytest.raises(InvalidInputError):
            TrainConfig()


def tiny_problem(rng):
    xs = rng.standard_normal((10, 3))
    w_true = rng.standard_normal((2, 3))
    ys = xs @ w_true.T
    return xs, ys


def grow_second_axis(rng, iterations):
    """SGD on a block W = diag(1, 0.5) with rows (0, u): the first hidden
    unit sits at relu(0) = 0, so only W[1, 1] and b[1] move, and targets 10
    below the rows on the second axis make W[1, 1] grow.  Returns the block,
    the log, and (step, sigma from an SVD, n_steps) after every step."""
    xs = np.column_stack([np.zeros(8), rng.uniform(0.5, 1.0, 8)])
    block = NonExpansiveBlock(np.diag([1.0, 0.5]), np.zeros(2))
    seen = []

    def record(step, net_):
        seen.append((step, np.linalg.norm(block.weight, 2), block.n_steps))

    cfg = TrainConfig(iterations=iterations, batch_size=8, optimiser="sgd",
                      lr_min=0.05, lr_peak=0.05, loss="mse", seed=0)
    log = train(Network([block]), xs, xs - np.array([0.0, 10.0]), cfg,
                callback=record)
    return block, log, seen


class TestTrainLoop:
    def test_loss_monotone_on_linear_least_squares(self, rng):
        xs, ys = tiny_problem(rng)
        net = Network([LinearLayer.random(3, 2, rng)])
        cfg = TrainConfig(iterations=100, batch_size=10, optimiser="sgd",
                          schedule="constant", lr_min=0.01, lr_peak=0.01,
                          loss="mse", seed=0)
        log = train(net, xs, ys, cfg)
        diffs = np.diff(log.step_loss)
        assert np.all(diffs <= 1e-12)

    def test_training_is_bitwise_deterministic(self, rng):
        xs, ys = tiny_problem(rng)

        def run():
            net = Network([LinearLayer.random(3, 2, np.random.default_rng(7)),
                           ])
            cfg = TrainConfig(iterations=50, batch_size=4, optimiser="adam",
                              schedule="one_cycle", loss="mse", seed=3)
            return train(net, xs, ys, cfg)

        log1, log2 = run(), run()
        assert log1.step_loss == log2.step_loss
        assert log1.step_lr == log2.step_lr

    def test_divergence_raises_with_step(self, rng):
        xs, ys = tiny_problem(rng)
        net = Network([LinearLayer.random(3, 2, rng)])
        cfg = TrainConfig(iterations=200, batch_size=10, optimiser="sgd",
                          schedule="constant", lr_min=1e30, lr_peak=1e30,
                          loss="mse", seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedTrainingError) as err:
                train(net, xs, ys, cfg)
        assert err.value.step is not None

    def test_step_constraint_holds_after_every_update(self, rng):
        xs = rng.standard_normal((64, 5))
        ys = rng.standard_normal((64, 5)) * 0.1
        block = NonExpansiveBlock.random(5, 6, rng)
        net = Network([block])
        violations = []

        def check(step, net_):
            sigma = np.linalg.norm(block.weight, 2)
            h = block.total_time / block.n_steps
            if h * sigma ** 2 > 2.0 + 1e-12:
                violations.append(step)

        cfg = TrainConfig(iterations=150, batch_size=32, optimiser="adam",
                          schedule="constant", lr_min=5e-3, lr_peak=5e-3,
                          loss="mse", seed=1)
        log = train(net, xs, ys, cfg, callback=check)
        assert violations == []
        assert log.step_counts[0][0] == 0  # the count before the first step

    def test_every_step_meets_the_constraint_when_sigma_turns(self, rng):
        # one optimiser step turns the top singular direction from e1 to e2
        # and takes h * sigma^2 at the old count to 9.4; a power iteration
        # warm-started on e1 does not see the turn
        block, log, seen = grow_second_axis(rng, iterations=3)
        assert len(seen) == 3
        assert max(sigma for _, sigma, _ in seen) > 3.0
        for step, sigma, n_steps in seen:
            assert block.total_time / n_steps * sigma ** 2 <= 2.0 + 1e-12, step

    def test_trained_step_count_covers_the_true_norm(self, rng):
        block, log, _ = grow_second_axis(rng, iterations=2)
        sigma = np.linalg.norm(block.weight, 2)
        # the second optimiser step takes ||W|| past 3: h * ||W||^2 = 9.4 / 5
        # <= 2, and 4 sub-steps would break it
        assert 9.0 < sigma ** 2 < 10.0
        assert block.n_steps == 5
        assert log.step_counts[-1] == (2, 0, 5)

    def test_final_step_count_equals_the_formula(self, rng):
        # T ||W||^2 / 2 = 2.99 needs 3 sub-steps, and the count is not padded
        block = NonExpansiveBlock(np.diag([np.sqrt(5.98), 0.1]), np.zeros(2))
        cfg = TrainConfig(iterations=2, batch_size=4, optimiser="sgd",
                          lr_min=0.0, lr_peak=0.0, loss="mse", seed=0)
        log = train(Network([block]), rng.standard_normal((4, 2)),
                    np.zeros((4, 2)), cfg)
        assert block.n_steps == 3
        assert log.step_counts == [(0, 0, 3)]

    def test_epoch_accuracy_logged(self, rng):
        xs = rng.standard_normal((40, 3))
        labels = (xs[:, 0] > 0).astype(int)
        net = Network([LinearLayer.random(3, 2, rng)])
        cfg = TrainConfig(epochs=3, batch_size=20, optimiser="adam",
                          loss="margin", seed=0)
        log = train(net, xs, labels, cfg, eval_inputs=xs, eval_labels=labels)
        assert len(log.epoch_accuracy) == 3

    def test_log_csv_export(self, rng, tmp_path):
        xs, ys = tiny_problem(rng)
        net = Network([NonExpansiveBlock.random(3, 4, rng),
                       LinearLayer.random(3, 2, rng)])
        cfg = TrainConfig(iterations=5, batch_size=10, loss="mse", seed=0)
        log = train(net, xs, ys, cfg)
        paths = log.export_csvs(tmp_path, "run")
        assert any(p.endswith("run_loss.csv") for p in paths)
        header = open(paths[0]).readline().strip()
        assert header == "step,loss,lr"
