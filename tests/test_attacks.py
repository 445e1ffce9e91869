import numpy as np
import pytest

from stableflow import attacks
from stableflow.attacks import AttackConfig, pgd_l2_batch, robust_accuracy
from stableflow.blocks import LinearLayer, Network, NonExpansiveBlock
from stableflow.errors import InvalidInputError
from stableflow.training import batch_margin_cross_entropy, margin_cross_entropy


def linear_net(rng, dim=6, classes=4):
    return Network([LinearLayer.random(dim, classes, rng)])


class TestPgdL2:
    def test_zero_epsilon_returns_input_exactly(self, rng):
        net = linear_net(rng)
        x = rng.standard_normal((1, 6))
        out = pgd_l2_batch(net, x, np.array([1]), AttackConfig(epsilon=0.0, n_iter=5))
        assert np.array_equal(out, x)

    def test_single_iteration_matches_linear_model_closed_form(self, rng):
        # for logits W x + b the input gradient of the loss is W^T softmax-residual,
        # so one unconstrained step moves by step_size along its unit vector
        net = linear_net(rng)
        w = net.blocks[0].weight
        x = rng.standard_normal(6)
        label = 2
        cfg = AttackConfig(epsilon=100.0, n_iter=1, step_size=0.5)
        out = pgd_l2_batch(net, x[None, :], np.array([label]), cfg)[0]
        _, grad_logits = margin_cross_entropy(net.forward(x), label, 0.0)
        grad_x = w.T @ grad_logits
        expected = x + 0.5 * grad_x / np.linalg.norm(grad_x)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_perturbation_stays_in_ball(self, rng):
        net = linear_net(rng)
        xs = rng.standard_normal((100, 6))
        labels = rng.integers(0, 4, size=100)
        eps = 0.37
        out = pgd_l2_batch(net, xs, labels, AttackConfig(epsilon=eps, n_iter=20))
        norms = np.linalg.norm(out - xs, axis=1)
        assert np.all(norms <= eps + 1e-9)

    def test_deterministic(self, rng):
        net = linear_net(rng)
        xs = rng.standard_normal((10, 6))
        labels = rng.integers(0, 4, size=10)
        cfg = AttackConfig(epsilon=0.5, n_iter=10)
        a = pgd_l2_batch(net, xs, labels, cfg)
        b = pgd_l2_batch(net, xs, labels, cfg)
        assert np.array_equal(a, b)

    def test_zero_gradient_rows_skip_and_count(self, rng):
        # zero weights make the logits constant, so the input gradient vanishes
        net = Network([LinearLayer(np.zeros((3, 4)), np.array([1.0, 0.0, 0.0]))])
        xs = rng.standard_normal((5, 4))
        stats = {}
        out = pgd_l2_batch(net, xs, np.zeros(5, dtype=int),
                           AttackConfig(epsilon=1.0, n_iter=4), stats=stats)
        assert np.array_equal(out, xs)
        assert stats["zero_grad_iterations"] == 20

    def test_input_only_gradients_match_full_backward_reference(self, rng):
        net = Network([NonExpansiveBlock.random(6, 8, rng),
                       NonExpansiveBlock.random(6, 8, rng),
                       LinearLayer.random(6, 4, rng)])
        for block in net.blocks[:2]:
            block.weight *= 2.0
            block.n_steps = 3
        xs = rng.standard_normal((20, 6))
        labels = rng.integers(0, 4, size=20)
        cfg = AttackConfig(epsilon=0.8, n_iter=15)
        # the attack loop written out, pulling back through the full backward
        delta = np.zeros_like(xs)
        for _ in range(cfg.n_iter):
            logits, cache = net.forward_with_cache(xs + delta)
            _, gout = batch_margin_cross_entropy(logits, labels, 0.0)
            grad, grads = net.backward(cache, gout)
            assert len(grads) == 3
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            delta = delta + cfg.step_size / norms * grad
            dnorm = np.linalg.norm(delta, axis=1, keepdims=True)
            delta = delta * np.where(dnorm > cfg.epsilon, cfg.epsilon / dnorm, 1.0)
        assert np.array_equal(pgd_l2_batch(net, xs, labels, cfg), xs + delta)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            AttackConfig(epsilon=-0.1)
        with pytest.raises(InvalidInputError):
            AttackConfig(epsilon=0.1, n_iter=0)
        with pytest.raises(InvalidInputError):
            AttackConfig(epsilon=0.1, step_size=0.0)

    def test_default_step_size(self):
        cfg = AttackConfig(epsilon=0.8, n_iter=100)
        assert abs(cfg.step_size - 2.5 * 0.8 / 100) <= 1e-15


class TestRobustAccuracy:
    def test_epsilon_zero_row_equals_clean_accuracy(self, rng):
        net = linear_net(rng, dim=5, classes=3)
        xs = rng.standard_normal((50, 5))
        labels = rng.integers(0, 3, size=50)
        rows, attacked = robust_accuracy(net, xs, labels, [0.0, 0.3], n_iter=5)
        clean = float(np.mean(np.argmax(net.forward(xs), axis=1) == labels))
        assert rows[0] == (0.0, clean, 50)
        assert list(attacked) == [0.3]

    def test_rows_score_the_attacked_batches(self, rng):
        net = linear_net(rng, dim=5, classes=3)
        xs = rng.standard_normal((50, 5))
        labels = rng.integers(0, 3, size=50)
        rows, attacked = robust_accuracy(net, xs, labels, [0.2, 0.5], n_iter=5)
        for (eps, acc, n), (key, adv) in zip(rows, attacked.items()):
            assert eps == key and n == 50
            assert np.array_equal(
                adv, pgd_l2_batch(net, xs, labels, AttackConfig(epsilon=eps, n_iter=5)))
            assert acc == float(np.mean(np.argmax(net.forward(adv), axis=1) == labels))

    def test_csv_export(self, rng, tmp_path):
        rows = [(0.0, 0.9, 10), (0.5, 0.7, 10)]
        path = tmp_path / "robust.csv"
        attacks.robust_accuracy_to_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "epsilon,accuracy,n_samples"
        assert lines[1] == "0.0,0.9,10"
