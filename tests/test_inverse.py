import numpy as np
import pytest

from stableflow import inverse, linalg
from stableflow.blocks import ClampedScale, LiftLayer, NonExpansiveBlock, ProjectLayer
from stableflow.errors import InvalidInputError
from stableflow.inverse import (ForwardModel, TikhonovReconstructor,
                                generate_dataset, grid_search_tau,
                                invert_tau_for_lipschitz, log_tau_grid,
                                tikhonov_lipschitz, tikhonov_reconstruct)


class TestForwardModel:
    def test_condition_number(self):
        model = ForwardModel(epsilon=0.25)
        assert abs(model.condition_number - 9.0) <= 1e-12
        kappa = np.linalg.cond(model.matrix)
        assert abs(kappa - 9.0) <= 1e-10

    def test_eigenvalues(self):
        model = ForwardModel(epsilon=0.25)
        eig = np.sort(np.linalg.eigvalsh(model.matrix))
        assert np.allclose(eig, [0.25, 2.25], atol=1e-14)


class TestGenerateDataset:
    def test_noiseless_measurements_are_exact(self):
        model = ForwardModel()
        xs, ys = generate_dataset(50, noise_sigma=0.0, seed=1)
        assert np.max(np.abs(ys - xs @ model.matrix.T)) <= 1e-14

    def test_points_on_support_curve_without_jitter(self):
        xs, _ = generate_dataset(200, seed=2, support_jitter=0.0)
        residual = xs[:, 1] - (xs[:, 0] ** 2 - 0.5)
        assert np.max(np.abs(residual)) <= 1e-12

    def test_noise_second_moment(self):
        model = ForwardModel()
        n = 100000
        xs, ys = generate_dataset(n, seed=3)
        z = ys - xs @ model.matrix.T
        mean_sq = float(np.mean(np.sum(z * z, axis=1)))
        expected = 2.0 * model.noise_sigma ** 2
        assert abs(mean_sq - expected) <= 0.03 * expected


class TestTikhonov:
    def test_small_tau_recovers_noiseless_data(self):
        model = ForwardModel()
        xs, ys = generate_dataset(20, noise_sigma=0.0, seed=4)
        recon = tikhonov_reconstruct(model, 1e-12, ys)
        assert np.max(np.abs(recon - xs)) <= 1e-8

    def test_normal_equations_hold(self, rng):
        model = ForwardModel()
        a = model.matrix
        for tau in (1e-3, 0.1, 5.0):
            y = rng.standard_normal(2)
            xhat = tikhonov_reconstruct(model, tau, y)
            residual = (a.T @ a + tau * np.eye(2)) @ xhat - a.T @ y
            assert np.max(np.abs(residual)) <= 1e-10

    def test_reconstruction_minimises_the_functional(self, rng):
        model = ForwardModel()
        a = model.matrix
        tau = 0.3
        y = rng.standard_normal(2)
        xhat = tikhonov_reconstruct(model, tau, y)

        def functional(x):
            return np.sum((a @ x - y) ** 2) + tau * np.sum(x * x)

        base = functional(xhat)
        for _ in range(200):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            assert functional(xhat + 1e-3 * d) >= base

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(InvalidInputError):
            TikhonovReconstructor(ForwardModel(), 0.0)


class TestLipschitzCurve:
    def test_huge_tau_limit(self):
        assert tikhonov_lipschitz(ForwardModel(), 1e12) <= 1e-11

    def test_tau_zero_hits_inverse_of_smallest_singular_value(self):
        assert abs(tikhonov_lipschitz(ForwardModel(epsilon=0.25), 0.0) - 4.0) <= 1e-14

    def test_matches_operator_norm_oracle(self, rng):
        model = ForwardModel()
        for tau in 10.0 ** rng.uniform(-4, 2, size=20):
            rec = TikhonovReconstructor(model, float(tau))
            assert abs(tikhonov_lipschitz(model, float(tau))
                       - linalg.spectral_norm_oracle(rec.matrix)) <= 1e-10

    def test_strictly_monotone_on_grid(self):
        model = ForwardModel()
        grid = log_tau_grid(1e-4, 1e2, 100)
        values = [tikhonov_lipschitz(model, t) for t in grid]
        assert np.all(np.diff(values) < 0)

    def test_inversion_round_trip(self):
        model = ForwardModel()
        for target in (0.3, 1.0, 2.5, 3.9):
            tau = invert_tau_for_lipschitz(model, target)
            assert abs(tikhonov_lipschitz(model, tau) - target) <= 1e-13 * target

    def test_inversion_out_of_range_rejected(self):
        model = ForwardModel(epsilon=0.25)  # attainable range is (0, 4)
        with pytest.raises(InvalidInputError):
            invert_tau_for_lipschitz(model, 4.5)
        with pytest.raises(InvalidInputError):
            invert_tau_for_lipschitz(model, 0.0)


class TestGridSearch:
    def test_picks_error_minimiser(self):
        model = ForwardModel()
        xs, ys = generate_dataset(300, seed=5)
        taus = log_tau_grid(1e-4, 1e2, 50)
        tau_star, l_star, errors = grid_search_tau(model, xs, ys, taus)
        assert tau_star == taus[np.argmin(errors)]
        assert l_star == tikhonov_lipschitz(model, tau_star)
        assert 1e-4 < tau_star < 1e2  # interior optimum for this noise level

    def test_ties_break_toward_larger_tau(self):
        # all-zero data makes every tau a perfect reconstructor
        model = ForwardModel()
        taus = np.array([0.1, 1.0, 10.0])
        tau_star, _, errors = grid_search_tau(model, np.zeros((5, 2)),
                                              np.zeros((5, 2)), taus)
        assert np.all(errors == 0.0)
        assert tau_star == 10.0


class TestBuildInvnet:
    def test_structure_and_budget(self):
        net = inverse.build_invnet(2.5, seed=0)
        kinds = [type(b) for b in net.blocks]
        assert kinds[0] is LiftLayer
        assert kinds[-2] is ProjectLayer
        assert kinds[-1] is ClampedScale
        assert all(k is NonExpansiveBlock for k in kinds[1:-2])
        assert len(net.blocks) == 8
        assert net.lipschitz_budget == 2.5
        assert net.blocks[-1].bound == 2.5
        assert net.blocks[-1].value[0] == 1.0
        assert net.dim_in == 2 and net.dim_out == 2

    def test_budget_is_empirical_upper_bound(self, rng):
        budget = 1.8
        net = inverse.build_invnet(budget, seed=1)
        xs = rng.uniform(-3, 3, (100000, 2))
        ys = rng.uniform(-3, 3, (100000, 2))
        ratio = (np.linalg.norm(net.forward(xs) - net.forward(ys), axis=1)
                 / np.linalg.norm(xs - ys, axis=1))
        assert np.max(ratio) <= budget + 1e-6
