import numpy as np
import pytest
import scipy.linalg

from conftest import gapped_matrix
from stableflow import linalg
from stableflow.errors import InvalidInputError


class TestPowerMethod:
    def test_identity_norm_one(self, rng):
        est = linalg.power_method(np.eye(10), rng.standard_normal(10), 50)
        assert abs(est.norm - 1.0) <= 1e-8
        assert abs(np.linalg.norm(est.vector) - 1.0) <= 1e-12

    def test_scaled_identity(self, rng):
        est = linalg.power_method(5.0 * np.eye(10), rng.standard_normal(10), 50)
        assert abs(est.norm - 5.0) <= 1e-7

    def test_exponential_of_skew_is_orthogonal(self, rng):
        b = rng.standard_normal((10, 10))
        a = linalg.matrix_exponential(b - b.T)
        est = linalg.power_method(a, rng.standard_normal(10), 50)
        assert abs(est.norm - 1.0) <= 1e-6

    def test_zero_u0_rejected(self):
        with pytest.raises(InvalidInputError):
            linalg.power_method(np.eye(3), np.zeros(3), 10)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            linalg.power_method(np.eye(3), rng.standard_normal(4), 10)

    def test_iteration_count_must_be_positive(self, rng):
        with pytest.raises(InvalidInputError):
            linalg.power_method(np.eye(3), rng.standard_normal(3), 0)

    def test_zero_matrix_reports_zero_norm(self, rng):
        est = linalg.power_method(np.zeros((4, 4)), rng.standard_normal(4), 20)
        assert est.norm == 0.0
        assert abs(np.linalg.norm(est.vector) - 1.0) <= 1e-12

    def test_null_space_start_reseeds(self):
        # u0 sits in the null space; the deterministic reseed must escape it
        a = np.diag([2.0, 0.0])
        est = linalg.power_method(a, np.array([0.0, 1.0]), 100)
        assert abs(est.norm - 2.0) <= 1e-10

    def test_monotone_improvement_on_gapped_matrices(self, rng):
        for _ in range(10):
            a = gapped_matrix(rng, 8, 6, top=2.5, gap=0.5)
            truth = linalg.spectral_norm_oracle(a)
            u0 = rng.standard_normal(6)
            for k1 in (1, 5, 20):
                e1 = abs(linalg.power_method(a, u0, k1).norm - truth)
                e2 = abs(linalg.power_method(a, u0, k1 + 5).norm - truth)
                assert e2 <= e1 + 1e-12

    def test_invariant_under_orthogonal_factors(self, rng):
        a = gapped_matrix(rng, 7, 7, top=3.0, gap=1.0)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        u0 = rng.standard_normal(7)
        base = linalg.power_method(a, u0, 500).norm
        left = linalg.power_method(q @ a, u0, 500).norm
        right = linalg.power_method(a @ q, u0, 500).norm
        assert abs(left - base) <= 1e-8
        assert abs(right - base) <= 1e-8


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(linalg.matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_diagonal(self):
        out = linalg.matrix_exponential(np.diag([1.0, -1.0]))
        expected = np.diag([np.e, 1.0 / np.e])
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_skew_gives_orthogonal(self, rng):
        s = rng.standard_normal((8, 8))
        s = s - s.T
        q = linalg.matrix_exponential(s)
        assert np.linalg.norm(q.T @ q - np.eye(8)) <= 1e-10

    def test_inverse_relation(self, rng):
        for _ in range(5):
            a = rng.standard_normal((6, 6))
            a *= 5.0 / np.linalg.norm(a, 2)
            prod = linalg.matrix_exponential(a) @ linalg.matrix_exponential(-a)
            assert np.max(np.abs(prod - np.eye(6))) <= 1e-9

    def test_matches_scipy_up_to_norm_ten(self, rng):
        for _ in range(5):
            a = rng.standard_normal((7, 7))
            a *= 10.0 / np.linalg.norm(a, 2)
            mine = linalg.matrix_exponential(a)
            ref = scipy.linalg.expm(a)
            assert np.max(np.abs(mine - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            linalg.matrix_exponential(np.ones((2, 3)))


class TestSpectralNormOracle:
    def test_diagonal_case(self):
        assert abs(linalg.spectral_norm_oracle(np.array([[3.0, 0], [0, 4.0]])) - 4.0) <= 1e-12

    def test_ill_conditioned_two_by_two(self):
        # eigenvalues 2 + 1/4 and 1/4; symmetric, so the top singular value is 2.25
        a = np.array([[1.25, 1.0], [1.0, 1.25]])
        assert abs(linalg.spectral_norm_oracle(a) - 2.25) <= 1e-12

    def test_cross_oracle_agreement(self, rng):
        a = rng.standard_normal((7, 5))
        pm = linalg.power_method(a, rng.standard_normal(5), 500).norm
        assert abs(pm - linalg.spectral_norm_oracle(a)) <= 1e-8

    def test_jacobi_matches_lapack(self, rng):
        # odd sizes exercise the round-robin bye, n = 1 the trivial case
        for n in (1, 2, 3, 5, 8, 9, 40):
            s = rng.standard_normal((n, n))
            s = 0.5 * (s + s.T)
            mine = linalg.jacobi_eigenvalues(s)
            ref = np.linalg.eigvalsh(s)
            assert np.max(np.abs(mine - ref)) <= 1e-10
            assert np.max(np.abs(mine - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_round_robin_meets_every_pair_once(self):
        for n in (2, 3, 8, 9):
            rounds = linalg._round_robin_pairs(n)
            assert len(rounds) == n - 1 + n % 2
            pairs = []
            for p, q in rounds:
                assert np.all(p < q) and np.all(q < n)
                assert len(set(p) | set(q)) == 2 * len(p)  # disjoint in a round
                pairs += list(zip(p.tolist(), q.tolist()))
            assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    def test_jacobi_equal_diagonals(self):
        # theta = 0: the rotation angle is pi / 4
        mine = linalg.jacobi_eigenvalues(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.max(np.abs(mine - np.array([0.0, 2.0]))) <= 1e-15

    def test_jacobi_gapped_gram_matrix(self, rng):
        a = gapped_matrix(rng, 128, 196, top=2.0, gap=0.6)
        gram = a @ a.T
        mine = linalg.jacobi_eigenvalues(gram)
        ref = np.linalg.eigvalsh(gram)
        assert np.max(np.abs(mine - ref)) <= 1e-10 * ref[-1]

    def test_jacobi_stops_when_converged(self, monkeypatch):
        # Once converged, the skip rule leaves the matrix unchanged, so a
        # stopping test that never fires shows only in the sweep count: the
        # rounds of a sweep are iterated once per sweep.
        sweeps = []

        class CountedRounds(list):
            def __iter__(self):
                sweeps.append(1)
                return super().__iter__()

        pairs = linalg._round_robin_pairs
        monkeypatch.setattr(linalg, "_round_robin_pairs",
                            lambda n: CountedRounds(pairs(n)))
        # seed 5: here sqrt(||w||^2 - ||diag w||^2) stays at 1.2e-7 after
        # convergence, far above the threshold of 1.1e-11
        a = gapped_matrix(np.random.default_rng(5), 128, 196, top=2.0, gap=0.6)
        gram = a @ a.T
        capped = linalg.jacobi_eigenvalues(gram, max_sweeps=20)
        sweeps.clear()
        assert np.array_equal(linalg.jacobi_eigenvalues(gram), capped)
        assert len(sweeps) < 20

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            linalg.jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSerialization:
    def test_matrix_round_trip(self, rng, tmp_path):
        a = rng.standard_normal((4, 7)) * 1e3
        path = tmp_path / "a.txt"
        linalg.save_matrix(path, a)
        assert np.array_equal(linalg.load_matrix(path), a)
        first = path.read_text().splitlines()[0]
        assert first == "4 7"

    def test_entries_written_as_format_entry(self, tmp_path):
        a = np.array([[-0.0, 5e-324, 1e300], [3.0, 0.1 + 0.2, -1.5e-7]])
        path = tmp_path / "a.txt"
        linalg.save_matrix(path, a)
        expected = "2 3\n" + "".join(
            " ".join(linalg.format_entry(x) for x in row) + "\n" for row in a)
        assert path.read_text() == expected
        assert "-0.0 5e-324 1e+300\n3.0 0.30000000000000004 " in expected

    def test_vector_round_trip(self, rng, tmp_path):
        v = rng.standard_normal(9)
        path = tmp_path / "v.txt"
        linalg.save_vector(path, v)
        assert np.array_equal(linalg.load_vector(path), v)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(InvalidInputError):
            linalg.load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1 2\nnan 1.0\n")
        with pytest.raises(InvalidInputError):
            linalg.load_matrix(path)
