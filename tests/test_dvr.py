import math

import numpy as np
import pytest
from scipy.linalg import eigh

from whqrom.dvr import (
    MAX_HERMITE_SEGMENT,
    QuadratureKind,
    build_transform,
    dvr_oracle_cost,
    export_matrix_csv,
    fbr_potential,
    gauss_quadrature,
    midpoint_columns,
    recursion_coeffs,
    recursion_columns,
    segment_init_cost,
)
from whqrom.errors import ConfigError, RangeError, ScaleError, ShapeError
from whqrom.qrom import CostReport


def hermite_moment(k):
    # integral of x**k exp(-x**2) over R
    if k % 2:
        return 0.0
    return math.gamma((k + 1) / 2)


def legendre_moment(k):
    return 0.0 if k % 2 else 2.0 / (k + 1)


class TestQuadrature:
    def test_legendre_two_point_closed_form(self):
        q = gauss_quadrature("legendre", 2)
        assert np.allclose(q.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-14)
        assert np.allclose(q.weights, [1.0, 1.0], atol=1e-14)

    def test_hermite_single_point(self):
        q = gauss_quadrature(QuadratureKind.HERMITE, 1)
        assert q.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert q.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 64])
    def test_legendre_exactness_to_degree_2n_minus_1(self, n):
        q = gauss_quadrature("legendre", n)
        for k in range(2 * n):
            approx = float(np.sum(q.weights * q.nodes**k))
            assert approx == pytest.approx(legendre_moment(k), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 64])
    def test_hermite_exactness_to_degree_2n_minus_1(self, n):
        q = gauss_quadrature("hermite", n)
        for k in range(2 * n):
            approx = float(np.sum(q.weights * q.nodes**k))
            exact = hermite_moment(k)
            # roundoff scales with the absolute moment Gamma((k+1)/2)
            scale = max(1.0, math.gamma((k + 1) / 2))
            assert abs(approx - exact) <= 1e-11 * scale

    def test_agrees_with_numpy_gauss(self):
        for n in (3, 9, 24):
            q = gauss_quadrature("legendre", n)
            ref_x, ref_w = np.polynomial.legendre.leggauss(n)
            assert np.allclose(q.nodes, ref_x, atol=1e-12)
            assert np.allclose(q.weights, ref_w, atol=1e-12)
            h = gauss_quadrature("hermite", n)
            hx, hw = np.polynomial.hermite.hermgauss(n)
            assert np.allclose(h.nodes, hx, atol=1e-12)
            assert np.allclose(h.weights, hw, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            gauss_quadrature("laguerre", 4)

    def test_bad_count(self):
        with pytest.raises(RangeError):
            gauss_quadrature("legendre", 0)

    def test_scale_guard(self):
        from whqrom.dvr import MAX_HERMITE_POINTS, MAX_POINTS

        with pytest.raises(ScaleError, match="MAX_POINTS"):
            gauss_quadrature("hermite", MAX_POINTS + 1)
        # the Hermite cap sits below the point where its weights underflow
        with pytest.raises(ScaleError, match="MAX_HERMITE_POINTS"):
            gauss_quadrature("hermite", MAX_HERMITE_POINTS + 1)
        assert gauss_quadrature("hermite", MAX_HERMITE_POINTS).weights.min() > 1e-305
        assert gauss_quadrature("legendre", MAX_HERMITE_POINTS + 1).n == MAX_HERMITE_POINTS + 1


class TestTransform:
    def test_n_one_identity(self):
        t = build_transform(gauss_quadrature("legendre", 1))
        assert np.allclose(t.matrix, [[1.0]], atol=1e-14)

    @pytest.mark.parametrize(
        "kind,n",
        [("legendre", 8), ("hermite", 32), ("legendre", 64), ("hermite", 64)],
    )
    def test_orthogonality(self, kind, n):
        t = build_transform(gauss_quadrature(kind, n))
        gram = t.matrix.T @ t.matrix
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10
        assert t.orthogonality_error == float(np.max(np.abs(gram - np.eye(n))))

    def test_constant_potential_is_scaled_identity(self):
        t = build_transform(gauss_quadrature("legendre", 6))
        v = fbr_potential(t, np.full(6, 2.5))
        assert np.allclose(v, 2.5 * np.eye(6), atol=1e-12)

    def test_position_operator_matches_ho_matrix_elements(self):
        # quadrature is exact for the degree-(2n-1) integrand p_m x p_n
        n = 10
        t = build_transform(gauss_quadrature("hermite", n))
        x_mat = fbr_potential(t, t.quadrature.nodes)
        expected = np.zeros((n, n))
        for m in range(n - 1):
            expected[m, m + 1] = expected[m + 1, m] = math.sqrt((m + 1) / 2.0)
        assert np.allclose(x_mat, expected, atol=1e-12)

    def test_random_potential_similarity(self):
        rng = np.random.default_rng(3)
        n = 8
        t = build_transform(gauss_quadrature("legendre", n))
        v = rng.normal(size=n)
        eigs = np.linalg.eigvalsh(fbr_potential(t, v))
        assert np.allclose(eigs, np.sort(v), atol=1e-12)

    def test_dimension_mismatch(self):
        t = build_transform(gauss_quadrature("legendre", 4))
        with pytest.raises(ShapeError):
            fbr_potential(t, np.zeros(5))

    def test_normalizers_monic_scale(self):
        # N_j reproduces the orthonormal value at a reference point: the
        # monic Legendre P2_monic(x) = x^2 - 1/3, so p2(1) = N_2 * (1 - 1/3)
        t = build_transform(gauss_quadrature("legendre", 4))
        assert t.normalizers[0] == pytest.approx(1 / math.sqrt(2))
        p2_at_1 = math.sqrt(5.0 / 2.0)  # orthonormal Legendre at x = 1
        assert t.normalizers[2] * (1 - 1 / 3) == pytest.approx(p2_at_1)


class TestRecursion:
    @pytest.mark.parametrize(
        "kind,n,segment",
        [
            ("legendre", 8, 8),
            ("legendre", 16, 4),
            ("hermite", 16, 8),
            ("hermite", 32, 8),
            ("legendre", 32, 32),
        ],
    )
    def test_reconstruction_matches_direct(self, kind, n, segment):
        q = gauss_quadrature(kind, n)
        t = build_transform(q)
        coeffs = recursion_coeffs(kind, n, segment)
        rebuilt = recursion_columns(coeffs, midpoint_columns(t, segment), q.nodes)
        assert np.max(np.abs(rebuilt - t.matrix)) < 1e-8

    def test_gamma_is_one_on_midpoints(self):
        coeffs = recursion_coeffs("legendre", 16, 4)
        for seg_start in range(0, 16, 4):
            assert coeffs.gamma[seg_start + 1] == 1.0
            assert coeffs.gamma[seg_start + 2] == 1.0

    def test_single_segment_n_two_is_init_only(self):
        q = gauss_quadrature("legendre", 2)
        t = build_transform(q)
        coeffs = recursion_coeffs("legendre", 2, 2)
        rebuilt = recursion_columns(coeffs, midpoint_columns(t, 2), q.nodes)
        assert np.array_equal(rebuilt, t.matrix)

    def test_segment_must_divide(self):
        with pytest.raises(ShapeError):
            recursion_coeffs("legendre", 12, 8)

    def test_hermite_segment_limit(self):
        # a 64-column Hermite segment rebuilt its columns with error 5.1e-3
        recursion_coeffs("legendre", 64, 64)
        recursion_coeffs("hermite", 64, MAX_HERMITE_SEGMENT)
        with pytest.raises(RangeError, match="MAX_HERMITE_SEGMENT"):
            recursion_coeffs("hermite", 64, 2 * MAX_HERMITE_SEGMENT)

    def test_missing_init_column(self):
        q = gauss_quadrature("legendre", 8)
        coeffs = recursion_coeffs("legendre", 8, 8)
        with pytest.raises(ShapeError):
            recursion_columns(coeffs, {3: np.zeros(8)}, q.nodes)

    def test_documented_error_growth(self):
        # reconstruction error grows slowly with n but stays < 1e-8 at n=32
        errs = []
        for n in (8, 16, 32):
            q = gauss_quadrature("hermite", n)
            t = build_transform(q)
            coeffs = recursion_coeffs("hermite", n, n)
            rebuilt = recursion_columns(coeffs, midpoint_columns(t, n), q.nodes)
            errs.append(np.max(np.abs(rebuilt - t.matrix)))
        assert errs[-1] < 1e-8


class TestSchroedingerEquivalence:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_fbr_dvr_eigenvalue_agreement(self, n):
        # harmonic oscillator plus quartic: K in FBR, V on the grid
        rng = np.random.default_rng(n)
        q = gauss_quadrature("hermite", n)
        t = build_transform(q)
        kin = np.zeros((n, n))
        for m in range(n):
            kin[m, m] = 0.5 * (m + 0.5)
        for m in range(n - 2):
            kin[m, m + 2] = kin[m + 2, m] = -0.25 * math.sqrt((m + 1) * (m + 2))
        v = 0.5 * q.nodes**2 + 0.1 * q.nodes**4
        h_fbr = kin + fbr_potential(t, v)
        h_dvr = t.matrix @ kin @ t.matrix.T + np.diag(v)
        e_fbr = eigh(h_fbr, eigvals_only=True)
        e_dvr = eigh(h_dvr, eigvals_only=True)
        assert np.max(np.abs(e_fbr - e_dvr)) < 1e-8


class TestOracleCost:
    def test_stub_coster_formula(self):
        def stub(i, n, d):
            t = 4 * (n + d)
            return CostReport.assemble(t, 0, 0, 1, 0)

        report = dvr_oracle_cost([16], d=8, qrom_coster=stub)
        # 2 * floor(pi * 4 / 4) * (256 + 8) = 2 * 3 * 264
        assert report.t_count == 4 * 1584

    def test_empty_modes(self):
        def stub(i, n, d):
            return CostReport.assemble(4, 0, 0, 1, 0)

        assert dvr_oracle_cost([], d=8, qrom_coster=stub).t_count == 0

    def test_linear_in_mode_count(self):
        def stub(i, n, d):
            return CostReport.assemble(4 * n, n, n, n, n)

        one = dvr_oracle_cost([16], d=8, qrom_coster=stub)
        three = dvr_oracle_cost([16, 16, 16], d=8, qrom_coster=stub)
        assert three.t_count == 3 * one.t_count
        assert three.qubit_count == one.qubit_count

    def test_segment_init_cost_models(self):
        assert segment_init_cost(64, 16, 16) == pytest.approx(
            2 * 64 * 4 / 4 + math.sqrt(64 * 16)
        )
        assert segment_init_cost(64, 16, 16, method="select") == pytest.approx(
            64 * 64 / 16 + 64
        )
        with pytest.raises(ConfigError):
            segment_init_cost(4, 4, 4, method="other")


class TestExport:
    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        path = tmp_path / "t.csv"
        export_matrix_csv(m, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, m)
