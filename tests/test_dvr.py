import math

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

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

    def test_unknown_kind(self):
        # once a bare ValueError from the enum lookup
        with pytest.raises(ConfigError, match="unsupported quadrature kind 'foo'"):
            recursion_coeffs("foo", 8, 2)

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


def _general_recurrence(kind, n):
    """Golub-Welsch data (alpha, beta, mu0) with the Jacobi diagonal alpha
    kept, although it is zero for both even weights."""
    j = np.arange(n, dtype=np.float64)
    alpha = np.zeros(n)
    if kind == "hermite":
        return alpha, np.sqrt(j / 2.0), math.sqrt(math.pi)
    beta = j / np.sqrt(4.0 * j * j - 1.0, where=j > 0, out=np.ones(n))
    beta[0] = 0.0
    return alpha, beta, 2.0


def _general_polynomials(kind, n, x):
    alpha, beta, mu0 = _general_recurrence(kind, n + 1)
    out = np.empty((n, x.shape[0]))
    out[0] = 1.0 / math.sqrt(mu0)
    if n > 1:
        out[1] = (x - alpha[0]) * out[0] / beta[1]
    for j in range(2, n):
        out[j] = ((x - alpha[j - 1]) * out[j - 1] - beta[j - 1] * out[j - 2]) / beta[j]
    return out


def _general_transform(kind, n):
    """Nodes, weights, T, normalizers and max|T^T T - I| from the general
    recurrence."""
    alpha, beta, mu0 = _general_recurrence(kind, n)
    nodes = np.array([alpha[0]]) if n == 1 else eigh_tridiagonal(alpha, beta[1:], eigvals_only=True)
    polys = _general_polynomials(kind, n, nodes)
    weights = 1.0 / np.sum(polys * polys, axis=0)
    matrix = np.sqrt(weights)[:, None] * polys.T
    normalizers = np.empty(n)
    normalizers[0] = 1.0 / math.sqrt(mu0)
    for j in range(1, n):
        normalizers[j] = normalizers[j - 1] / beta[j]
    gram_err = float(np.max(np.abs(matrix.T @ matrix - np.eye(n))))
    return nodes, weights, matrix, normalizers, gram_err


def _general_recursion(kind, n, segment, matrix, nodes):
    """b_scaled, gamma and the rebuilt T of the segmented recursion
    T[p, q+2] = (A_q + B_q x_p) T[p, q+1] + C_q T[p, q], A_q included."""
    alpha, beta, _ = _general_recurrence(kind, n + 1)
    qs = np.arange(max(n - 2, 0))
    a_col = -alpha[qs + 1] / beta[qs + 2]
    b_col = 1.0 / beta[qs + 2]
    c_col = -beta[qs + 1] / beta[qs + 2]
    a_scaled, b_scaled, gamma = np.zeros(n), np.zeros(n), np.ones(n)
    scaled = np.zeros((n, n))
    half = segment // 2
    for seg_start in range(0, n, segment):
        mid_hi = seg_start + half
        mid_lo = mid_hi - 1
        scaled[:, [mid_lo, mid_hi]] = matrix[:, [mid_lo, mid_hi]]
        for q in range(mid_hi + 1, seg_start + segment):
            gamma[q] = gamma[q - 2] / c_col[q - 2]
            ratio = gamma[q] / gamma[q - 1]
            a_scaled[q] = ratio * a_col[q - 2]
            b_scaled[q] = ratio * b_col[q - 2]
            scaled[:, q] = (a_scaled[q] + b_scaled[q] * nodes) * scaled[:, q - 1] + scaled[:, q - 2]
        for q in range(mid_lo - 1, seg_start - 1, -1):
            gamma[q] = gamma[q + 2] * c_col[q]
            ratio = gamma[q + 2] / gamma[q + 1]
            a_scaled[q] = -ratio * a_col[q]
            b_scaled[q] = -ratio * b_col[q]
            scaled[:, q] = (a_scaled[q] + b_scaled[q] * nodes) * scaled[:, q + 1] + scaled[:, q + 2]
    return b_scaled, gamma, scaled / gamma[None, :]


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "kind,n",
    [(kind, n) for kind in ("hermite", "legendre") for n in range(1, 65)]
    + [("hermite", 128), ("hermite", 352), ("legendre", 128), ("legendre", 1024)],
)
def test_even_weight_recursion_matches_the_general_one(kind, n):
    # dropping the zero Jacobi diagonal and A_q leaves every array's bytes;
    # only the sign of a zero in the rebuilt columns may differ
    nodes, weights, matrix, normalizers, gram_err = _general_transform(kind, n)
    q = gauss_quadrature(kind, n)
    t = build_transform(q)
    assert _same_bytes(q.nodes, nodes) and _same_bytes(q.weights, weights)
    assert _same_bytes(t.matrix, matrix) and _same_bytes(t.normalizers, normalizers)
    assert _same_bytes(t.orthogonality_error, gram_err)
    limit = MAX_HERMITE_SEGMENT if kind == "hermite" else n
    segments = [s for s in (2 << i for i in range(10)) if s <= limit and n % s == 0]
    for segment in segments:
        b_scaled, gamma, rebuilt = _general_recursion(kind, n, segment, matrix, nodes)
        coeffs = recursion_coeffs(kind, n, segment)
        assert _same_bytes(coeffs.b_scaled, b_scaled) and _same_bytes(coeffs.gamma, gamma)
        got = recursion_columns(coeffs, midpoint_columns(t, segment), q.nodes)
        assert np.array_equal(got, rebuilt)


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
