import math

import numpy as np
import pytest

from whqrom.blockenc import (
    SparseOracle,
    diag_no_rotation,
    dsparse_fused,
    dsparse_fused_diagonal,
    dsparse_standard,
    exact_table_qrom,
    lcu_sum,
    of_angular_momentum,
    of_block_diagonal,
    of_sum_tensor,
    product_be,
    read_coo_csv,
    sum_tensor_pattern,
    symmetry_swap_reduction,
)
from whqrom.errors import RangeError, ScaleError, ShapeError, SymmetryError


def random_sparse_symmetric(rng, n, rho):
    """Random symmetric matrix with at most rho nonzeros per row."""
    m = np.zeros((n, n))
    for j in range(n):
        budget = rho - np.count_nonzero(m[j])
        if budget <= 0:
            continue
        candidates = [
            k
            for k in range(n)
            if m[j, k] == 0 and np.count_nonzero(m[k]) < rho - (k != j)
        ]
        rng.shuffle(candidates)
        for k in candidates[:budget]:
            v = rng.uniform(-1, 1)
            m[j, k] = v
            m[k, j] = v if k != j else m[j, k]
    return m


class TestDsparseStandard:
    def test_identity_matrix(self):
        oracle = SparseOracle.from_dense(np.eye(4))
        result = dsparse_standard(oracle)
        assert result.zeta == pytest.approx(1.0)
        assert result.residual < 1e-12
        assert result.ancilla_qubits == 2 + 2

    def test_tridiagonal(self):
        rng = np.random.default_rng(3)
        n = 8
        main = rng.uniform(0.2, 1.0, size=n)
        off = rng.uniform(0.1, 0.9, size=n - 1)
        m = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        oracle = SparseOracle.from_dense(m, rho=3)
        result = dsparse_standard(oracle)
        assert result.zeta == pytest.approx(3 * np.max(np.abs(m)))
        sub = 3 * np.max(np.abs(m)) * result.sub_block()
        assert np.max(np.abs(sub - m)) < 1e-10

    def test_random_two_sparse_signed(self):
        rng = np.random.default_rng(5)
        m = random_sparse_symmetric(rng, 16, 2)
        result = dsparse_standard(SparseOracle.from_dense(m, rho=2))
        assert result.residual < 1e-10

    def test_rho_above_dimension(self):
        with pytest.raises(RangeError, match="exceeds the dimension"):
            SparseOracle.from_dense(np.eye(2), rho=3)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(RangeError):
            dsparse_standard(SparseOracle.from_dense(np.zeros((4, 4)), rho=1))


class TestDsparseFused:
    @pytest.mark.parametrize("n,rho", [(4, 1), (8, 3), (16, 2)])
    def test_agrees_with_standard(self, n, rho):
        rng = np.random.default_rng(n * rho)
        m = random_sparse_symmetric(rng, n, rho)
        if np.max(np.abs(m)) == 0:
            m[0, 0] = 0.5
        oracle = SparseOracle.from_dense(m, rho=rho)
        std = dsparse_standard(oracle)
        fused = dsparse_fused(oracle)
        assert fused.zeta == pytest.approx(std.zeta)
        assert np.max(np.abs(fused.sub_block() - std.sub_block())) < 1e-10
        assert fused.unitary.shape[0] * 2 == std.unitary.shape[0]

    def test_asymmetric_values_symmetric_pattern(self):
        m = np.array(
            [
                [0.5, 0.25, 0.0, 0.0],
                [-0.3, 0.1, 0.0, 0.0],
                [0.0, 0.0, 0.7, 0.2],
                [0.0, 0.0, -0.2, -0.6],
            ]
        )
        oracle = SparseOracle.from_dense(m)
        fused = dsparse_fused(oracle)
        assert np.max(np.abs(fused.zeta * fused.sub_block() - m)) < 1e-10

    def test_fused_diagonal_single_ancilla(self):
        rng = np.random.default_rng(11)
        d = rng.uniform(-1, 1, size=8)
        result = dsparse_fused_diagonal(d)
        assert result.ancilla_qubits == 1
        assert result.zeta == pytest.approx(np.max(np.abs(d)))
        sub = result.zeta * result.sub_block()
        assert np.max(np.abs(sub - np.diag(d))) < 1e-12


class TestBlockDiagonalOracle:
    def test_matches_generic_enumeration(self):
        # two 2x2 dense blocks: f((k, m), l) = l + block offset
        rng = np.random.default_rng(13)
        blocks = [rng.uniform(-1, 1, size=(2, 2)) for _ in range(2)]
        m = np.zeros((4, 4))
        m[:2, :2] = blocks[0]
        m[2:, 2:] = blocks[1]
        f = of_block_diagonal(eta1=1, eta2=1)
        oracle = SparseOracle.from_dense(m, rho=2, f=f)
        generic = SparseOracle.from_dense(m, rho=2)
        for j in range(4):
            assert sorted(oracle.columns[j]) == sorted(generic.columns[j])
        result = dsparse_fused(oracle)
        assert np.max(np.abs(result.zeta * result.sub_block() - m)) < 1e-10


class TestDiagNoRotation:
    def test_zeta_closed_form(self):
        vals = [0, 1, 2, 3]
        qrom = exact_table_qrom(vals, eta=2, d=3)
        result = diag_no_rotation(vals, qrom, d=3)
        assert result.zeta == 7.0

    def test_ramp_table(self):
        eta = d = 3
        vals = list(range(8))
        qrom = exact_table_qrom(vals, eta=eta, d=d)
        result = diag_no_rotation(vals, qrom, d=d)
        sub = result.zeta * result.sub_block()
        assert np.max(np.abs(sub - np.diag(np.arange(8)))) < 1e-10

    def test_maximal_table_is_identity(self):
        eta, d = 2, 3
        vals = [7, 7, 7, 7]
        qrom = exact_table_qrom(vals, eta=eta, d=d)
        result = diag_no_rotation(vals, qrom, d=d)
        assert np.max(np.abs(result.sub_block() - np.eye(4))) < 1e-12

    def test_value_range_guard(self):
        with pytest.raises(RangeError):
            exact_table_qrom([0, 9], eta=1, d=3)

    def test_qrom_table_must_match(self):
        qrom = exact_table_qrom([0, 1], eta=1, d=2)
        with pytest.raises(RangeError):
            diag_no_rotation([1, 1], qrom, d=2)


class TestLcuSum:
    def test_single_part_round_trip(self):
        d = np.array([0.5, -0.25, 0.75, 0.1])
        part = dsparse_fused_diagonal(d)
        total = lcu_sum([part])
        assert total.zeta == pytest.approx(part.zeta)
        assert np.max(np.abs(total.zeta * total.sub_block() - np.diag(d))) < 1e-10

    def test_equal_weights_double(self):
        d = np.array([0.5, -0.5, 0.25, 0.125])
        p1 = dsparse_fused_diagonal(d)
        p2 = dsparse_fused_diagonal(d)
        total = lcu_sum([p1, p2])
        assert total.zeta == pytest.approx(2 * p1.zeta)
        assert np.max(np.abs(total.zeta * total.sub_block() - 2 * np.diag(d))) < 1e-10

    def test_three_random_diagonal_parts(self):
        rng = np.random.default_rng(17)
        n = 8
        diags = [rng.uniform(-1, 1, size=n) for _ in range(3)]
        parts = [dsparse_fused_diagonal(dv) for dv in diags]
        total = lcu_sum(parts)
        assert total.zeta == pytest.approx(sum(p.zeta for p in parts))
        target = np.diag(np.sum(diags, axis=0))
        assert np.max(np.abs(total.zeta * total.sub_block() - target)) < 1e-10
        assert total.residual < 1e-10

    def test_empty_list(self):
        with pytest.raises(ShapeError):
            lcu_sum([])


class TestProduct:
    def test_identity_factor(self):
        d = np.array([0.7, -0.2, 0.4, 0.9])
        left = dsparse_fused_diagonal(d)
        right = dsparse_fused_diagonal(np.ones(4))
        prod = product_be(left, right)
        assert prod.zeta == pytest.approx(left.zeta)
        assert np.max(np.abs(prod.zeta * prod.sub_block() - np.diag(d))) < 1e-10

    def test_diagonal_product_elementwise(self):
        rng = np.random.default_rng(19)
        d1, d2 = rng.uniform(-1, 1, size=(2, 4))
        prod = product_be(dsparse_fused_diagonal(d1), dsparse_fused_diagonal(d2))
        assert prod.zeta == pytest.approx(np.max(np.abs(d1)) * np.max(np.abs(d2)))
        target = np.diag(d1 * d2)
        assert np.max(np.abs(prod.zeta * prod.sub_block() - target)) < 1e-10

    def test_sparse_times_diagonal(self):
        rng = np.random.default_rng(23)
        m = random_sparse_symmetric(rng, 8, 2)
        d = rng.uniform(0.1, 1, size=8)
        left = dsparse_fused(SparseOracle.from_dense(m, rho=2))
        right = dsparse_fused_diagonal(d)
        prod = product_be(left, right)
        target = m @ np.diag(d)
        assert np.max(np.abs(prod.zeta * prod.sub_block() - target)) < 1e-9
        assert prod.ancilla_qubits == max(left.ancilla_qubits, right.ancilla_qubits) + 1

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            product_be(
                dsparse_fused_diagonal(np.ones(4)), dsparse_fused_diagonal(np.ones(8))
            )


def dense_swap_reduction(h_eff, swap_pairs):
    """Had . CSWAP . (1 (x) U_eff) . CSWAP . Had and H_eff + S H_eff S as dense products."""
    sys_qubits = h_eff.system_qubits
    n = 1 << sys_qubits
    perm = np.arange(n)
    for qa, qb in swap_pairs:
        differ = ((perm >> qa) & 1) != ((perm >> qb) & 1)
        perm = np.where(differ, perm ^ ((1 << qa) | (1 << qb)), perm)
    swap_sys = np.zeros((n, n))
    swap_sys[perm, np.arange(n)] = 1.0
    dim_inner = 1 << (h_eff.ancilla_qubits + sys_qubits)
    swap_inner = np.kron(np.eye(1 << h_eff.ancilla_qubits), swap_sys)
    zero = np.zeros((dim_inner, dim_inner))
    cswap = np.block([[np.eye(dim_inner), zero], [zero, swap_inner]])
    had = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), np.eye(dim_inner))
    lifted = np.kron(np.eye(2), h_eff.unitary)
    unitary = had @ cswap @ lifted @ cswap @ had
    op = np.asarray(h_eff.operator)
    return unitary, op + swap_sys @ op @ swap_sys


def _swap_cases():
    rng = np.random.default_rng(37)
    for n in (4, 8, 16):
        eta = n.bit_length() - 1
        half = eta // 2
        a = random_sparse_symmetric(rng, n, 3)
        for h_eff in (
            dsparse_fused_diagonal(rng.uniform(-1, 1, size=n)),
            dsparse_fused(SparseOracle.from_dense(a)),
        ):
            full = [(q, q + half) for q in range(half)]
            partial = [(eta - 1, 0)]
            for pairs in (full, partial):
                yield h_eff, pairs


class TestSymmetrySwap:
    @pytest.mark.parametrize("h_eff, pairs", list(_swap_cases()))
    def test_index_form_matches_dense_products(self, h_eff, pairs):
        unitary, operator = dense_swap_reduction(h_eff, pairs)
        result = symmetry_swap_reduction(h_eff, pairs)
        assert result.unitary.shape == unitary.shape
        assert np.max(np.abs(result.unitary - unitary)) <= 4 * 2.0**-52
        assert np.array_equal(result.operator, operator)
        assert result.ancilla_qubits == 1 + h_eff.ancilla_qubits

    @pytest.mark.parametrize(
        "pairs", [[(0, 1), (1, 2)], [(0, 1), (2, 1)], [(0, 0)], [(0, 2), (0, 2)], [(0, 4)]]
    )
    def test_pairs_must_be_disjoint(self, pairs):
        h_eff = dsparse_fused_diagonal(np.random.default_rng(41).uniform(-1, 1, size=16))
        with pytest.raises(RangeError, match="swap pair"):
            symmetry_swap_reduction(h_eff, pairs)

    def test_swap_symmetric_heff_doubles(self):
        # H_eff symmetric under the swap itself: H = 2 H_eff
        rng = np.random.default_rng(29)
        d2 = rng.uniform(-1, 1, size=4)
        d_full = np.kron(d2, d2)  # symmetric under register exchange
        h_eff = dsparse_fused_diagonal(d_full)
        result = symmetry_swap_reduction(h_eff, [(0, 2), (1, 3)])
        assert result.zeta == pytest.approx(2 * h_eff.zeta)
        target = 2 * np.diag(d_full)
        assert np.max(np.abs(result.zeta * result.sub_block() - target)) < 1e-10

    def test_two_mode_exchange_coupling(self):
        rng = np.random.default_rng(31)
        d1 = rng.uniform(-1, 1, size=4)
        ones = np.ones(4)
        h_eff_diag = np.kron(ones, d1)  # acts on mode 1 only
        h_eff = dsparse_fused_diagonal(h_eff_diag)
        result = symmetry_swap_reduction(h_eff, [(0, 2), (1, 3)])
        swapped = np.kron(d1, ones)
        target = np.diag(h_eff_diag + swapped)
        assert np.max(np.abs(result.zeta * result.sub_block() - target)) < 1e-10
        assert result.residual < 1e-10

    def test_full_operator_check(self):
        d = np.array([0.5, -0.5, 0.25, 0.125])
        h_eff = dsparse_fused_diagonal(np.kron(d, np.ones(4) * 0) + np.kron(np.ones(4), d))
        with pytest.raises(SymmetryError):
            symmetry_swap_reduction(h_eff, [(0, 2), (1, 3)], full_operator=np.eye(16))


class TestSumTensorOracle:
    def test_pure_dense_a(self):
        oracle = of_sum_tensor(4, 1, 1)
        for a in range(4):
            for mu in range(4):
                assert oracle(a, 0, 0, mu) == mu

    def test_base_row_piecewise(self):
        na, nb, nc = 3, 3, 3
        oracle = of_sum_tensor(na, nb, nc)
        # row (0,0,0): A-block columns first, then B, then C
        cols = [oracle(0, 0, 0, mu) for mu in range(oracle.rho)]
        expected = [0, 1, 2, 3, 6, 9, 18]
        assert cols == expected

    def test_brute_force_pattern_2x2x2(self):
        na = nb = nc = 2
        oracle = of_sum_tensor(na, nb, nc)
        pattern = sum_tensor_pattern(na, nb, nc)
        for a in range(na):
            for b in range(nb):
                for c in range(nc):
                    row = a + na * b + na * nb * c
                    cols = {oracle(a, b, c, mu) for mu in range(oracle.rho)}
                    assert len(cols) == oracle.rho  # injective
                    assert cols == set(np.nonzero(pattern[row])[0].tolist())

    def test_brute_force_pattern_rectangular(self):
        na, nb, nc = 4, 2, 3
        oracle = of_sum_tensor(na, nb, nc)
        pattern = sum_tensor_pattern(na, nb, nc)
        for row in range(na * nb * nc):
            a = row % na
            b = (row // na) % nb
            c = row // (na * nb)
            cols = {oracle(a, b, c, mu) for mu in range(oracle.rho)}
            assert cols == set(np.nonzero(pattern[row])[0].tolist())

    def test_mu_out_of_range(self):
        oracle = of_sum_tensor(2, 2, 2)
        with pytest.raises(RangeError):
            oracle(0, 0, 0, oracle.rho)


class TestAngularMomentumOracle:
    def test_boundaries_and_interior(self):
        j_total = 3
        oracle = of_angular_momentum(j_total)
        assert oracle(0, 0) == 1  # reflected at the bottom
        assert oracle(2 * j_total, 1) == 2 * j_total - 1  # reflected at the top
        for j in range(1, 2 * j_total):
            assert {oracle(j, 0), oracle(j, 1)} == {j - 1, j + 1}


class TestScaleGuards:
    def test_dsparse_rejects_beyond_desk_scale(self):
        m = np.eye(64)
        with pytest.raises(ScaleError):
            dsparse_standard(SparseOracle.from_dense(m, rho=1))


class TestCooIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,0,0.5\n0,1,0.25\n1,0,0.25\n1,1,-0.75\n")
        m = read_coo_csv(path)
        expected = np.array([[0.5, 0.25], [0.25, -0.75]])
        assert np.array_equal(m, expected)
        result = dsparse_standard(SparseOracle.from_dense(m))
        assert result.residual < 1e-10

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n")
        with pytest.raises(Exception):
            read_coo_csv(path)


class TestZetaLowerBound:
    def test_diagonal_encodings_bound_spectral_radius(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = rng.uniform(-1, 1, size=8)
            result = dsparse_fused_diagonal(d)
            assert result.zeta >= np.max(np.abs(d)) - 1e-12
        vals = list(rng.integers(0, 8, size=4))
        qrom = exact_table_qrom(vals, eta=2, d=3)
        result = diag_no_rotation(vals, qrom, d=3)
        assert result.zeta >= max(vals)
