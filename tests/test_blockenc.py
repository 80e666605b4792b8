import gc
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import null_space

from whqrom import blockenc
from whqrom.blockenc import (
    MAX_COO_DIM,
    BlockEncodingResult,
    SparseOracle,
    diag_no_rotation,
    dsparse_fused,
    dsparse_fused_diagonal,
    dsparse_standard,
    exact_table_qrom,
    lcu_sum,
    of_angular_momentum,
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


def null_space_completion(columns):
    """Orthonormal columns extended to a unitary by an SVD null-space basis."""
    return np.hstack([columns, null_space(columns.conj().T)])


@st.composite
def disjoint_columns(draw):
    """Orthonormal columns on disjoint random supports of 1 .. 2 rho rows.

    Entries mix random values of both signs (so a support's leading entry is
    often negative), exact +-1 and exact zeros: a zero is a structural slot
    the column leaves empty.
    """
    rho = draw(st.integers(min_value=1, max_value=3))
    dim = 1 << draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.permutations(range(dim)))
    # magnitudes from 1e-150 up, so the squared norm stays a normal float
    entries = st.one_of(
        st.floats(min_value=1e-150, max_value=1),
        st.floats(min_value=-1, max_value=-1e-150),
        st.sampled_from([0.0, 1.0, -1.0]),
    )
    columns, start = [], 0
    for size in draw(st.lists(st.integers(min_value=1, max_value=2 * rho), min_size=1, max_size=8)):
        size = min(size, dim - start)
        if size == 0:
            break
        vals = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
        if not np.any(vals):
            vals[-1] = -1.0
        col = np.zeros(dim)
        col[rows[start : start + size]] = vals / np.linalg.norm(vals)
        columns.append(col)
        start += size
    return np.stack(columns, axis=1)


class TestHouseholderCompletion:
    @settings(max_examples=200, deadline=None)
    @given(columns=disjoint_columns())
    def test_completes_to_an_orthogonal_matrix(self, columns):
        dim, n = columns.shape
        q = blockenc._complete_isometry(columns)
        assert sp.issparse(q) and q.shape == (dim, dim)
        q = q.toarray()
        assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-14
        assert np.max(np.abs(q[:, :n] - columns)) <= 4 * 2.0**-52

    def test_overlapping_supports_raise(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]) / math.sqrt(2.0)
        with pytest.raises(ShapeError, match="overlap"):
            blockenc._complete_isometry(h)

    def test_zero_column_raises(self):
        with pytest.raises(ShapeError, match="column 1 is zero"):
            blockenc._complete_isometry(np.array([[1.0, 0.0], [0.0, 0.0]]))


def full_rows(rng, n, rho):
    """Every row holds exactly rho nonzeros: diagonal, 2x2 blocks or tridiagonal."""
    m = np.diag(rng.uniform(0.2, 1.0, size=n))
    if rho == 2:
        off = rng.uniform(-0.8, 0.8, size=n // 2)
        m[np.arange(0, n, 2), np.arange(1, n, 2)] = off
        m[np.arange(1, n, 2), np.arange(0, n, 2)] = off
    elif rho == 3:
        off = rng.uniform(-0.8, 0.8, size=n - 1)
        m[np.arange(n - 1), np.arange(1, n)] = off
        m[np.arange(1, n), np.arange(n - 1)] = off
    return m


def padded_rows(rng, n, rho):
    """At most rho nonzeros per row and row 0 empty, so slots are zero-padded."""
    m = random_sparse_symmetric(rng, n, rho)
    m[0, :] = m[:, 0] = 0.0
    m[n - 1, n - 1] = -0.5
    return m


class TestAgainstNullSpaceRoute:
    @pytest.mark.parametrize("build", [dsparse_standard, dsparse_fused])
    @pytest.mark.parametrize("pattern", [full_rows, padded_rows])
    @pytest.mark.parametrize("rho", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_same_block_both_unitary(self, monkeypatch, build, pattern, rho, n):
        m = pattern(np.random.default_rng(7 * n + rho), n, rho)
        oracle = SparseOracle.from_dense(m, rho=rho)
        result = build(oracle)
        monkeypatch.setattr(blockenc, "_complete_isometry", null_space_completion)
        oracle_result = build(oracle)
        assert np.max(np.abs(result.sub_block() - oracle_result.sub_block())) <= 1e-15
        for r in (result, oracle_result):
            u = r.unitary
            assert np.max(np.abs(u.T @ u - np.eye(u.shape[0]))) <= 1e-10
            assert r.residual <= 1e-9


class TestSparseChecks:
    @pytest.mark.parametrize("build", [dsparse_standard, dsparse_fused])
    def test_sparse_checks_match_dense_formula(self, build):
        m = full_rows(np.random.default_rng(53), 8, 3)
        dense = build(SparseOracle.from_dense(m, rho=3))
        result = BlockEncodingResult(
            unitary=sp.csr_matrix(dense.unitary),
            system_qubits=dense.system_qubits,
            ancilla_qubits=dense.ancilla_qubits,
            zeta=dense.zeta,
            operator=dense.operator,
        )
        u, n = dense.unitary, 1 << dense.system_qubits
        gram = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
        res = float(np.max(np.abs(dense.zeta * u[:n, :n] - m)))
        assert abs(result.unitarity_deviation - gram) <= 1e-15
        assert abs(result.residual - res) <= 1e-15
        assert type(result.unitary) is np.ndarray and not result.unitary.flags.writeable
        assert np.array_equal(result.unitary, u)

    def test_check_values_are_not_arguments(self):
        with pytest.raises(TypeError):
            BlockEncodingResult(np.eye(2), 0, 1, 1.0, np.eye(1), residual=0.0)


@pytest.mark.parametrize("bad", [7, -1])
def test_oracle_refuses_column_indices_outside_the_matrix(bad):
    # 7 once ended dsparse_fused in an IndexError; -1 was accepted and read row 3
    m = np.diag([1.0, 2.0, 0.0, 3.0])
    with pytest.raises(ShapeError, match=rf"column index {bad} of row 2 lies outside \[0, 4\)"):
        SparseOracle(n=4, rho=1, matrix=m, columns=[[0], [1], [bad], [3]])


def test_cli_import_does_not_load_scipy():
    # scipy loads on first use: the table commands never call it
    src = Path(blockenc.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, whqrom.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


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

    @pytest.mark.parametrize("n", [1, 2, 16, 256])
    def test_fused_diagonal_sparse_checks_match_dense_rotation(self, n):
        d = np.random.default_rng(n).uniform(-1, 1, size=n)
        result = dsparse_fused_diagonal(d)
        amp = d / np.max(np.abs(d))
        rest = np.sqrt(1.0 - amp * amp)
        dense = np.block([[np.diag(amp), np.diag(-rest)], [np.diag(rest), np.diag(amp)]])
        assert np.array_equal(result.unitary, dense)
        assert result.residual == float(np.max(np.abs(result.zeta * np.diag(amp) - np.diag(d))))
        assert abs(result.unitarity_deviation - dense_gram_deviation(dense)) <= 1e-15


class TestBlockDiagonalOracle:
    def test_matches_generic_enumeration(self):
        # two 2x2 dense blocks, passed as an explicit column function:
        # f((k, m), l) = l + block offset
        rng = np.random.default_rng(13)
        blocks = [rng.uniform(-1, 1, size=(2, 2)) for _ in range(2)]
        m = np.zeros((4, 4))
        m[:2, :2] = blocks[0]
        m[2:, 2:] = blocks[1]
        oracle = SparseOracle.from_dense(m, rho=2, f=lambda j, l: l + (j & ~1))
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


def _swap_permutation(n, swap_pairs):
    perm = np.arange(n)
    for qa, qb in swap_pairs:
        differ = ((perm >> qa) & 1) != ((perm >> qb) & 1)
        perm = np.where(differ, perm ^ ((1 << qa) | (1 << qb)), perm)
    return perm


def dense_swap_reduction(h_eff, swap_pairs):
    """Had . CSWAP . (1 (x) U_eff) . CSWAP . Had and H_eff + S H_eff S as dense products."""
    sys_qubits = h_eff.system_qubits
    n = 1 << sys_qubits
    perm = _swap_permutation(n, swap_pairs)
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


def block_swap_unitary(h_eff, swap_pairs):
    """[[S, D], [D, S]] from U_eff and its swapped copy, indexed on dense arrays."""
    n = 1 << h_eff.system_qubits
    perm = _swap_permutation(n, swap_pairs)
    inner = (np.arange(1 << h_eff.ancilla_qubits)[:, None] * n + perm).reshape(-1)
    u_eff = np.asarray(h_eff.unitary)
    swapped = u_eff[inner][:, inner]
    same, differ = (u_eff + swapped) / 2, (u_eff - swapped) / 2
    return np.block([[same, differ], [differ, same]])


def dense_gram_deviation(u):
    return float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))


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


def _swap_cases_and_round():
    yield from _swap_cases()
    rng = np.random.default_rng(43)
    for n in (4, 8, 16):
        # the round's exchange-symmetric H_eff; its largest entry leaves an
        # explicit zero in the stored rotation
        eta = n.bit_length() - 1
        h_eff = dsparse_fused_diagonal(np.kron(rng.uniform(-1, 1, size=n), np.ones(n)))
        yield h_eff, [(q, q + eta) for q in range(eta)]


def swap_reduction_from_dense(h_eff, swap_pairs):
    """symmetry_swap_reduction as it was built from sp.csr_matrix of the dense U_eff."""
    n = 1 << h_eff.system_qubits
    perm = _swap_permutation(n, swap_pairs)
    inner = (np.arange(1 << h_eff.ancilla_qubits)[:, None] * n + perm).reshape(-1)
    u_eff = sp.csr_matrix(h_eff.unitary)
    swapped = u_eff[inner][:, inner]
    same, differ = (u_eff + swapped) / 2, (u_eff - swapped) / 2
    op = np.asarray(h_eff.operator)
    return BlockEncodingResult(
        unitary=sp.bmat([[same, differ], [differ, same]], format="csr"),
        system_qubits=h_eff.system_qubits,
        ancilla_qubits=1 + h_eff.ancilla_qubits,
        zeta=2.0 * h_eff.zeta,
        operator=op + op[perm][:, perm],
    )


class TestSymmetrySwap:
    @pytest.mark.parametrize("h_eff, pairs", list(_swap_cases()))
    def test_index_form_matches_dense_products(self, h_eff, pairs):
        unitary, operator = dense_swap_reduction(h_eff, pairs)
        result = symmetry_swap_reduction(h_eff, pairs)
        assert result.unitary.shape == unitary.shape
        assert np.max(np.abs(result.unitary - unitary)) <= 4 * 2.0**-52
        assert np.array_equal(result.operator, operator)
        assert result.ancilla_qubits == 1 + h_eff.ancilla_qubits
        block = block_swap_unitary(h_eff, pairs)
        assert np.array_equal(result.unitary, block)
        n = 1 << h_eff.system_qubits
        assert result.residual == float(np.max(np.abs(result.zeta * block[:n, :n] - operator)))
        assert abs(result.unitarity_deviation - dense_gram_deviation(block)) <= 1e-15

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

    def test_size_limit_fits_both_dsparse_encodings(self, tmp_path):
        assert 2 + 2 * (MAX_COO_DIM.bit_length() - 1) <= blockenc.MAX_DENSE_QUBITS
        path = tmp_path / "edge.csv"
        path.write_text(f"0,0,1.0\n{MAX_COO_DIM - 1},{MAX_COO_DIM - 1},1.0\n")
        assert read_coo_csv(path).shape == (MAX_COO_DIM, MAX_COO_DIM)
        path.write_text(f"0,0,1.0\n{MAX_COO_DIM},{MAX_COO_DIM},1.0\n")
        with pytest.raises(ScaleError, match="MAX_COO_DIM"):
            read_coo_csv(path)

    def test_oversized_index_refused_before_allocation(self, tmp_path, monkeypatch):
        path = tmp_path / "big.csv"
        path.write_text("0,0,1.0\n8191,8191,1.0\n")
        # with numpy unusable, only a guard raised before any allocation passes
        monkeypatch.setattr(blockenc, "np", None)
        with pytest.raises(ScaleError, match="MAX_COO_DIM"):
            read_coo_csv(path)

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


# ---------------------------------------------------------------------------
# The constructions written out one by one, each with its own SELECT loop,
# isometry fill and permutation loop: oracles for the shared LCU builder,
# the shared d-sparse skeleton and the index-built permutations
# ---------------------------------------------------------------------------


def inline_lcu_prepare(weights, a_prime):
    col = np.zeros(1 << a_prime)
    col[: weights.shape[0]] = np.sqrt(weights / np.sum(weights))
    return blockenc._complete_isometry(col[:, None]).toarray()


def inline_lcu_sum(parts, dtype=complex):
    sys_qubits = parts[0].system_qubits
    k = len(parts)
    a_max = max(p.ancilla_qubits for p in parts)
    a_prime = max(1, (k - 1).bit_length())
    dim_inner = 1 << (a_max + sys_qubits)
    dim_sel = 1 << a_prime
    select = np.zeros((dim_sel * dim_inner, dim_sel * dim_inner), dtype=dtype)
    for p in range(dim_sel):
        if p < k:
            pad = a_max - parts[p].ancilla_qubits
            block = np.kron(np.eye(1 << pad), parts[p].unitary)
        else:
            block = np.eye(dim_inner)
        select[p * dim_inner : (p + 1) * dim_inner, p * dim_inner : (p + 1) * dim_inner] = block
    weights = np.array([p.zeta for p in parts], dtype=np.float64)
    g = inline_lcu_prepare(weights, a_prime)
    unitary = np.kron(g.conj().T, np.eye(dim_inner)) @ select @ np.kron(g, np.eye(dim_inner))
    return BlockEncodingResult(
        unitary=unitary,
        system_qubits=sys_qubits,
        ancilla_qubits=a_prime + a_max,
        zeta=float(np.sum(weights)),
        operator=np.sum([p.operator for p in parts], axis=0),
    )


def inline_diag_no_rotation(values, d):
    vals = np.asarray(values, dtype=np.int64)
    n_sys = vals.shape[0]
    eta = n_sys.bit_length() - 1
    a_prime = max(1, (d + 1 - 1).bit_length())
    weights = np.array(
        [(float(1 << d) - 1.0) / 2.0] + [2.0 ** (d - a - 1) for a in range(1, d + 1)]
    )
    dim_data = 1 << d
    terms = [np.eye(dim_data)]
    y = np.arange(dim_data)
    for a in range(1, d + 1):
        bit = (y >> (d - a)) & 1
        terms.append(np.diag(-np.where(bit == 1, -1.0, 1.0)))
    g = inline_lcu_prepare(weights, a_prime)
    dim_sel = 1 << a_prime
    select = np.zeros((dim_sel * dim_data, dim_sel * dim_data))
    for p in range(dim_sel):
        block = terms[p] if p < len(terms) else np.eye(dim_data)
        select[p * dim_data : (p + 1) * dim_data, p * dim_data : (p + 1) * dim_data] = block
    b_a = np.kron(g.conj().T, np.eye(dim_data)) @ select @ np.kron(g, np.eye(dim_data))
    perm = np.zeros((dim_data * n_sys, dim_data * n_sys))
    for x in range(n_sys):
        for yv in range(dim_data):
            perm[(yv ^ int(vals[x])) * n_sys + x, yv * n_sys + x] = 1.0
    lifted = np.kron(b_a, np.eye(n_sys))
    od = np.kron(np.eye(dim_sel), perm)
    return BlockEncodingResult(
        unitary=od.conj().T @ lifted @ od,
        system_qubits=eta,
        ancilla_qubits=a_prime + d,
        zeta=float((1 << d) - 1),
        operator=np.diag(vals.astype(np.float64)),
    )


def inline_product_be(left, right):
    sys_qubits = left.system_qubits
    a_m = max(left.ancilla_qubits, right.ancilla_qubits)
    dim_inner = 1 << (a_m + sys_qubits)

    def lifted(part):
        return np.kron(np.eye(1 << (a_m - part.ancilla_qubits)), part.unitary)

    cx = np.eye(2 * dim_inner)
    for s in range(1 << sys_qubits):
        i0, i1 = s, dim_inner + s
        cx[i0, i0] = cx[i1, i1] = 0.0
        cx[i0, i1] = cx[i1, i0] = 1.0
    big_l = np.kron(np.eye(2), lifted(left))
    big_r = np.kron(np.eye(2), lifted(right))
    xf = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(dim_inner))
    return BlockEncodingResult(
        unitary=xf @ big_l @ cx @ big_r,
        system_qubits=sys_qubits,
        ancilla_qubits=1 + a_m,
        zeta=left.zeta * right.zeta,
        operator=np.asarray(left.operator) @ np.asarray(right.operator),
    )


def _inline_slots(a):
    return np.repeat(np.arange(a.n), a.rho), a.columns.reshape(-1), 1.0 / math.sqrt(a.rho)


def _inline_result(a, psi, chi, ancilla_qubits):
    return BlockEncodingResult(
        unitary=blockenc._complete_isometry(chi).T @ blockenc._complete_isometry(psi),
        system_qubits=a.eta,
        ancilla_qubits=ancilla_qubits,
        zeta=a.rho * a.max_abs,
        operator=a.matrix.copy(),
    )


def inline_dsparse_standard(a):
    n, eta, norm, m = a.n, a.eta, a.max_abs, a.matrix
    dim = 1 << (2 + 2 * eta)
    psi, chi = np.zeros((dim, n)), np.zeros((dim, n))
    j, c, scale = _inline_slots(a)

    def index(f1, f2, p, s):
        return (((f1 << 1 | f2) << eta) | p) << eta | s

    alpha, beta = blockenc._signed_sqrt_amplitudes(m[c, j], norm)
    psi[index(0, 0, c, j), j] = scale * alpha
    psi[index(1, 0, c, j), j] = scale * beta
    mag, rest = blockenc._signed_sqrt_amplitudes(np.abs(m[j, c]), norm)
    chi[index(0, 0, j, c), j] = scale * mag
    chi[index(0, 1, j, c), j] = scale * rest
    return _inline_result(a, psi, chi, 2 + eta)


def inline_dsparse_fused(a):
    n, eta, norm, m = a.n, a.eta, a.max_abs, a.matrix
    dim = 1 << (1 + 2 * eta)
    psi, chi = np.zeros((dim, n)), np.zeros((dim, n))
    j, c, scale = _inline_slots(a)

    def index(flag, p, s):
        return ((flag << eta) | p) << eta | s

    amp = m[c, j] / norm
    psi[index(0, j, c), j] = scale * amp
    psi[index(1, j, c), j] = scale * np.sqrt(1.0 - amp * amp)
    chi[index(0, c, j), j] = scale
    return _inline_result(a, psi, chi, 1 + eta)


def assert_same_encoding(result, oracle):
    assert np.array_equal(result.unitary, oracle.unitary)
    assert result.residual == oracle.residual
    assert result.unitarity_deviation == oracle.unitarity_deviation
    assert (result.system_qubits, result.ancilla_qubits, result.zeta) == (
        oracle.system_qubits,
        oracle.ancilla_qubits,
        oracle.zeta,
    )
    assert np.array_equal(result.operator, oracle.operator)


def with_phased_ancilla_branch(part, phase):
    """The same encoding with a phase on every ancilla-nonzero column: a complex unitary."""
    n = 1 << part.system_qubits
    phases = np.full(part.unitary.shape[0], np.exp(1j * phase))
    phases[:n] = 1.0
    return BlockEncodingResult(
        unitary=part.unitary * phases,
        system_qubits=part.system_qubits,
        ancilla_qubits=part.ancilla_qubits,
        zeta=part.zeta,
        operator=part.operator,
    )


def _lcu_cases():
    rng = np.random.default_rng(61)
    diag = [dsparse_fused_diagonal(rng.uniform(-1, 1, size=8)) for _ in range(3)]
    fused = dsparse_fused(SparseOracle.from_dense(full_rows(rng, 8, 2), rho=2))
    standard = dsparse_standard(SparseOracle.from_dense(full_rows(rng, 8, 1), rho=1))
    return {
        "one part": diag[:1],
        "two parts": diag[:2],
        "three parts": diag,
        "unequal ancilla widths": [diag[0], fused, standard],
        "a complex part": [diag[0], with_phased_ancilla_branch(diag[1], 0.7)],
    }


class TestAgainstInlineConstructions:
    @pytest.mark.parametrize("case", list(_lcu_cases()))
    def test_lcu_sum(self, case):
        parts = _lcu_cases()[case]
        result = lcu_sum(parts)
        dtype = np.result_type(*(p.unitary for p in parts))
        assert result.unitary.dtype == dtype
        assert_same_encoding(result, inline_lcu_sum(parts, dtype))
        # always-complex arithmetic: real and complex BLAS products may round
        # an entry summed from more than two nonzero terms differently
        always_complex = inline_lcu_sum(parts)
        assert np.max(np.abs(result.unitary - always_complex.unitary)) <= 2.0**-52
        assert abs(result.residual - always_complex.residual) <= 2.0**-52
        assert abs(result.unitarity_deviation - always_complex.unitarity_deviation) <= 2.0**-52

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diag_no_rotation(self, d):
        table = list(np.random.default_rng(67 + d).integers(0, 1 << d, size=4))
        result = diag_no_rotation(table, exact_table_qrom(table, eta=2, d=d), d=d)
        assert_same_encoding(result, inline_diag_no_rotation(table, d))

    def test_product_with_unequal_ancilla_widths(self):
        rng = np.random.default_rng(71)
        left = dsparse_fused(SparseOracle.from_dense(full_rows(rng, 4, 3), rho=3))
        right = dsparse_fused_diagonal(rng.uniform(-1, 1, size=4))
        for a, b in ((left, right), (right, left), (right, right)):
            assert_same_encoding(product_be(a, b), inline_product_be(a, b))

    @pytest.mark.parametrize(
        "build, oracle",
        [(dsparse_standard, inline_dsparse_standard), (dsparse_fused, inline_dsparse_fused)],
    )
    @pytest.mark.parametrize("pattern", [full_rows, padded_rows])
    @pytest.mark.parametrize("rho", [1, 3])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_dsparse(self, build, oracle, pattern, rho, n):
        a = SparseOracle.from_dense(pattern(np.random.default_rng(3 * n + rho), n, rho), rho=rho)
        assert_same_encoding(build(a), oracle(a))


# ---------------------------------------------------------------------------
# The form a result stores, and the dense copy .unitary builds from it
# ---------------------------------------------------------------------------


def _report_corpus():
    path = Path(__file__).parent / "report_corpus.py"
    spec = importlib.util.spec_from_file_location("report_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


_CORPUS = _report_corpus()
#: blockenc-verify runs: the corpus's seeds and its COO matrices
_VERIFY_CASES = [pytest.param(["--seed", str(seed)], None, id=f"seed {seed}") for seed in range(4)] + [
    pytest.param([], _CORPUS.coo_csv(matrix), id=name) for name, matrix in _CORPUS.COO_MATRICES
]


def recorded_results(monkeypatch):
    """Every result the constructions build, beside what each was handed:
    the sparse matrix itself, or a copy of the dense array."""
    made = []
    real = BlockEncodingResult

    def record(unitary, **kwargs):
        given = unitary if sp.issparse(unitary) else np.array(unitary)
        result = real(unitary=unitary, **kwargs)
        made.append((result, given))
        return result

    monkeypatch.setattr(blockenc, "BlockEncodingResult", record)
    return made


def benchmark_round(n=16, seed=1):
    """One round of every construction, as the benchmark's verify workload builds it."""
    rng = np.random.default_rng(seed)
    eta = n.bit_length() - 1
    d1, d2 = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
    tri = np.diag(rng.uniform(0.2, 1, size=n))
    off = rng.uniform(-0.8, 0.8, size=n - 1)
    tri[np.arange(n - 1), np.arange(1, n)] = off
    tri[np.arange(1, n), np.arange(n - 1)] = off
    table = list(rng.integers(0, 8, size=4))
    h_eff = dsparse_fused_diagonal(np.repeat(rng.uniform(-1, 1, size=n), n))
    part, second = dsparse_fused_diagonal(d1), dsparse_fused_diagonal(d2)
    oracle = SparseOracle.from_dense(tri, rho=3)
    return [
        part,
        dsparse_standard(oracle),
        dsparse_fused(oracle),
        lcu_sum([part, second]),
        product_be(part, second),
        diag_no_rotation(table, exact_table_qrom(table, eta=2, d=3), d=3),
        symmetry_swap_reduction(h_eff, [(q, q + eta) for q in range(eta)]),
    ]


class TestStoredForm:
    @pytest.mark.parametrize("options, coo", _VERIFY_CASES)
    def test_unitary_equals_the_dense_copy_of_what_was_built(self, tmp_path, monkeypatch, options, coo):
        from whqrom.cli import main

        argv = ["--out", str(tmp_path), *options, "blockenc-verify"]
        if coo is not None:
            (tmp_path / "matrix.csv").write_text(coo)
            argv += ["--input", str(tmp_path / "matrix.csv")]
        made = recorded_results(monkeypatch)
        assert main(argv) == 0
        assert made
        for result, given in made:
            u = result.unitary
            assert type(u) is np.ndarray and not u.flags.writeable
            assert u.dtype == given.dtype and u.shape == given.shape
            # row blocks, so the 4096 x 4096 standard encoding at MAX_COO_DIM
            # is densified once, not twice
            for start in range(0, u.shape[0], 512):
                rows = given[start : start + 512]
                assert np.array_equal(u[start : start + 512], rows.toarray() if sp.issparse(rows) else rows)
            del u

    def test_each_construction_keeps_the_form_it_built(self):
        sparse_built = {0, 1, 2, 6}  # fused diagonal, standard, fused, symmetry swap
        for index, result in enumerate(benchmark_round(n=4)):
            stored = result._stored
            if index in sparse_built:
                assert sp.issparse(stored) and stored.format == "csr"
                first, again = result.unitary, result.unitary
                assert first is not again and np.array_equal(first, again)
                assert not first.flags.writeable and not again.flags.writeable
            else:
                assert type(stored) is np.ndarray and result.unitary is stored
            n = 1 << result.system_qubits
            assert np.array_equal(result.sub_block(), result.unitary[:n, :n])

    @pytest.mark.parametrize("h_eff, pairs", list(_swap_cases_and_round()))
    def test_swap_reduction_reads_the_stored_form(self, monkeypatch, h_eff, pairs):
        expected = swap_reduction_from_dense(h_eff, pairs)
        reads = []
        dense = BlockEncodingResult.unitary

        def counted(result):
            reads.append(result)
            return dense.fget(result)

        monkeypatch.setattr(BlockEncodingResult, "unitary", property(counted))
        result = symmetry_swap_reduction(h_eff, pairs)
        assert not reads
        monkeypatch.undo()
        assert np.array_equal(result.unitary, expected.unitary)
        assert result.residual == expected.residual
        assert result.unitarity_deviation == expected.unitarity_deviation
        assert np.array_equal(result.operator, expected.operator)

    def test_round_memory(self):
        benchmark_round()  # imports and first-call caches
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results = benchmark_round()
            retained, peak = (m - base for m in tracemalloc.get_traced_memory())
            dims = [result.unitary.shape[0] for result in results]
            after_reads = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained <= 2 << 20, f"{retained / 2**20:.2f} MiB retained"
        assert peak <= 4 << 20, f"{peak / 2**20:.2f} MiB peak"
        # the smallest dense copy of a sparse-built result here is 8 KiB
        assert after_reads <= retained + 4096, f"{(after_reads - retained) / 2**10:.1f} KiB"
        assert dims == [32, 1024, 512, 64, 64, 128, 1024]
