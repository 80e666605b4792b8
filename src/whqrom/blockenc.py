"""Dense block encodings with verified sub-block identities, at desk scale.

Every construction returns a :class:`BlockEncodingResult` whose unitary U
embeds the target operator A in its top-left block:

    zeta * (<0|_a (x) 1) U (|0>_a (x) 1) = A + O(residual),

with ancillas stored as the most significant qubits.  Construction fails
loudly if the unitarity deviation exceeds 1e-10 or the residual exceeds
1e-9, so a successfully built result is a verified one.

Scaling constants by construction: rho*max|A| for the d-sparse methods,
max|A| for the fused diagonal rotation, 2**d - 1 for the rotation-free
diagonal route, sums for LCU, products for operator products, and twice the
effective constant for the symmetry CSWAP reduction.

The two d-sparse routes share the two-isometry skeleton A-hat = T2^dag T1
but realize the amplitudes differently: the standard route spends two flag
qubits carrying square-root amplitudes (one per isometry, which is what
keeps the |1> branches from interfering), while the fused rotation route
spends a single flag whose amplitude is linear in the matrix element.  Both
encode A / (rho * max|A|); their unitaries differ (even in dimension).

Each isometry's columns have pairwise disjoint supports of at most 2 rho
entries (column j lives only at one system or index-register value), so it
is completed to a unitary exactly by one Householder reflector per support
and a unit column for every index outside all supports.  The isometries and
their product stay sparse; the unitarity and residual checks run on the
sparse product, and the stored unitary is its dense copy.  The fused
diagonal rotation (two nonzeros per column) and the symmetry CSWAP
reduction's [[S, D], [D, S]] are handed to the checks in sparse form too.
"""

from __future__ import annotations

import csv as _csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ParseError,
    RangeError,
    ScaleError,
    ShapeError,
    SymmetryError,
    ToleranceError,
)
from .qrom import QromCircuit, simulate_table

__all__ = [
    "BlockEncodingResult",
    "SparseOracle",
    "dsparse_standard",
    "dsparse_fused",
    "dsparse_fused_diagonal",
    "diag_no_rotation",
    "exact_table_qrom",
    "lcu_sum",
    "product_be",
    "symmetry_swap_reduction",
    "of_sum_tensor",
    "sum_tensor_pattern",
    "of_angular_momentum",
    "read_coo_csv",
]

#: Largest total qubit count for which dense unitaries are materialized.
MAX_DENSE_QUBITS = 13

#: Largest system a coordinate-list CSV may hold: both d-sparse encodings
#: must fit, and the standard one spends 2 + 2 eta qubits.
MAX_COO_DIM = 1 << ((MAX_DENSE_QUBITS - 2) // 2)

UNITARITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9


def _check_dense_scale(total_qubits: int) -> None:
    if total_qubits > MAX_DENSE_QUBITS:
        raise ScaleError(
            f"{total_qubits} qubits exceed the dense desk-scale limit "
            f"{MAX_DENSE_QUBITS}"
        )


@dataclass(frozen=True)
class BlockEncodingResult:
    """A verified dense block encoding.

    ``operator`` is the target the construction aimed at; ``residual`` is
    the max-norm error of zeta * top-left-block against it, and both the
    residual and the unitarity deviation are enforced at construction.
    ``unitary`` may be given as a ``scipy.sparse`` matrix: both checks then
    run on the sparse form, and the stored unitary is its dense copy.
    """

    unitary: np.ndarray = field(repr=False)
    system_qubits: int
    ancilla_qubits: int
    zeta: float
    operator: np.ndarray = field(repr=False)
    residual: float = field(init=False)
    unitarity_deviation: float = field(init=False)

    def __post_init__(self):
        sparse = hasattr(self.unitary, "toarray")
        u = self.unitary if sparse else np.asarray(self.unitary)
        op = np.asarray(self.operator)
        n = 1 << self.system_qubits
        dim = 1 << (self.system_qubits + self.ancilla_qubits)
        if u.shape != (dim, dim):
            raise ShapeError(f"unitary must be {dim}x{dim}, got {u.shape}")
        if op.shape != (n, n):
            raise ShapeError(f"operator must be {n}x{n}, got {op.shape}")
        if not self.zeta > 0:
            raise RangeError(f"zeta must be positive, got {self.zeta}")
        if sparse:
            import scipy.sparse as sp

            gram = u.conj().T @ u - sp.identity(dim, format="csr")
            gram_dev = float(abs(gram).max())
            top_left = u[:n, :n].toarray()
        else:
            gram_dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
            top_left = u[:n, :n]
        if gram_dev > UNITARITY_TOL:
            raise ToleranceError(f"unitarity deviation {gram_dev:.3e} > {UNITARITY_TOL}")
        res = float(np.max(np.abs(self.zeta * top_left - op)))
        if res > RESIDUAL_TOL:
            raise ToleranceError(f"sub-block residual {res:.3e} > {RESIDUAL_TOL}")
        if sparse:
            u = u.toarray()
        u.setflags(write=False)
        op.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "operator", op)
        object.__setattr__(self, "residual", res)
        object.__setattr__(self, "unitarity_deviation", gram_dev)

    def sub_block(self) -> np.ndarray:
        n = 1 << self.system_qubits
        return np.asarray(self.unitary[:n, :n])

    def to_json_dict(self) -> dict:
        return {
            "systemQubits": self.system_qubits,
            "ancillaQubits": self.ancilla_qubits,
            "zeta": self.zeta,
            "residual": self.residual,
            "unitarityDeviation": self.unitarity_deviation,
            "dimension": 1 << self.system_qubits,
        }


@dataclass(frozen=True)
class SparseOracle:
    """Row-sparse access to a real matrix with a symmetric nonzero pattern.

    ``columns[j, l]`` is the column index f(j, l) of the l-th structural
    nonzero of row j, injective over l < rho; rows with fewer actual
    nonzeros are padded with distinct spare columns holding zeros.
    """

    n: int
    rho: int
    matrix: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        cols = np.asarray(self.columns, dtype=np.int64)
        m.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "columns", cols)
        if self.n & (self.n - 1) or self.n < 1:
            raise ShapeError(f"dimension {self.n} must be a power of two")
        if m.shape != (self.n, self.n):
            raise ShapeError(f"matrix must be {self.n}x{self.n}")
        if cols.shape != (self.n, self.rho):
            raise ShapeError(f"column table must be {self.n}x{self.rho}")
        if not 1 <= self.rho <= self.n:
            raise RangeError(f"rho = {self.rho} outside [1, {self.n}]")
        for j in range(self.n):
            row = cols[j]
            if len(set(int(c) for c in row)) != self.rho:
                raise ShapeError(f"column indices of row {j} are not injective")
            nz = set(np.nonzero(m[j])[0].tolist())
            if not nz.issubset(set(int(c) for c in row)):
                raise ShapeError(f"row {j} has nonzeros outside its column table")

    @property
    def eta(self) -> int:
        return self.n.bit_length() - 1

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix)))

    @staticmethod
    def from_dense(
        a: np.ndarray, rho: int | None = None, f: Callable[[int, int], int] | None = None
    ) -> "SparseOracle":
        """Build the oracle from a dense matrix; pattern must be symmetric.

        rho defaults to the widest row; an explicit column-index function f
        overrides the default enumeration (sorted nonzeros, zero-padded).
        """
        m = np.asarray(a, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"expected a square matrix, got {m.shape}")
        n = m.shape[0]
        pattern = m != 0
        if not np.array_equal(pattern, pattern.T):
            raise SymmetryError("nonzero pattern must be symmetric")
        row_counts = pattern.sum(axis=1)
        actual = int(row_counts.max()) if n else 0
        rho = actual if rho is None else rho
        if rho < max(1, actual):
            raise RangeError(f"declared rho = {rho} below the actual sparsity {actual}")
        if rho > n:
            raise RangeError(f"declared rho = {rho} exceeds the dimension {n}")
        columns = np.empty((n, rho), dtype=np.int64)
        for j in range(n):
            if f is not None:
                row = [f(j, l) for l in range(rho)]
            else:
                nz = np.nonzero(m[j])[0].tolist()
                spare = [c for c in range(n) if c not in set(nz)]
                row = (nz + spare)[:rho]
            columns[j] = row
        return SparseOracle(n=n, rho=max(rho, 1), matrix=m, columns=columns)


def _complete_isometry(columns: np.ndarray):
    """Complete real orthonormal columns with disjoint supports to an orthogonal matrix.

    Returns a ``scipy.sparse`` CSR matrix whose first columns are ``columns``.
    A column v with support S (its nonzero rows) is completed on S by the
    other columns of -sigma (I - 2 w w^T / w^T w), the Householder reflector
    with w = v + sigma e_p, p = min S and sigma = sign(v_p), whose column p
    is v; each row outside every support adds its unit column.  The
    completing columns follow in the order of the rows they stand for (the
    non-pivot rows of the supports and the rows outside them).  Overlapping
    supports raise :class:`ShapeError`.
    """
    import scipy.sparse as sp

    cols = np.asarray(columns, dtype=np.float64)
    dim, n = cols.shape
    owner, rows = np.nonzero(cols.T)  # grouped by column, rows ascending
    if np.unique(rows).size != rows.size:
        raise ShapeError("column supports overlap")
    counts = np.bincount(owner, minlength=n)
    if not counts.all():
        raise ShapeError(f"column {int(np.argmin(counts))} is zero")
    starts = np.cumsum(counts) - counts
    pivot = np.zeros(dim, dtype=bool)
    pivot[rows[starts]] = True
    position = n - 1 + np.cumsum(~pivot)
    outside = np.ones(dim, dtype=bool)
    outside[rows] = False
    r_parts = [rows, np.flatnonzero(outside)]
    c_parts = [owner, position[outside]]
    v_parts = [cols[rows, owner], np.ones(r_parts[1].size)]
    for start, count in zip(starts.tolist(), counts.tolist()):
        if count == 1:
            continue
        support = rows[start : start + count]
        w = cols[support, owner[start]]
        sigma = 1.0 if w[0] > 0 else -1.0
        w[0] += sigma
        block = (2.0 * sigma / (w @ w)) * np.outer(w, w[1:])
        block[np.arange(1, count), np.arange(count - 1)] -= sigma
        r_parts.append(np.repeat(support, count - 1))
        c_parts.append(np.tile(position[support[1:]], count))
        v_parts.append(block.ravel())
    return sp.csr_matrix(
        (np.concatenate(v_parts), (np.concatenate(r_parts), np.concatenate(c_parts))),
        shape=(dim, dim),
    )


def _signed_sqrt_amplitudes(vals: np.ndarray, norm: float):
    main = np.sign(vals) * np.sqrt(np.abs(vals) / norm)
    rest = np.sqrt(1.0 - np.abs(vals) / norm)
    return main, rest


def _slots(a: SparseOracle):
    """Rows j and columns f(j, l) of every structural slot (j, l), and 1/sqrt(rho)."""
    rows = np.repeat(np.arange(a.n), a.rho)
    return rows, a.columns.reshape(-1), 1.0 / math.sqrt(a.rho)


def dsparse_standard(a: SparseOracle) -> BlockEncodingResult:
    """Two-isometry d-sparse encoding with square-root flag amplitudes.

    Ancillas: two flag qubits plus an eta-qubit index register (a = eta+2);
    zeta = rho * max|A|.  The target's sign is carried on the first flag's
    |0> branch, so any real matrix with a symmetric nonzero pattern works.
    """
    n, rho, eta = a.n, a.rho, a.eta
    norm = a.max_abs
    if norm == 0:
        raise RangeError("zero matrix has a degenerate max-norm")
    total_qubits = 2 + 2 * eta
    _check_dense_scale(total_qubits)
    dim = 1 << total_qubits
    m = a.matrix
    psi = np.zeros((dim, n))
    chi = np.zeros((dim, n))
    j, c, scale = _slots(a)

    def index(f1, f2, p, s):
        return (((f1 << 1 | f2) << eta) | p) << eta | s

    # column j of psi: index register p = f(j, l), system register j
    alpha, beta = _signed_sqrt_amplitudes(m[c, j], norm)
    psi[index(0, 0, c, j), j] = scale * alpha
    psi[index(1, 0, c, j), j] = scale * beta
    # column k of chi: index register k, system register f(k, l)
    mag, rest = _signed_sqrt_amplitudes(np.abs(m[j, c]), norm)
    chi[index(0, 0, j, c), j] = scale * mag
    chi[index(0, 1, j, c), j] = scale * rest
    unitary = _complete_isometry(chi).T @ _complete_isometry(psi)
    return BlockEncodingResult(
        unitary=unitary,
        system_qubits=eta,
        ancilla_qubits=2 + eta,
        zeta=rho * norm,
        operator=m.copy(),
    )


def dsparse_fused(a: SparseOracle) -> BlockEncodingResult:
    """Single-flag d-sparse encoding with linear rotation amplitudes.

    The fused rotation oracle writes A[j,k]/max|A| directly onto the |0>
    branch of one flag, so only a = eta+1 ancillas are needed; zeta is the
    same rho * max|A| as the standard route and the sub-blocks agree.
    """
    n, rho, eta = a.n, a.rho, a.eta
    norm = a.max_abs
    if norm == 0:
        raise RangeError("zero matrix has a degenerate max-norm")
    total_qubits = 1 + 2 * eta
    _check_dense_scale(total_qubits)
    dim = 1 << total_qubits
    m = a.matrix
    psi = np.zeros((dim, n))
    chi = np.zeros((dim, n))
    j, c, scale = _slots(a)

    def index(flag, p, s):
        return ((flag << eta) | p) << eta | s

    amp = m[c, j] / norm
    # post-swap state: the index register holds the source column j, the
    # system register the target row c = f(j, l)
    psi[index(0, j, c), j] = scale * amp
    psi[index(1, j, c), j] = scale * np.sqrt(1.0 - amp * amp)
    chi[index(0, c, j), j] = scale
    unitary = _complete_isometry(chi).T @ _complete_isometry(psi)
    return BlockEncodingResult(
        unitary=unitary,
        system_qubits=eta,
        ancilla_qubits=1 + eta,
        zeta=rho * norm,
        operator=m.copy(),
    )


def dsparse_fused_diagonal(diag: np.ndarray) -> BlockEncodingResult:
    """Diagonal fused-oracle encoding: one ancilla, zeta = max|A|.

    The rotation loads A[j,j]/max|A| directly (no square root), so the
    block encoding is the rotation itself and no column oracle is needed.
    """
    d = np.asarray(diag, dtype=np.float64)
    n = d.shape[0]
    if n & (n - 1) or n < 1:
        raise ShapeError(f"dimension {n} must be a power of two")
    norm = float(np.max(np.abs(d)))
    if norm == 0:
        raise RangeError("zero matrix has a degenerate max-norm")
    eta = n.bit_length() - 1
    _check_dense_scale(eta + 1)
    import scipy.sparse as sp

    amp = d / norm
    rest = np.sqrt(1.0 - amp * amp)
    unitary = sp.bmat(
        [[sp.diags(amp), sp.diags(-rest)], [sp.diags(rest), sp.diags(amp)]], format="csr"
    )
    result = BlockEncodingResult(
        unitary=unitary,
        system_qubits=eta,
        ancilla_qubits=1,
        zeta=norm,
        operator=np.diag(d),
    )
    _assert_diagonal_zeta_bound(result.zeta, d)
    return result


def _assert_diagonal_zeta_bound(zeta: float, diag: np.ndarray) -> None:
    spectral = float(np.max(np.abs(diag)))
    if zeta < spectral - 1e-12:
        raise ToleranceError(
            f"zeta = {zeta} below the spectral radius {spectral} of a diagonal encoding"
        )


def exact_table_qrom(values: Sequence[int], eta: int, d: int) -> QromCircuit:
    """WH-QROM loading 2**eta * D_x exactly for an unsigned d-bit table.

    Internally synthesizes the signed shift D - 2**(d-1) and restores the
    offset with one closing adder.
    """
    from .qrom import Adder, synthesize
    from .wht import SampledFunction, minimal_truncation

    vals = np.asarray(values, dtype=np.int64)
    if vals.shape != (1 << eta,):
        raise ShapeError(f"expected 2**{eta} values")
    if vals.min() < 0 or vals.max() >= (1 << d):
        raise RangeError(f"table values must lie in [0, 2**{d})")
    b = eta + d
    shifted = SampledFunction(eta=eta, d=d, values=vals - (1 << (d - 1)))
    trunc = minimal_truncation(shifted, epsilon=1e-300)
    circuit = synthesize(trunc)
    offset = Adder(-(1 << (b - 1)), b)  # adds 2**(b-1) mod 2**b
    return QromCircuit(
        input_width=eta,
        payload_width=b,
        ancilla_count=circuit.ancilla_count,
        gates=np.vstack([circuit.table, offset.row]),
    )


def _lcu_prepare(weights: np.ndarray, a_prime: int) -> np.ndarray:
    """Dense orthogonal matrix whose first column is sqrt(weights / sum)."""
    col = np.zeros(1 << a_prime)
    col[: weights.shape[0]] = np.sqrt(weights / np.sum(weights))
    return _complete_isometry(col[:, None]).toarray()


def diag_no_rotation(
    values: Sequence[int], qrom: QromCircuit, d: int | None = None
) -> BlockEncodingResult:
    """Rotation-free diagonal encoding: conjugate a bit-weight LCU by QROM.

    The position-like operator A|y> = y|y> on the d-bit data register is an
    LCU of the identity and d single-qubit Z strings with total weight
    zeta = 2**d - 1.  Conjugating B[A] by the data-loading oracle O_D turns
    it into diag(D_x) / (2**d - 1) on the system register.  The supplied
    QROM must load 2**eta * D_x (as :func:`exact_table_qrom` does); it is
    consulted through its simulation table, and the dense verification uses
    the equivalent d-bit XOR-load oracle to stay at desk scale.
    """
    vals = np.asarray(values, dtype=np.int64)
    n = vals.shape[0]
    if n & (n - 1) or n < 1:
        raise ShapeError(f"expected a power-of-two table, got {n}")
    eta = n.bit_length() - 1
    if d is None:
        d = max(1, int(vals.max()).bit_length())
    if vals.min() < 0 or vals.max() >= (1 << d):
        raise RangeError(f"diagonal values must lie in [0, 2**{d})")
    if qrom.input_width != eta or qrom.payload_width != eta + d:
        raise ShapeError(
            f"qrom shape ({qrom.input_width}, {qrom.payload_width}) does not "
            f"match the table ({eta}, {eta + d})"
        )
    loaded = simulate_table(qrom, 0)
    if np.any(loaded % (1 << eta)):
        raise RangeError("qrom does not load values aligned to 2**eta")
    table = loaded >> eta
    if not np.array_equal(table, vals):
        raise RangeError("qrom table disagrees with the requested diagonal")

    a_prime = max(1, (d + 1 - 1).bit_length())
    total = a_prime + d + eta
    _check_dense_scale(total)
    # LCU terms: identity with weight (2**d - 1)/2, then -Z_a with weight
    # 2**(d-a-1) for a = 1..d (a = 1 is the most significant data bit)
    weights = np.array(
        [(float(1 << d) - 1.0) / 2.0] + [2.0 ** (d - a - 1) for a in range(1, d + 1)]
    )
    dim_data = 1 << d
    terms = [np.eye(dim_data)]
    y = np.arange(dim_data)
    for a in range(1, d + 1):
        bit = (y >> (d - a)) & 1
        terms.append(np.diag(-np.where(bit == 1, -1.0, 1.0)))
    g = _lcu_prepare(weights, a_prime)
    dim_sel = 1 << a_prime
    select = np.zeros((dim_sel * dim_data, dim_sel * dim_data))
    for p in range(dim_sel):
        block = terms[p] if p < len(terms) else np.eye(dim_data)
        select[
            p * dim_data : (p + 1) * dim_data, p * dim_data : (p + 1) * dim_data
        ] = block
    b_a = np.kron(g.conj().T, np.eye(dim_data)) @ select @ np.kron(g, np.eye(dim_data))

    # XOR-load permutation on (data, system)
    n_sys = n
    perm = np.zeros((dim_data * n_sys, dim_data * n_sys))
    for x in range(n_sys):
        for yv in range(dim_data):
            perm[(yv ^ int(vals[x])) * n_sys + x, yv * n_sys + x] = 1.0
    lifted = np.kron(b_a, np.eye(n_sys))
    # reorder: b_a acts on (a', data); perm on (data, sys)
    od = np.kron(np.eye(dim_sel), perm)
    unitary = od.conj().T @ lifted @ od
    zeta = float((1 << d) - 1)
    result = BlockEncodingResult(
        unitary=unitary,
        system_qubits=eta,
        ancilla_qubits=a_prime + d,
        zeta=zeta,
        operator=np.diag(vals.astype(np.float64)),
    )
    _assert_diagonal_zeta_bound(result.zeta, vals.astype(np.float64))
    return result


def lcu_sum(parts: Sequence[BlockEncodingResult]) -> BlockEncodingResult:
    """Sum of block encodings: zeta adds, ancillas pad to the widest part.

    The selector register holds ceil(log2 K) qubits; missing selector
    values carry identity unitaries and zero weight in the prepared state.
    """
    if not parts:
        raise ShapeError("lcu_sum needs at least one part")
    sys_qubits = parts[0].system_qubits
    for p in parts:
        if p.system_qubits != sys_qubits:
            raise ShapeError("parts act on different system dimensions")
    k = len(parts)
    a_max = max(p.ancilla_qubits for p in parts)
    a_prime = max(1, (k - 1).bit_length())
    total = a_prime + a_max + sys_qubits
    _check_dense_scale(total)
    dim_inner = 1 << (a_max + sys_qubits)
    dim_sel = 1 << a_prime
    select = np.zeros((dim_sel * dim_inner, dim_sel * dim_inner), dtype=complex)
    for p in range(dim_sel):
        if p < k:
            pad = a_max - parts[p].ancilla_qubits
            block = np.kron(np.eye(1 << pad), parts[p].unitary)
        else:
            block = np.eye(dim_inner)
        select[
            p * dim_inner : (p + 1) * dim_inner, p * dim_inner : (p + 1) * dim_inner
        ] = block
    weights = np.array([p.zeta for p in parts], dtype=np.float64)
    g = _lcu_prepare(weights, a_prime)
    unitary = np.kron(g.conj().T, np.eye(dim_inner)) @ select @ np.kron(g, np.eye(dim_inner))
    operator = np.sum([p.operator for p in parts], axis=0)
    return BlockEncodingResult(
        unitary=unitary,
        system_qubits=sys_qubits,
        ancilla_qubits=a_prime + a_max,
        zeta=float(np.sum(weights)),
        operator=operator,
    )


def product_be(left: BlockEncodingResult, right: BlockEncodingResult) -> BlockEncodingResult:
    """Product of encodings with one extra flag ancilla; zeta multiplies.

    The shared ancilla register is reused between the two factors: an X on
    the flag controlled on the ancillas being |0> captures the right
    factor's success branch before the left factor runs.
    """
    if left.system_qubits != right.system_qubits:
        raise ShapeError("factors act on different system dimensions")
    sys_qubits = left.system_qubits
    a_m = max(left.ancilla_qubits, right.ancilla_qubits)
    total = 1 + a_m + sys_qubits
    _check_dense_scale(total)
    dim_inner = 1 << (a_m + sys_qubits)
    n_sys = 1 << sys_qubits

    def lifted(part):
        pad = a_m - part.ancilla_qubits
        return np.kron(np.eye(1 << pad), part.unitary)

    ul, ur = lifted(left), lifted(right)
    # X on the flag controlled on the a_m ancillas being all zero
    cx = np.eye(2 * dim_inner)
    for s in range(n_sys):
        i0 = s            # flag 0, ancilla 0, system s
        i1 = dim_inner + s
        cx[i0, i0] = cx[i1, i1] = 0.0
        cx[i0, i1] = cx[i1, i0] = 1.0
    big_l = np.kron(np.eye(2), ul)
    big_r = np.kron(np.eye(2), ur)
    xf = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(dim_inner))
    unitary = xf @ big_l @ cx @ big_r
    return BlockEncodingResult(
        unitary=unitary,
        system_qubits=sys_qubits,
        ancilla_qubits=1 + a_m,
        zeta=left.zeta * right.zeta,
        operator=np.asarray(left.operator) @ np.asarray(right.operator),
    )


def symmetry_swap_reduction(
    h_eff: BlockEncodingResult,
    swap_pairs,
    full_operator: np.ndarray | None = None,
) -> BlockEncodingResult:
    """Encode H = H_eff + SWAP H_eff SWAP with one Hadamard ancilla.

    The circuit is Had . CSWAP . (1 (x) U_eff) . CSWAP . Had, with the
    Hadamard ancilla as the most significant qubit and CSWAP exchanging the
    listed system qubit pairs.  It is built by indexing, not by dense
    products: SWAP acts on the inner (ancilla, system) index as the
    permutation p(a n + s) = a n + perm(s), so with M = U_eff[p][:, p] the
    unitary is [[S, D], [D, S]], S = (U_eff + M) / 2, D = (U_eff - M) / 2,
    built and checked as a sparse matrix (U_eff is as sparse as its own
    construction, and each column of U has at most twice its nonzeros).
    That block form needs SWAP to be its own inverse, so the pairs must
    exchange two distinct system qubits each and share no qubit; anything
    else (a repeated, overlapping or self-pair) raises :class:`RangeError`.

    zeta doubles.  When the intended full operator is supplied it is
    checked against the constructed sum; disagreement beyond 1e-9 raises
    :class:`SymmetryError`.
    """
    sys_qubits = h_eff.system_qubits
    total = 1 + h_eff.ancilla_qubits + sys_qubits
    _check_dense_scale(total)
    n = 1 << sys_qubits
    perm = np.arange(n)
    used: set = set()
    for qa, qb in swap_pairs:
        if not (0 <= qa < sys_qubits and 0 <= qb < sys_qubits):
            raise RangeError(f"swap pair ({qa}, {qb}) outside the system register")
        if qa == qb or qa in used or qb in used:
            raise RangeError(
                f"swap pair ({qa}, {qb}) must name two distinct qubits no other pair uses"
            )
        used.update((qa, qb))
        perm ^= (((perm >> qa) ^ (perm >> qb)) & 1) * ((1 << qa) | (1 << qb))
    import scipy.sparse as sp

    inner = (np.arange(1 << h_eff.ancilla_qubits)[:, None] * n + perm).reshape(-1)
    u_eff = sp.csr_matrix(h_eff.unitary)
    swapped = u_eff[inner][:, inner]
    same, differ = (u_eff + swapped) / 2, (u_eff - swapped) / 2
    unitary = sp.bmat([[same, differ], [differ, same]], format="csr")
    op = np.asarray(h_eff.operator)
    constructed = op + op[perm][:, perm]
    if full_operator is not None:
        dev = float(np.max(np.abs(np.asarray(full_operator) - constructed)))
        if dev > 1e-9:
            raise SymmetryError(
                f"operator deviates from H_eff + SWAP H_eff SWAP by {dev:.3e}"
            )
    return BlockEncodingResult(
        unitary=unitary,
        system_qubits=sys_qubits,
        ancilla_qubits=1 + h_eff.ancilla_qubits,
        zeta=2.0 * h_eff.zeta,
        operator=constructed,
    )


# ---------------------------------------------------------------------------
# Column-index oracles
# ---------------------------------------------------------------------------


def of_sum_tensor(na: int, nb: int, nc: int) -> Callable[[int, int, int, int], int]:
    """Column-index function for M = A (x) I (x) I + I (x) B (x) I + I (x) I (x) C.

    Rows are labeled (a, b, c) with flat index a + Na*b + Na*Nb*c; each row
    has exactly Na + Nb + Nc - 2 structural nonzeros.  The returned
    C(a, b, c, mu) composes the base-row enumeration with the two cyclic
    shifts, mirroring the adder-based oracle construction.
    """
    rho = na + nb + nc - 2

    def c1(a: int, mu: int):
        if mu < na:
            return (mu, 0, 0)
        if mu < na + nb - 1:
            return (a, mu - na + 1, 0)
        return (a, 0, mu - na - nb + 2)

    def oracle(a: int, b: int, c: int, mu: int) -> int:
        if not (0 <= a < na and 0 <= b < nb and 0 <= c < nc):
            raise RangeError(f"row ({a}, {b}, {c}) out of range")
        if not 0 <= mu < rho:
            raise RangeError(f"mu = {mu} outside [0, {rho})")
        if mu < na + nb + nc - 2:
            mu2 = (mu - c) % (na + nb + nc - 2)
        else:
            mu2 = mu
        if mu2 < na + nb - 1:
            mu1 = (mu2 - b) % (na + nb - 1)
        else:
            mu1 = mu2
        aa, bb, cc = c1(a, mu1)
        bb = (bb + b) % nb if nb > 1 else 0
        cc = (cc + c) % nc if nc > 1 else 0
        return aa + na * bb + na * nb * cc

    oracle.rho = rho
    return oracle


def sum_tensor_pattern(na: int, nb: int, nc: int) -> np.ndarray:
    """Dense boolean nonzero pattern of the three-term Kronecker sum."""
    a = np.ones((na, na), dtype=bool)
    b = np.ones((nb, nb), dtype=bool)
    c = np.ones((nc, nc), dtype=bool)
    ia, ib, ic = np.eye(na, dtype=bool), np.eye(nb, dtype=bool), np.eye(nc, dtype=bool)
    return (
        np.kron(ic, np.kron(ib, a))
        | np.kron(ic, np.kron(b, ia))
        | np.kron(c, np.kron(ib, ia))
    )


def of_angular_momentum(j_total: int) -> Callable[[int, int], int]:
    """2-sparse neighbor map for the x/y angular momentum ladder.

    States j = 0..2J: mu = 0 points down (reflected up at j = 0), mu = 1
    points up (reflected down at j = 2J).
    """
    top = 2 * j_total

    def oracle(j: int, mu: int) -> int:
        if not 0 <= j <= top:
            raise RangeError(f"j = {j} outside [0, {top}]")
        if mu == 0:
            return j - 1 if j > 0 else j + 1
        if mu == 1:
            return j + 1 if j < top else j - 1
        raise RangeError(f"mu = {mu} must be 0 or 1")

    return oracle


def read_coo_csv(path, n: int | None = None) -> np.ndarray:
    """Dense matrix from a (row, col, value) coordinate-list CSV.

    The dimension (``n``, or the largest index plus one) is at most
    :data:`MAX_COO_DIM`; a larger one raises :class:`ScaleError` before the
    matrix is allocated.
    """
    entries = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        for lineno, row in enumerate(_csv.reader(fh), start=1):
            if not row or not "".join(row).strip():
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{lineno}: expected 'row,col,value'")
            try:
                entries.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(entries[-1][2]):
                raise ParseError(f"{path}:{lineno}: value {row[2]!r} is not finite")
    if not entries:
        raise ParseError(f"{path}: no entries")
    size = n if n is not None else max(max(r, c) for r, c, _ in entries) + 1
    if size > MAX_COO_DIM:
        raise ScaleError(
            f"{path}: dimension {size} exceeds MAX_COO_DIM = {MAX_COO_DIM}, the largest "
            f"system whose d-sparse encodings fit {MAX_DENSE_QUBITS} qubits"
        )
    out = np.zeros((size, size))
    for r, c, v in entries:
        if not (0 <= r < size and 0 <= c < size):
            raise ParseError(f"{path}: index ({r}, {c}) outside {size}x{size}")
        out[r, c] = v
    return out
