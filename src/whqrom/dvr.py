"""Gaussian quadratures and the FBR <-> DVR transformation machinery.

The transformation matrix is

    T[k, j] = N_j * sqrt(w_k) * p_j(q_k),

rows indexed by quadrature nodes q_k, columns by orthonormal polynomials
p_j (N_j is the L2 normalizer).  Nodes and weights come from the symmetric
tridiagonal Jacobi-matrix eigenproblem (Golub-Welsch), which is stable and
reuses the dense eigensolver.  Gaussian exactness makes T exactly
orthogonal: T^T T = I up to roundoff.

Columns of T satisfy a three-term recursion inherited from the polynomial
recurrence,

    T[p, q+2] = B_q x_p T[p, q+1] + C_q T[p, q],

with no constant term A_q: it is proportional to the Jacobi diagonal, zero
for both weights since they are even.  The column-reconstruction oracle
exploits it: the matrix is split into segments of F columns, the two middle
columns of each segment are loaded directly, and the rest are rebuilt by
scaled ascending/descending recursions whose running coefficients fold the
C_q factors into a final per-column division by gamma_q.
"""

from __future__ import annotations

import csv as _csv
import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, RangeError, ScaleError, ShapeError
from .qrom import CostReport

__all__ = [
    "MAX_POINTS",
    "MAX_HERMITE_POINTS",
    "QuadratureKind",
    "Quadrature",
    "DvrTransform",
    "RecursionCoeffs",
    "gauss_quadrature",
    "build_transform",
    "fbr_potential",
    "recursion_coeffs",
    "recursion_columns",
    "dvr_oracle_cost",
    "segment_init_cost",
    "export_matrix_csv",
]


#: Largest quadrature: the polynomial table and the transform are n x n.
MAX_POINTS = 1024

#: Largest Gauss-Hermite rule.  The outermost weight is about
#: exp(-x_max**2) with x_max near sqrt(2n); it falls below the float64 range
#: (1 / sum_j p_j**2 overflows) from about n = 371.  At the cap it is about
#: 1e-299, a margin of nine decades for rounding that differs between LAPACK
#: builds.
MAX_HERMITE_POINTS = 360

#: Longest Hermite recursion segment.  The rebuilt columns lose accuracy as
#: a segment grows: the worst error over n = 16..352 is 4.7e-14 at segment
#: 16 and 2.7e-10 at 32, against 5.1e-3 at 64 (n = 64).  Legendre segments
#: stay within 1e-8 up to the full n = 1024.
MAX_HERMITE_SEGMENT = 32


class QuadratureKind(enum.Enum):
    HERMITE = "hermite"
    LEGENDRE = "legendre"


def _parse_kind(kind: QuadratureKind | str) -> QuadratureKind:
    try:
        return QuadratureKind(kind.lower() if isinstance(kind, str) else kind)
    except ValueError as exc:
        raise ConfigError(f"unsupported quadrature kind {kind!r}") from exc


def _check_segment(n: int, segment: int) -> None:
    if segment < 2 or segment & (segment - 1) or n % segment:
        raise ShapeError(f"segment size {segment} must be a power of two dividing {n}")


def _jacobi_recurrence(kind: QuadratureKind, n: int):
    """Orthonormal-recurrence data (beta, mu0) for the family.

    beta[j] multiplies p_{j} in  beta[j+1] p_{j+1} = x p_j - beta[j] p_{j-1};
    mu0 is the weight-function total mass.
    """
    j = np.arange(n, dtype=np.float64)
    if kind is QuadratureKind.HERMITE:
        return np.sqrt(j / 2.0), math.sqrt(math.pi)
    beta = j / np.sqrt(4.0 * j * j - 1.0, where=j > 0, out=np.ones(n))
    beta[0] = 0.0
    return beta, 2.0


@dataclass(frozen=True)
class Quadrature:
    """Gaussian nodes and weights; exact for polynomials up to degree 2n-1."""

    kind: QuadratureKind
    n: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != (self.n,) or weights.shape != (self.n,):
            raise ShapeError("nodes/weights must both have length n")
        if np.any(np.diff(nodes) <= 0):
            raise RangeError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise RangeError("weights must be positive")


def gauss_quadrature(kind: QuadratureKind | str, n: int) -> Quadrature:
    """Golub-Welsch nodes for Hermite or Legendre weight.

    Nodes are the Jacobi-matrix eigenvalues; weights use the Christoffel
    form w_k = 1 / sum_j p_j(q_k)**2, which stays positive where the raw
    eigenvector first components underflow (large-n Hermite).
    """
    kind = _parse_kind(kind)
    if n < 1:
        raise RangeError(f"point count must be >= 1, got {n}")
    if n > MAX_POINTS:
        raise ScaleError(f"point count {n} exceeds the limit MAX_POINTS = {MAX_POINTS}")
    if kind is QuadratureKind.HERMITE and n > MAX_HERMITE_POINTS:
        raise ScaleError(
            f"Hermite point count {n} exceeds the limit MAX_HERMITE_POINTS = "
            f"{MAX_HERMITE_POINTS}: the outermost weights underflow float64 beyond it"
        )
    # imported here so that the table commands do not pay for scipy.linalg at start-up
    from scipy.linalg import eigh_tridiagonal

    beta, _ = _jacobi_recurrence(kind, n)
    nodes = np.zeros(1) if n == 1 else eigh_tridiagonal(np.zeros(n), beta[1:], eigvals_only=True)
    polys = _orthonormal_polynomials(kind, n, nodes)
    weights = 1.0 / np.sum(polys * polys, axis=0)
    return Quadrature(kind=kind, n=n, nodes=nodes, weights=weights)


def _orthonormal_polynomials(kind: QuadratureKind, n: int, x: np.ndarray) -> np.ndarray:
    """Rows j = 0..n-1 of the orthonormal polynomials evaluated at x."""
    beta, mu0 = _jacobi_recurrence(kind, n + 1)
    out = np.empty((n, x.shape[0]), dtype=np.float64)
    out[0] = 1.0 / math.sqrt(mu0)
    if n > 1:
        out[1] = x * out[0] / beta[1]
    for j in range(2, n):
        out[j] = (x * out[j - 1] - beta[j - 1] * out[j - 2]) / beta[j]
    return out


@dataclass(frozen=True)
class DvrTransform:
    """Orthogonal FBR-to-DVR matrix T with its quadrature and normalizers.

    ``orthogonality_error`` is max|T^T T - I|, checked to be at most 1e-10.
    """

    n: int
    matrix: np.ndarray = field(repr=False)
    quadrature: Quadrature = None
    normalizers: np.ndarray = field(default=None, repr=False)
    orthogonality_error: float = field(init=False)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        if matrix.shape != (self.n, self.n):
            raise ShapeError(f"expected a {self.n}x{self.n} matrix")
        gram_err = float(np.max(np.abs(matrix.T @ matrix - np.eye(self.n))))
        if gram_err > 1e-10:
            raise RangeError(f"T^T T deviates from identity by {gram_err:.3e}")
        object.__setattr__(self, "orthogonality_error", gram_err)


def build_transform(q: Quadrature) -> DvrTransform:
    """T[k, j] = N_j sqrt(w_k) p_j(q_k); orthogonal by Gaussian exactness.

    The stored normalizers are 1/||p_j|| relative to the monic family,
    i.e. the accumulated 1/beta products the orthonormal recurrence folds
    into its values.
    """
    polys = _orthonormal_polynomials(q.kind, q.n, q.nodes)
    matrix = np.sqrt(q.weights)[:, None] * polys.T
    beta, mu0 = _jacobi_recurrence(q.kind, q.n)
    normalizers = np.empty(q.n)
    normalizers[0] = 1.0 / math.sqrt(mu0)
    for j in range(1, q.n):
        normalizers[j] = normalizers[j - 1] / beta[j]
    return DvrTransform(n=q.n, matrix=matrix, quadrature=q, normalizers=normalizers)


def fbr_potential(t: DvrTransform, v_grid: np.ndarray) -> np.ndarray:
    """Quadrature representation T^T diag(v) T of a grid-sampled potential."""
    v = np.asarray(v_grid, dtype=np.float64)
    if v.shape != (t.n,):
        raise ShapeError(f"expected {t.n} grid values, got shape {v.shape}")
    m = t.matrix
    out = m.T @ (v[:, None] * m)
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class RecursionCoeffs:
    """Per-column recursion data for one (family, n, F) segmentation.

    b_scaled and gamma fold T[p, q+2] = B_q x_p T[p, q+1] + C_q T[p, q]
    into its ascending/descending variants (A_q = 0: both weights are even);
    gamma is exactly 1 on the two midpoint columns of every segment.
    """

    kind: QuadratureKind
    n: int
    segment: int
    b_scaled: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)


def recursion_coeffs(kind: QuadratureKind | str, n: int, segment: int) -> RecursionCoeffs:
    """Scaled coefficients of the segmented recursion B_q x_p T[p, q+1] +
    C_q T[p, q]; A_q = 0, as both weights are even.

    A Hermite segment longer than :data:`MAX_HERMITE_SEGMENT` raises
    :class:`RangeError`.
    """
    kind = _parse_kind(kind)
    _check_segment(n, segment)
    if kind is QuadratureKind.HERMITE and segment > MAX_HERMITE_SEGMENT:
        raise RangeError(
            f"Hermite segment {segment} exceeds MAX_HERMITE_SEGMENT = {MAX_HERMITE_SEGMENT}"
        )
    beta, _ = _jacobi_recurrence(kind, n + 1)
    # p_{q+2} = x p_{q+1} / beta_{q+2} - beta_{q+1} / beta_{q+2} p_q, q = 0..n-3
    b_col = 1.0 / beta[2:n]
    c_col = -beta[1 : n - 1] / beta[2:n]
    b_scaled = np.zeros(n)
    gamma = np.ones(n)
    half = segment // 2
    for seg_start in range(0, n, segment):
        mid_hi = seg_start + half      # gamma = 1 here
        mid_lo = mid_hi - 1            # and here
        for q in range(mid_hi + 1, seg_start + segment):
            gamma[q] = gamma[q - 2] / c_col[q - 2]
            b_scaled[q] = gamma[q] / gamma[q - 1] * b_col[q - 2]
        for q in range(mid_lo - 1, seg_start - 1, -1):
            gamma[q] = gamma[q + 2] * c_col[q]
            b_scaled[q] = -(gamma[q + 2] / gamma[q + 1]) * b_col[q]
    return RecursionCoeffs(kind=kind, n=n, segment=segment, b_scaled=b_scaled, gamma=gamma)


def recursion_columns(
    coeffs: RecursionCoeffs,
    init_columns: dict,
    nodes: np.ndarray,
) -> np.ndarray:
    """Rebuild the full T matrix from the per-segment midpoint columns.

    init_columns maps column index -> column vector for the two midpoint
    columns of every segment (q = s*F + F/2 - 1 and s*F + F/2).  Ascending
    and descending scaled recursions fill the rest; every column is divided
    by its gamma at the end.  Matches build_transform to ~1e-8 for n <= 32
    (roundoff grows mildly with n through the recurrence).
    """
    n, segment = coeffs.n, coeffs.segment
    x = np.asarray(nodes, dtype=np.float64)
    if x.shape != (n,):
        raise ShapeError(f"expected {n} nodes, got shape {x.shape}")
    half = segment // 2
    scaled = np.zeros((n, n), dtype=np.float64)
    for seg_start in range(0, n, segment):
        mid_hi = seg_start + half
        mid_lo = mid_hi - 1
        for q in (mid_lo, mid_hi):
            if q not in init_columns:
                raise ShapeError(f"missing init column {q}")
            scaled[:, q] = np.asarray(init_columns[q], dtype=np.float64)
        for q in range(mid_hi + 1, seg_start + segment):
            scaled[:, q] = coeffs.b_scaled[q] * x * scaled[:, q - 1] + scaled[:, q - 2]
        for q in range(mid_lo - 1, seg_start - 1, -1):
            scaled[:, q] = coeffs.b_scaled[q] * x * scaled[:, q + 1] + scaled[:, q + 2]
    return scaled / coeffs.gamma[None, :]


def midpoint_columns(t: DvrTransform, segment: int) -> dict:
    """The two middle columns per segment, as the init lookup would load."""
    _check_segment(t.n, segment)
    cols = {}
    half = segment // 2
    for seg_start in range(0, t.n, segment):
        for q in (seg_start + half - 1, seg_start + half):
            cols[q] = t.matrix[:, q].copy()
    return cols


def dvr_oracle_cost(ns, d: int, qrom_coster) -> CostReport:
    """Cost of the DVR transformation unitary over D coordinates.

    Evaluates 2 * sum_i floor(pi sqrt(n_i) / 4) * C_Q(n_i**2, d) where the
    pluggable qrom_coster(i, N, d) -> CostReport prices loading the N table
    entries of d bits of coordinate i (SELECT-SWAP model, WH synthesis of
    that coordinate's own table, or a stub).  Gate counts add; the qubit
    count is the widest single lookup.
    """
    t = cnot = clifford = t_depth = 0
    qubits = 0
    for i, n_i in enumerate(ns):
        if n_i < 1:
            raise RangeError(f"basis size must be positive, got {n_i}")
        reps = 2 * math.floor(math.pi * math.sqrt(n_i) / 4.0)
        sub = qrom_coster(i, n_i * n_i, d)
        t += reps * sub.t_count
        cnot += reps * sub.cnot_count
        clifford += reps * sub.clifford_count
        t_depth += reps * sub.t_depth
        qubits = max(qubits, sub.qubit_count)
    return CostReport.assemble(t, cnot, clifford, qubits, t_depth)


def segment_init_cost(n: int, m: int, segment: int, method: str = "select-swap") -> float:
    """T-cost model of the midpoint-column lookup feeding the recursion.

    select-swap: 2 N sqrt(m) / sqrt(F) + sqrt(N m); select: N**2 / F + N.
    """
    if method == "select-swap":
        return 2.0 * n * math.sqrt(m) / math.sqrt(segment) + math.sqrt(n * m)
    if method == "select":
        return n * n / segment + n
    raise ConfigError(f"unknown init method {method!r}")


def export_matrix_csv(matrix: np.ndarray, path) -> None:
    """Row-major CSV with 17 significant digits; creates the parent directory."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        for row in arr:
            writer.writerow([f"{v:.17g}" for v in row])
