"""Toy rovibrational Hamiltonians and their block-encoding economics.

Systems are assembled in atomic units as sums of Kronecker products of
small per-coordinate matrices (radial harmonic-oscillator modes, one
Legendre bending mode), which keeps dense verification, Frobenius traces,
and max-norm bookkeeping all exact at desk scale.  The water-form valence
Hamiltonian at J = 0 reads

    H = P1^2/2mu1 + P2^2/2mu2
      + Pu^dag (1 - u^2) [1/2mu1R1^2 + 1/2mu2R2^2 - u/(mu12 R1 R2)] Pu
      + u P1 P2 / mu12
      + (1/2mu12) (P1/R2 + P2/R1) (Pu^dag (1-u^2) + (1-u^2) Pu)
      + V,

with u = cos(theta), P_u = -i d/du in the (optionally domain-restricted)
Legendre basis, and radial modes in shifted harmonic-oscillator bases.  The
CSWAP-reduced encodings price the exchange-symmetric half H_eff (H = H_eff +
SWAP H_eff SWAP): each term of H is written once with its exchange role,
and H_eff is derived from the roles.

Cost tables price the four encoding strategies with either the SELECT-SWAP
lookup model (baseline.optimal_lookup) or actual Walsh-Hadamard QROM
synthesis on the term data.  A strategy's rows are booked from loads, each
a QROM lookup (C_Q) or a diagonal rotation load (C_D), and both backends
price a load through the same ``price`` call.
A system is built once by water_hamiltonian; norm_estimates and
strategy_cost take the built system, and each StrategyCost carries the norm
estimate of its row.  All O(.) slack terms carry explicit documented
constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .baseline import optimal_lookup
from .dvr import MAX_POINTS, QuadratureKind, build_transform, dvr_oracle_cost, gauss_quadrature
from .errors import ConfigError, FitError, GridError, RangeError, ScaleError
from .qrom import CostReport, cost, pair_cancel, synthesize
from .wht import check_epsilon, minimal_truncation, quantize

__all__ = [
    "DALTON_TO_AU",
    "CM1_PER_HARTREE",
    "ANGSTROM_TO_BOHR",
    "Strategy",
    "Backend",
    "ToyMoleculeSpec",
    "water_spec",
    "spec_from_dict",
    "WaterSystem",
    "water_hamiltonian",
    "decoupled_reference_levels",
    "NormEstimate",
    "norm_estimates",
    "StrategyCost",
    "strategy_cost",
    "qpe_cost",
    "fit_scaling",
    "discretization_bound_check",
]

DALTON_TO_AU = 1822.888486209
CM1_PER_HARTREE = 219474.6313632
ANGSTROM_TO_BOHR = 1.8897259886

#: Largest direct-product grid: pes_grid holds grid_size floats and the WH
#: backend pads that table to a power of two.  Each mode's own basis is
#: bounded by dvr.MAX_POINTS, since it builds several n x n matrices.
MAX_GRID_SIZE = 1 << 20

#: The stretch fields that the r1 <-> r2 exchange must leave unchanged.
_EXCHANGE_FIELDS = ("basis_sizes", "masses_da", "freqs_cm")


class Strategy:
    FULL_DVR = "FULL_DVR"
    SEPARATE_DVR = "SEPARATE_DVR"
    FBR_DVR = "FBR_DVR"
    LCU_FBR = "LCU_FBR"
    ALL = (FULL_DVR, SEPARATE_DVR, FBR_DVR, LCU_FBR)


class Backend:
    SELECT_SWAP = "SELECT_SWAP"
    WH = "WH"
    ALL = (SELECT_SWAP, WH)


@dataclass(frozen=True)
class ToyMoleculeSpec:
    """Parameters of a toy system: two radial modes plus one bend (water
    form), a single radial mode, or two coupled radial modes.

    Masses in Da, frequencies in cm^-1, lengths in Angstrom; basis sizes
    should be powers of two when the QROM backends are to be exercised.
    """

    basis_sizes: tuple
    masses_da: tuple
    freqs_cm: tuple
    r0_angstrom: float = 1.0
    coupling_mass_da: float = math.inf
    theta_max: float = math.pi
    bend_force_au: float = 0.05
    bend_center_u: float = -0.25
    j_total: int = 0

    def __post_init__(self):
        object.__setattr__(self, "basis_sizes", tuple(int(n) for n in self.basis_sizes))
        object.__setattr__(self, "masses_da", tuple(float(m) for m in self.masses_da))
        object.__setattr__(self, "freqs_cm", tuple(float(w) for w in self.freqs_cm))
        if not 1 <= self.mode_count <= 3:
            raise ConfigError(f"basis_sizes: expected 1-3 modes, got {self.mode_count}")
        for i, n in enumerate(self.basis_sizes):
            if n < 2:
                raise ConfigError(f"basis_sizes[{i}]: must be >= 2, got {n}")
            if n > MAX_POINTS:
                raise ScaleError(f"basis_sizes[{i}]: {n} exceeds the per-mode limit {MAX_POINTS}")
        if self.grid_size > MAX_GRID_SIZE:
            raise ScaleError(
                f"basis_sizes: grid size {self.grid_size} exceeds the limit {MAX_GRID_SIZE}"
            )
        radial = self.radial_count
        if len(self.masses_da) != radial or len(self.freqs_cm) != radial:
            raise ConfigError(
                f"masses_da/freqs_cm: expected {radial} radial entries "
                f"(one per stretch mode)"
            )
        for i, m in enumerate(self.masses_da):
            if not m > 0:
                raise ConfigError(f"masses_da[{i}]: must be > 0, got {m}")
        for i, w in enumerate(self.freqs_cm):
            if not w > 0:
                raise ConfigError(f"freqs_cm[{i}]: must be > 0, got {w}")
        if not self.r0_angstrom > 0:
            raise ConfigError(f"r0_angstrom: must be > 0, got {self.r0_angstrom}")
        if not 0 < self.theta_max <= math.pi:
            raise ConfigError(f"theta_max: must lie in (0, pi], got {self.theta_max}")
        if self.j_total < 0:
            raise ConfigError(f"j_total: must be >= 0, got {self.j_total}")

    @property
    def mode_count(self) -> int:
        return len(self.basis_sizes)

    @property
    def has_bend(self) -> bool:
        return self.mode_count == 3

    @property
    def radial_count(self) -> int:
        return self.mode_count - 1 if self.has_bend else self.mode_count

    @property
    def grid_size(self) -> int:
        out = 1
        for n in self.basis_sizes:
            out *= n
        return out

    @property
    def exchange_symmetric(self) -> bool:
        """Two stretches of equal size, mass and frequency: then SWAP of the
        stretches commutes with H, and H = H_eff + SWAP H_eff SWAP."""
        return self.radial_count == 2 and all(
            getattr(self, name)[0] == getattr(self, name)[1] for name in _EXCHANGE_FIELDS
        )


def water_spec(
    n_r: int = 8,
    n_theta: int = 8,
    omega_cm: float = 3700.0,
    r0_angstrom: float = 0.9578,
    theta_max: float = math.pi,
    bend_force_au: float = 0.05,
) -> ToyMoleculeSpec:
    """Valence-coordinate water toy: mu1 = mu2 = (1/mH + 1/mO)^-1, mu12 = mO."""
    m_h, m_o = 1.00782503, 15.99491462
    mu = 1.0 / (1.0 / m_h + 1.0 / m_o)
    return ToyMoleculeSpec(
        basis_sizes=(n_r, n_r, n_theta),
        masses_da=(mu, mu),
        freqs_cm=(omega_cm, omega_cm),
        r0_angstrom=r0_angstrom,
        coupling_mass_da=m_o,
        theta_max=theta_max,
        bend_force_au=bend_force_au,
        bend_center_u=math.cos(math.radians(104.5)),
    )


def spec_from_dict(data: dict) -> ToyMoleculeSpec:
    """Validated spec from a flat key/value mapping (config-file schema)."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - {f.name for f in fields(ToyMoleculeSpec)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return ToyMoleculeSpec(**data)
    except (ConfigError, ScaleError):
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Per-mode bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialMode:
    """Shifted harmonic-oscillator basis for one stretch coordinate."""

    n: int
    mass_au: float
    omega_au: float
    r0_au: float
    nodes_r: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)           # FBR -> DVR transform
    kin_fbr: np.ndarray = field(repr=False)     # P^2 / 2 mu, exact
    c_fbr: np.ndarray = field(repr=False)       # momentum P = i * c, c real


def radial_mode(n: int, mass_da: float, omega_cm: float, r0_angstrom: float) -> RadialMode:
    mass = mass_da * DALTON_TO_AU
    omega = omega_cm / CM1_PER_HARTREE
    r0 = r0_angstrom * ANGSTROM_TO_BOHR
    quad = gauss_quadrature(QuadratureKind.HERMITE, n)
    scale = math.sqrt(mass * omega)
    nodes_r = r0 + quad.nodes / scale
    if nodes_r.min() <= 0:
        raise GridError(
            f"radial grid reaches r = {nodes_r.min():.4f} a0 <= 0; "
            f"increase r0 or omega (n = {n})"
        )
    t = build_transform(quad).matrix
    kin = np.zeros((n, n))
    c = np.zeros((n, n))
    for m in range(n):
        kin[m, m] = 0.5 * omega * (m + 0.5)
    for m in range(n - 2):
        kin[m, m + 2] = kin[m + 2, m] = -0.25 * omega * math.sqrt((m + 1) * (m + 2))
    amp = math.sqrt(mass * omega / 2.0)
    for m in range(n - 1):
        c[m + 1, m] = amp * math.sqrt(m + 1)
        c[m, m + 1] = -amp * math.sqrt(m + 1)
    return RadialMode(
        n=n, mass_au=mass, omega_au=omega, r0_au=r0,
        nodes_r=nodes_r, t=t, kin_fbr=kin, c_fbr=c,
    )


@dataclass(frozen=True)
class BendMode:
    """Legendre basis in u = cos(theta) on [cos(theta_max), 1)."""

    n: int
    u_nodes: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    deriv_fbr: np.ndarray = field(repr=False)   # P_u = -i * D / h on the raw domain
    half_width: float = 1.0                     # h of the affine remap


def bend_mode(n: int, theta_max: float) -> BendMode:
    quad = gauss_quadrature(QuadratureKind.LEGENDRE, n)
    u_lo, u_hi = math.cos(theta_max), 1.0
    h = (u_hi - u_lo) / 2.0
    center = (u_hi + u_lo) / 2.0
    u_nodes = center + h * quad.nodes
    t = build_transform(quad).matrix
    d = np.zeros((n, n))
    for a in range(n):
        for bq in range(a + 1, n):
            if (a + bq) % 2 == 1:
                d[a, bq] = math.sqrt((2 * a + 1) * (2 * bq + 1))
    return BendMode(n=n, u_nodes=u_nodes, t=t, deriv_fbr=d, half_width=h)


# ---------------------------------------------------------------------------
# Term algebra: sums of Kronecker products of per-mode factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One Kronecker-product contribution; None factors are identities."""

    name: str
    factors: tuple  # one entry per mode, np.ndarray or None


def _modes(term: Term) -> list:
    """Each factor of a term as (diagonal, full): (None, None) for an
    identity, and full None for a factor with no nonzero off-diagonal
    entry, which acts as its diagonal."""
    out = []
    for f in term.factors:
        diag = None if f is None else np.diag(f)
        full = diag is not None and np.count_nonzero(f - np.diag(diag))
        out.append((diag, np.asarray(f) if full else None))
    return out


def _kron_product(parts: Sequence, pairs: Sequence[bool], out: np.ndarray, rows=slice(None)):
    """One term's Kronecker product into ``out``, a block with axes (i_m,
    j_m) for a mode in ``pairs`` and one axis i_m = j_m for another mode,
    over ``rows`` of i_0.  A paired mode's part is n x n, another's its
    diagonal; None, an identity, is left out, as np.kron multiplies by its
    entry, exactly 1.0.  The association is np.kron's, F_0 (F_1 (...
    (F_last 1.0))), so each entry has np.kron's bits."""
    axes = len(pairs) + sum(pairs)
    views, at = [], 0
    for m, (part, p) in enumerate(zip(parts, pairs)):
        if part is not None:
            part = part[rows] if m == 0 else part
            shape = [1] * axes
            shape[at : at + 1 + p] = part.shape
            views.append(part.reshape(shape))
        at += 1 + p
    inner = 1.0
    for view in reversed(views[1:]):
        inner = view * inner
    return np.multiply(views[0] if views else 1.0, inner, out=out)


def assemble_dense(terms: Sequence[Term], dims: Sequence[int]) -> np.ndarray:
    """The dense sum of the terms' Kronecker products, in term order.

    Each term is added into one strided view of H as the tensor over (i_0
    .. i_{k-1}, j_0 .. j_{k-1}): a mode where its factor is an identity or
    diagonal is one axis i_m = j_m, of stride s_i + s_j, and a full mode
    keeps both axes.  np.kron sets the entries left out to +-0, and a sum
    from +0.0 never reaches -0.0, so adding them changes no bit: with
    _kron_product's bits, H equals the np.kron sum byte for byte.
    """
    dims = tuple(dims)
    total = math.prod(dims)
    out = np.zeros((total, total))
    col = [math.prod(dims[m + 1 :]) * out.itemsize for m in range(len(dims))]  # s_j; s_i = N s_j
    for modes in map(_modes, terms):
        pairs = [full is not None for _, full in modes]
        shape, strides = [], []
        for n, s, p in zip(dims, col, pairs):
            shape += [n, n] if p else [n]
            strides += [total * s, s] if p else [(total + 1) * s]
        view = np.lib.stride_tricks.as_strided(out, shape, strides, writeable=True)
        # through a buffer, freed before the next term's: numpy cannot prove
        # quickly that the view does not overlap itself, so += would copy it
        summed = _kron_product([d if f is None else f for d, f in modes], pairs, np.empty(shape))
        np.copyto(view, np.add(view, summed, out=summed))
        del summed
    return out


def frobenius_sq(terms: Sequence[Term], dims: Sequence[int]) -> float:
    """Tr(H^2) via factorized traces: Tr prod kron = prod Tr, with Tr(I I) =
    n and Tr(I B) = Tr(B I) = Tr(B) exactly, not multiplied out."""
    total = 0.0
    for ta in terms:
        for tb in terms:
            prod = 1.0
            for n, fa, fb in zip(dims, ta.factors, tb.factors):
                if fa is None or fb is None:
                    prod *= float(n if fa is fb else np.trace(fb if fa is None else fa))
                else:
                    prod *= float(np.trace(np.asarray(fa) @ np.asarray(fb)))
            total += prod
    return total


def sop_operator(terms: Sequence[Term], dims: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """vec -> H @ vec without assembling H; vec is reshaped to the mode tensor.

    Factors are applied mode by mode in term order.  A factor with no
    nonzero off-diagonal entry is applied as a broadcast multiply by its
    diagonal, which gives the same products as the matrix contraction.
    Every other factor on mode i is one matmul, ``f @ t`` with t the tensor
    viewed as (n_i, rest) with mode i moved to the front, and the product
    viewed back with mode i in place.  These are the products, on the same
    operand layouts, that ``np.tensordot`` + ``np.moveaxis`` hand to BLAS,
    without their per-call argument handling in Python (most of their time
    here).  The layouts matter: BLAS rounds by transposition and size, and
    a natural-layout matmul (mode 0 as ``f @ t.reshape(n0, -1)``, the last
    mode as ``t.reshape(-1, n) @ f.T``, a middle mode batched) moves
    results by an ulp on grids such as 10x10x16 or 8x8x20.  The tests keep
    the contraction (``_tensordot_matvec``) as the oracle the result must
    equal byte for byte.
    """
    dims = tuple(dims)
    plan = []
    for term in terms:
        steps = []  # (diagonal, None, None, None) or (f, moved order, moved shape, inverse order)
        for i, (diag, f) in enumerate(_modes(term)):
            if diag is None:
                continue
            if f is None:
                shape = [1] * len(dims)
                shape[i] = dims[i]
                steps.append((diag.reshape(shape), None, None, None))
            else:
                rest = [j for j in range(len(dims)) if j != i]
                order = (i, *rest)
                steps.append((f, order, tuple(dims[j] for j in order), tuple(np.argsort(order))))
        plan.append(steps)

    def matvec(vec: np.ndarray) -> np.ndarray:
        tensor = np.asarray(vec).reshape(dims)
        out = np.zeros_like(tensor)
        for steps in plan:
            cur = tensor
            for a, order, moved, back in steps:
                if order is None:
                    cur = cur * a
                else:
                    t = cur.transpose(order).reshape(moved[0], -1)
                    cur = (a @ t).reshape(moved).transpose(back)
            out += cur
        return out.reshape(-1)

    return matvec


def sop_max_abs(terms: Sequence[Term], dims: Sequence[int]) -> float:
    """max |H_ij| of the term sum without assembling H.

    The entries of H are split by the set S of modes where i_m != j_m.  An
    identity or diagonal is zero off its diagonal, so S's block sums, in
    term order, the products over the terms full on every mode in S of
    their off-diagonal parts on S and diagonals elsewhere; its entries with
    i_m = j_m for an m in S are 0 and belong to a smaller S.  Each entry
    sums the products assemble_dense adds, in its order, less terms of +-0,
    which can only flip the sign of a zero: the result equals
    np.max(np.abs(assemble_dense(terms, dims))) exactly.  A block is built
    in slices along i_0 of at most prod(dims[1:]) rows of H each, the first
    product in place and each later one through a second buffer.
    """
    dims = tuple(dims)
    limit = math.prod(dims[1:]) * math.prod(dims)
    modes = [_modes(term) for term in terms]
    best = 0.0
    for pairs in itertools.product((False, True), repeat=len(dims)):
        block_terms = [
            [full - np.diag(diag) if p else diag for (diag, full), p in zip(term, pairs)]
            for term in modes
            if all(full is not None for (_, full), p in zip(term, pairs) if p)
        ]
        if block_terms:
            shape = [n for n, p in zip(dims, pairs) for n in (n,) * (1 + p)]
            best = max(best, _block_max_abs(block_terms, pairs, shape, limit))
    return best


def _block_max_abs(block_terms: list, pairs: tuple, shape: list, limit: int) -> float:
    """max |.| of one block of sop_max_abs, in slices of at most limit floats."""
    rows = max(1, limit * shape[0] // math.prod(shape))
    acc = np.empty((min(rows, shape[0]), *shape[1:]))
    spare = np.empty_like(acc) if len(block_terms) > 1 else None
    best = 0.0
    for r in range(0, shape[0], rows):
        block, at = acc[: shape[0] - r], slice(r, r + rows)
        _kron_product(block_terms[0], pairs, block, at)
        for parts in block_terms[1:]:
            np.add(block, _kron_product(parts, pairs, spare[: len(block)], at), out=block)
        best = max(best, float(np.max(np.abs(block, out=block))))
    return best


# ---------------------------------------------------------------------------
# Water-form system
# ---------------------------------------------------------------------------

#: Dense water assembly is allowed up to this many grid points.
MAX_DENSE_GRID = 4096

#: ``eigenvalues`` uses dense eigh up to DENSE_LEVELS_BASE + DENSE_PER_LEVEL
#: * count grid points (and never above MAX_DENSE_GRID), Lanczos above.
DENSE_LEVELS_BASE = 448
DENSE_PER_LEVEL = 14


@dataclass
class WaterSystem:
    """Assembled toy system: term lists, grids, and dense views on demand."""

    spec: ToyMoleculeSpec
    modes: tuple
    terms: list
    terms_eff: list
    pes_parts: dict

    @property
    def dims(self) -> tuple:
        return tuple(self.spec.basis_sizes)

    def h_dvr(self) -> np.ndarray:
        if self.spec.grid_size > MAX_DENSE_GRID:
            raise ScaleError(
                f"grid size {self.spec.grid_size} exceeds the dense limit {MAX_DENSE_GRID}"
            )
        return assemble_dense(self.terms, self.dims)

    def eigenvalues(self, count: int) -> np.ndarray:
        """The lowest ``count`` levels in Hartree, ascending.

        Small grids, and grids small for the number of levels asked, use
        dense eigh of h_dvr: n <= min(MAX_DENSE_GRID, 448 + 14 count).
        Larger ones use Lanczos (ARPACK, converged to machine precision) on
        the term operator, from a seeded start vector that is not confined
        to either exchange-symmetry sector.  Dense eigh costs about n^3 and
        nothing per level, Lanczos grows with the level count; on water
        grids with one BLAS thread (h_dvr + eigh against Lanczos, medians
        in seconds) the cheaper side switches at about 1 level for n = 512
        (0.018 dense, 0.025 at 4 levels), 5 for 640 (0.029 dense), 19 for
        768 (0.047 dense, 0.045 at 18 levels, 0.055 at 20), 55 for 1024, 70
        for 1200, 100 for 1600, 120 for 2016 (1.00 dense, 0.11 at 8 levels,
        0.74 at 100) and 150 for 3136 (3.44 dense, 0.17 at 8 levels, 2.89 at
        140, 3.77 at 160).  The figures from 1024 points up were taken with
        h_dvr built from Kronecker products (0.025 s at 1024 points, 0.094
        s at 2016; now 0.003 and 0.008 s), so they put the switch a little
        late.  The rule is a line fitted to the low end, 512-768 points,
        with that build, which made the dense side 20-30 % dearer there: it
        now keeps Lanczos some levels past the switch, up to 4 levels at
        512 points, 13 at 640 and 22 at 768.  Between about 1000 and 2016
        points the rule picks dense eigh some levels early (from 42 levels
        at 1024 against 55, from 112 at 2016 against 120), and at 3136
        points it keeps Lanczos for 150-191 levels, where dense eigh is
        already cheaper.  Dense eigh is also used whenever ARPACK's basis
        would span the whole grid (n <= 2 count + 1, which includes every
        request for the whole spectrum).
        Fewer than ``count`` levels come back when the grid has fewer
        points.
        """
        # imported here so that the table commands do not pay for scipy.linalg at start-up
        from scipy.linalg import eigh

        n = self.spec.grid_size
        if count < 1:
            raise RangeError(f"level count must be at least 1, got {count}")
        dense_limit = min(MAX_DENSE_GRID, DENSE_LEVELS_BASE + DENSE_PER_LEVEL * count)
        if n <= max(2 * count + 1, dense_limit):
            return eigh(self.h_dvr(), eigvals_only=True)[:count]
        return _lowest_levels(sop_operator(self.terms, self.dims), n, count)

    def pes_grid(self) -> np.ndarray:
        """PES values on the full direct-product grid (separable sum)."""
        dims = self.dims
        total = self.spec.grid_size
        out = np.zeros(tuple(dims))
        for i, v in self.pes_parts.items():
            shape = [1] * len(dims)
            shape[i] = dims[i]
            out = out + v.reshape(shape)
        return out.reshape(total)


def _lowest_levels(matvec: Callable, n: int, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a symmetric n x n operator, ascending.

    Lanczos from one start vector sees a single direction of each
    eigenspace, so it can miss the second copy of a degenerate level
    (separable systems, such as the decoupled limit or two equal
    uncoupled stretches, have many).  Any level it missed is an eigenvalue
    of the operator on the complement of the vectors found, so the lowest
    level there is computed as well; while it lies below the highest level
    found it takes that level's place, and the check repeats.

    The complement solve runs to machine precision (tol=0) like the first
    one.  A looser solve is not a cheaper way to the same decision: its
    residual bounds the distance from its value to *some* eigenvalue, not to
    the lowest one, so it can settle on a higher level and accept.  In the
    decoupled 8x8x8 water toy at count 7 the top level found is 0.0361633
    Ha; tol=1e-3 returns 0.0394158 (residual 3.8e-6) and tol=1e-6 the same
    level, both above it, while tol=0 finds the missed degenerate copy at
    0.0355884, so a loose check would report level 7 wrong by 5.75e-4 Ha.
    """
    # imported here so that the table commands do not pay for ARPACK at start-up
    from scipy.sparse.linalg import LinearOperator, eigsh

    v0 = np.random.default_rng(0).standard_normal(n)
    levels, vecs = eigsh(
        LinearOperator((n, n), matvec=matvec, dtype=np.float64), k=count, which="SA", tol=0, v0=v0
    )
    while True:
        order = np.argsort(levels)
        levels, vecs = levels[order], vecs[:, order]
        top = levels[-1]

        # H on the complement of span(q); span(q) itself is lifted above top
        def complement(x, q=vecs, lifted=top + 1.0):
            x = np.asarray(x).reshape(-1)
            c = q.T @ x
            y = matvec(x - q @ c)
            return y - q @ (q.T @ y) + lifted * (q @ c)

        low, vec = eigsh(
            LinearOperator((n, n), matvec=complement, dtype=np.float64),
            k=1, which="SA", tol=0, v0=v0,
        )
        if low[0] >= top:
            return levels
        levels[-1], vecs[:, -1] = low[0], vec[:, 0]


def water_hamiltonian(spec: ToyMoleculeSpec, decoupled: bool = False) -> WaterSystem:
    """Assemble a toy system as DVR term lists from one term table.

    A bend spec gives the valence-coordinate J = 0 water form; a spec
    without a bend gives one or two radial modes, momentum-coupled through a
    finite coupling mass.  decoupled=True takes the separability limit: the
    coupling mass goes to infinity (dropping the stretch-stretch and
    stretch-bend couplings) and the bend's 1/R^2 metric factors freeze at
    r0, leaving a sum of 1-D problems.

    Each term of H is written once, with its role in the exchange half
    H_eff (H = H_eff + SWAP H_eff SWAP, SWAP exchanging the stretches), and
    terms_eff is derived from the roles: a "keep" term is in H_eff and its
    SWAP image, the next term, is an "image" term H_eff leaves out; a
    "half" term is its own image, and H_eff holds it with its bend factor
    halved.  Radial-chain terms are "whole": a chain has no exchange
    reduction, so its H_eff is H.
    """
    radials = tuple(
        radial_mode(n, m, w, spec.r0_angstrom)
        for n, m, w in zip(spec.basis_sizes, spec.masses_da, spec.freqs_cm)
    )
    bend = bend_mode(spec.basis_sizes[2], spec.theta_max) if spec.has_bend else None
    modes = radials if bend is None else (*radials, bend)
    roles = ("keep", "image", "half") if bend is not None else ("whole",) * len(modes)
    mu12 = spec.coupling_mass_da * DALTON_TO_AU
    pes_parts = {}
    for i, mode in enumerate(radials):
        k = mode.mass_au * mode.omega_au**2
        pes_parts[i] = 0.5 * k * (mode.nodes_r - mode.r0_au) ** 2

    def on_mode(i: int, f: np.ndarray) -> tuple:
        return tuple(f if j == i else None for j in range(len(modes)))

    table = [  # (role, name, factors) in H order
        (roles[i], f"kin_r{i + 1}", on_mode(i, mode.t @ mode.kin_fbr @ mode.t.T))
        for i, mode in enumerate(radials)
    ]
    if bend is not None:
        r1, r2 = radials
        mu1, mu2 = r1.mass_au, r2.mass_au
        d_dvr = bend.t @ bend.deriv_fbr @ bend.t.T / bend.half_width
        u = bend.u_nodes
        s_u = 1.0 - u * u
        duu = d_dvr.T @ (s_u[:, None] * d_dvr)  # Pu^dag (1-u^2) Pu
        pes_parts[2] = 0.5 * spec.bend_force_au * (u - spec.bend_center_u) ** 2
        if decoupled:
            inv_sq = 1.0 / (2 * mu1 * r1.r0_au**2) + 1.0 / (2 * mu2 * r2.r0_au**2)
            table.append(("half", "bend_frozen", (None, None, inv_sq * duu)))
        else:
            duu_u = d_dvr.T @ ((u * s_u)[:, None] * d_dvr)  # Pu^dag u(1-u^2) Pu
            mix = d_dvr.T @ np.diag(s_u) - np.diag(s_u) @ d_dvr  # M: A_u = i M
            c1, c2 = (m.t @ m.c_fbr @ m.t.T for m in radials)
            inv_r1, inv_r2 = (1.0 / m.nodes_r for m in radials)
            table += [
                ("keep", "bend_r1", (np.diag(inv_r1**2 / (2 * mu1)), None, duu)),
                ("image", "bend_r2", (None, np.diag(inv_r2**2 / (2 * mu2)), duu)),
                ("half", "bend_cross", (np.diag(inv_r1), np.diag(inv_r2), -duu_u / mu12)),
                ("half", "stretch_cross", (c1, c2, -np.diag(u) / mu12)),
                ("keep", "stretch_bend_1", (c1, np.diag(inv_r2), -mix / (2 * mu12))),
                ("image", "stretch_bend_2", (np.diag(inv_r1), c2, -mix / (2 * mu12))),
            ]
    elif len(radials) == 2 and not decoupled and math.isfinite(spec.coupling_mass_da):
        c1, c2 = (m.t @ m.c_fbr @ m.t.T for m in radials)
        table.append(("whole", "stretch_cross", (-c1 / mu12, c2)))
    table += [(roles[i], f"pes_{i}", on_mode(i, np.diag(v))) for i, v in pes_parts.items()]
    return WaterSystem(
        spec=spec,
        modes=modes,
        terms=[Term(name, factors) for _, name, factors in table],
        terms_eff=[
            Term(name, (*factors[:-1], factors[-1] / 2) if role == "half" else factors)
            for role, name, factors in table
            if role != "image"
        ],
        pes_parts=pes_parts,
    )


def decoupled_reference_levels(spec: ToyMoleculeSpec, count: int) -> np.ndarray:
    """Lowest eigenvalues of the decoupled system from independent 1-D solves.

    The separable-product oracle: solve each mode's 1-D problem, form all
    level sums, sort, and return the lowest `count`.
    """
    # imported here so that the table commands do not pay for scipy.linalg at start-up
    from scipy.linalg import eigh

    system = water_hamiltonian(spec, decoupled=True)
    per_mode = []
    for i, n in enumerate(system.dims):
        h = np.zeros((n, n))
        for term in system.terms:
            others_identity = all(
                term.factors[j] is None for j in range(len(system.dims)) if j != i
            )
            if term.factors[i] is not None and others_identity:
                h += np.asarray(term.factors[i])
        per_mode.append(eigh(h, eigvals_only=True))
    sums = per_mode[0]
    for levels in per_mode[1:]:
        sums = np.add.outer(sums, levels).reshape(-1)
    return np.sort(sums)[:count]


# ---------------------------------------------------------------------------
# Norm estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormEstimate:
    """Per-term block-encoding constants and their strategy-weighted total."""

    strategy: str
    terms: tuple  # (name, zeta_au, multiplicity)
    total_au: float
    zeta_low_au: float = None
    zeta_high_au: float = None

    @property
    def total_cm(self) -> float:
        return self.total_au * CM1_PER_HARTREE

    def to_json_dict(self) -> dict:
        out = {
            "strategy": self.strategy,
            "terms": [
                {"name": n, "zetaAu": z, "count": c} for n, z, c in self.terms
            ],
            "totalAu": self.total_au,
            "totalCm": self.total_cm,
        }
        if self.zeta_low_au is not None:
            out["zetaLowAu"] = self.zeta_low_au
            out["zetaHighAu"] = self.zeta_high_au
        return out


def _term_max_norm(term: Term, dims: Sequence[int]) -> float:
    prod = 1.0
    for i in range(len(dims)):
        f = term.factors[i]
        prod *= 1.0 if f is None else float(np.max(np.abs(f)))
    return prod


def _term_sparsity(term: Term, dims: Sequence[int]) -> int:
    full = [f for _, f in _modes(term) if f is not None]
    return math.prod(int(np.max(np.count_nonzero(f, axis=1))) for f in full)


def momentum_zeta_radial(mode: RadialMode) -> float:
    """Closed form: 2-sparse FBR momentum, zeta = 2 sqrt(m w (n+1) / 2)."""
    return 2.0 * math.sqrt(mode.mass_au * mode.omega_au * (mode.n + 1) / 2.0)


def momentum_zeta_bend(mode: BendMode) -> float:
    """Closed form: (n/2)-sparse Legendre derivative, max element
    sqrt(4 (n-1)^2 - 1), scaled by the domain remap."""
    n = mode.n
    return (n / 2.0) * math.sqrt(4.0 * (n - 1) ** 2 - 1.0) / mode.half_width


def angular_momentum_zeta(j_total: int) -> dict:
    """Symmetric-top norms: |J_z| = J; J_x/y are 2-sparse ladder halves."""
    if j_total == 0:
        return {"jz": 0.0, "jxy": 0.0}
    ks = np.arange(-j_total, j_total)
    ladder = 0.5 * np.sqrt(j_total * (j_total + 1) - ks * (ks + 1))
    return {"jz": float(j_total), "jxy": 2.0 * float(np.max(ladder))}


def norm_estimates(system: WaterSystem, strategy: str) -> NormEstimate:
    """Strategy-resolved zeta bookkeeping for a built toy system.

    FBR_DVR multiplies the closed-form momentum constants by grid-sampled
    metric maxima per H_eff term and doubles for the CSWAP symmetry;
    SEPARATE_DVR prices each H_eff term as one d-sparse DVR block and
    doubles for the water form (a radial chain's terms_eff is H, priced
    once); FULL_DVR uses rho_H * max|H|; LCU_FBR brackets the Pauli L1 weight by
    Frobenius traces and reports sqrt(Tr H^2) as the point value.

    FBR_DVR and SEPARATE_DVR price a water-form H as H_eff + SWAP H_eff
    SWAP, so they need a :attr:`ToyMoleculeSpec.exchange_symmetric` spec: a
    :class:`ConfigError` names the first stretch field that differs.
    """
    if strategy not in Strategy.ALL:
        raise ConfigError(f"unknown strategy {strategy!r}")
    spec = system.spec
    reduced = strategy in (Strategy.FBR_DVR, Strategy.SEPARATE_DVR)
    if reduced and spec.has_bend and not spec.exchange_symmetric:
        name = next(f for f in _EXCHANGE_FIELDS if getattr(spec, f)[0] != getattr(spec, f)[1])
        raise ConfigError(
            f"{name}: {strategy} needs equal stretches for the r1 <-> r2 exchange "
            f"symmetry, got {getattr(spec, name)[:2]}; FULL_DVR and LCU_FBR price any spec"
        )
    dims = system.dims
    n_grid = spec.grid_size

    if strategy == Strategy.LCU_FBR:
        tr_h2 = frobenius_sq(system.terms, dims)
        low = math.sqrt(tr_h2 / n_grid)
        high = math.sqrt(tr_h2 * n_grid)
        total = math.sqrt(tr_h2)
        return NormEstimate(
            strategy=strategy,
            terms=(("pauli_l2", low, 1),),
            total_au=total,
            zeta_low_au=low,
            zeta_high_au=high,
        )

    if strategy == Strategy.FULL_DVR:
        if n_grid <= MAX_DENSE_GRID:
            h_max = sop_max_abs(system.terms, dims)
        else:
            h_max = sum(_term_max_norm(t, dims) for t in system.terms)
        rho = full_dvr_sparsity(spec)
        return NormEstimate(
            strategy=strategy,
            terms=(("rho_h_max", rho * h_max, 1),),
            total_au=rho * h_max,
        )

    if strategy == Strategy.SEPARATE_DVR:
        entries = []
        for term in system.terms_eff:
            rho = _term_sparsity(term, dims)
            entries.append((term.name, rho * _term_max_norm(term, dims), 1))
        # a radial chain's terms_eff is H itself, so only the water form doubles
        total = (2.0 if spec.has_bend else 1.0) * sum(z for _, z, _ in entries)
        return NormEstimate(strategy=strategy, terms=tuple(entries), total_au=total)

    # FBR_DVR: momentum factors in FBR (closed forms), metric samples in DVR
    if not spec.has_bend:
        entries = []
        for i, mode in enumerate(system.modes):
            zp = momentum_zeta_radial(mode)
            entries.append((f"kin_r{i + 1}", zp * zp / (2.0 * mode.mass_au), 1))
        v_max = float(np.max(np.abs(system.pes_grid())))
        entries.append(("pes", v_max, 1))
        total = sum(z for _, z, _ in entries)
        return NormEstimate(strategy=strategy, terms=tuple(entries), total_au=total)

    r1, r2, bend = system.modes
    mu1, mu2 = r1.mass_au, r2.mass_au
    mu12 = spec.coupling_mass_da * DALTON_TO_AU
    zp1 = momentum_zeta_radial(r1)
    zpu = momentum_zeta_bend(bend)
    u = bend.u_nodes
    s_u = 1.0 - u * u
    inv_r1 = 1.0 / r1.nodes_r
    inv_r2 = 1.0 / r2.nodes_r
    g_uu = np.max(
        np.abs(
            s_u[None, None, :]
            * (
                inv_r1[:, None, None] ** 2 / (2 * mu1)
                - u[None, None, :]
                * np.multiply.outer(inv_r1, inv_r2)[:, :, None]
                / (2 * mu12)
            )
        )
    )
    entries = [
        ("kin_r1", zp1 * zp1 / (2.0 * mu1), 1),
        ("bend", zpu * zpu * float(g_uu), 1),
        ("stretch_cross", zp1 * zp1 * float(np.max(np.abs(u))) / (2 * mu12), 1),
        (
            "stretch_bend",
            zp1
            * (2.0 * zpu * float(np.max(s_u)))
            * float(np.max(inv_r2))
            / (2 * mu12),
            2,
        ),
        ("pes", float(np.max(np.abs(system.pes_grid()))) / 2.0, 1),
    ]
    if spec.j_total > 0:
        j = angular_momentum_zeta(spec.j_total)
        entries.append(("jz", j["jz"], 1))
        entries.append(("jxy", j["jxy"], 2))
    total = 2.0 * sum(z * c for _, z, c in entries)
    return NormEstimate(strategy=strategy, terms=tuple(entries), total_au=total)


def full_dvr_sparsity(spec: ToyMoleculeSpec) -> int:
    """Nonzeros per row of the water DVR Hamiltonian: n_1 n_2 stretch pairs
    at j_theta = i_theta, and n_1 + n_2 - 1 (both kept or one moved) at
    each other j_theta."""
    if spec.has_bend:
        n_1, n_2, n_th = spec.basis_sizes
        return n_1 * n_2 + (n_th - 1) * (n_1 + n_2 - 1)
    sizes = spec.basis_sizes
    if len(sizes) == 1:
        return sizes[0]
    # two coupled radial modes: dense-in-each plus the cross block
    return sizes[0] * sizes[1]


# ---------------------------------------------------------------------------
# Strategy cost tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyCost:
    strategy: str
    backend: str
    report: CostReport
    norm: NormEstimate
    breakdown: tuple

    @property
    def zeta_au(self) -> float:
        return self.norm.total_au

    @property
    def zeta_cm(self) -> float:
        return self.zeta_au * CM1_PER_HARTREE

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "backend": self.backend,
            "report": self.report.to_json_dict(),
            "zetaAu": self.zeta_au,
            "zetaCm": self.zeta_cm,
            "breakdown": [
                {"name": n, "tCount": t, "ancillas": a} for n, t, a in self.breakdown
            ],
        }


#: Rotation-angle precision of every diagonal rotation load.
ROTATION_EPSILON = 2.0**-20
#: Bits per rotation angle: 10 + 4 ceil(log2(1 / ROTATION_EPSILON)).
ROTATION_BITS = 10 + 4 * math.ceil(math.log2(1.0 / ROTATION_EPSILON))
#: Output bits of the matrix-element and DVR-transform lookups.
TABLE_BITS = 30
#: Truncation target and fixed-point digits of WH-synthesized term tables.
WH_EPSILON = 2.0**-10
WH_DIGITS = 15


class _SelectSwapBackend:
    """Load costs as (t_count, t_depth, ancillas) from the SELECT-SWAP model.

    ``price(n_entries, bits)`` is C_Q, a lookup of n_entries entries of bits
    bits; with bits None it is C_D, a diagonal rotation load: two
    2 ROTATION_BITS-wide lookups plus a 7 ROTATION_BITS controlled-gate tail.
    The term data is accepted and ignored.
    """

    def price(self, n_entries: int, bits: int | None, data=None):
        if bits is None:
            t, depth, anc = self.price(n_entries, 2 * ROTATION_BITS)
            return 2 * t + 7 * ROTATION_BITS, 2 * depth, anc
        _, toffoli, depth, anc = optimal_lookup(n_entries, bits)
        return 4 * toffoli, depth, anc


class _WhBackend(_SelectSwapBackend):
    """Prices loads with term data by synthesizing the actual WH-QROM circuits.

    A load with data, C_Q or C_D alike, runs quantize -> truncate ->
    synthesize -> pair_cancel on the real values (normalized by twice their
    sup so the arccos-free load stays well-conditioned); a single QROM call
    implements the diagonal unitary through phase kickback.  A load without
    data is priced by the SELECT-SWAP model, so cost tables stay total
    functions.

    ``priced`` maps each table's float64 bytes to its cost, so a table that
    several rows or strategies load is synthesized once; it lives as long
    as the caller keeps it, normally one request.
    """

    def __init__(self, priced: dict | None = None):
        self.priced = {} if priced is None else priced

    @staticmethod
    def _wh_cost(values: np.ndarray):
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        size = 1 << max(1, (values.shape[0] - 1).bit_length())
        padded = np.zeros(size)
        padded[: values.shape[0]] = values
        sup = float(np.max(np.abs(padded)))
        theta = padded / (2.0 * sup) if sup > 0 else padded
        f = quantize(theta, WH_DIGITS)
        trunc = minimal_truncation(f, WH_EPSILON)
        circuit = pair_cancel(synthesize(trunc), trunc)
        report = cost(circuit)
        return report.t_count, report.t_depth, report.qubit_count - f.eta

    def price(self, n_entries: int, bits: int | None, data=None):
        if data is None:
            return super().price(n_entries, bits)
        key = np.asarray(data, dtype=np.float64).tobytes()
        if key not in self.priced:
            self.priced[key] = self._wh_cost(data)
        return self.priced[key]


#: Explicit constant for every O(log2 N) control/O_F tail: 4 Toffoli per qubit.
LOG_TAIL_TOFFOLI_PER_QUBIT = 4


def strategy_cost(
    system: WaterSystem,
    strategy: str,
    backend: str = Backend.SELECT_SWAP,
    wh_priced: dict | None = None,
) -> StrategyCost:
    """T-count table for one encoding strategy of a built system.

    A row is booked from loads (row, count, entries, bits, data): count
    copies of a C_Q lookup of ``entries`` entries of ``bits`` bits, or of a
    C_D diagonal rotation load when bits is None, with ``data`` the term
    table (None where the row loads no sampled table); the loads of one row
    add up.  SELECT_SWAP prices every load by the Toffoli-optimal lambda; WH
    synthesizes the actual spectra of the loads that carry data.
    ``wh_priced`` is the WH backend's table-cost memo (see _WhBackend); pass
    one dict to every call of a request to synthesize each distinct table
    once.  Only the DVR transforms, each mode's lookup priced on its
    arcsin(T)/pi table, and the O(log) control tail, exactly
    LOG_TAIL_TOFFOLI_PER_QUBIT Toffoli per involved qubit, are booked
    directly.  The report sums the rows, rounds the T count up to a multiple
    of 4, and counts log2 N system qubits plus the largest row's ancillas.
    The row's norm estimate is returned on the result as ``norm``.

    In a water-form (bend) spec each stretch load is priced with its own
    mode's size and table.  The loads follow the H_eff terms: the four
    radial momentum loads are P1 in kin_r1, stretch_cross and
    stretch_bend_1 and P2 in stretch_cross; the 1/R load is the 1/R2 of
    stretch_bend_1; two-stretch tables span n_r1 n_r2 points.  The strategy
    and exchange checks of :func:`norm_estimates` run before any table is
    priced.
    """
    norm = norm_estimates(system, strategy)
    if backend == Backend.WH:
        be = _WhBackend(wh_priced)
    elif backend == Backend.SELECT_SWAP:
        be = _SelectSwapBackend()
    else:
        raise ConfigError(f"unknown backend {backend!r}")
    spec = system.spec
    n_grid = spec.grid_size
    log_n = max(1, math.ceil(math.log2(n_grid)))

    if strategy == Strategy.LCU_FBR:
        n_paulis = 0.75 * n_grid**2 * log_n
        t = int(4 * n_paulis) + math.isqrt(n_grid)
        cliffords = int(6.75 * n_grid**2 * log_n)
        qubits = 2 * log_n + int(math.log2(max(2, n_grid))) + 10
        report = CostReport.assemble(4 * (t // 4), cliffords, cliffords, qubits, t // 4)
        return StrategyCost(
            strategy=strategy,
            backend=backend,
            report=report,
            norm=norm,
            breakdown=(("pauli_lcu", t, qubits),),
        )

    rows = []  # (name, t_count, t_depth, ancillas), in booking order

    def book_loads(loads):
        merged = {}
        for name, count, entries, bits, data in loads:
            t, depth, anc = be.price(entries, bits, data)
            pt, pd, pa = merged.get(name, (0, 0, 0))
            merged[name] = (pt + count * t, pd + count * depth, max(pa, anc))
        rows.extend((name, *row) for name, row in merged.items())

    log_tail = ("log_tail", 4 * LOG_TAIL_TOFFOLI_PER_QUBIT * log_n, 0, log_n)
    modes = system.modes
    if strategy == Strategy.FULL_DVR:
        rho = full_dvr_sparsity(spec)
        book_loads([
            ("o_a_x4", 4, rho * n_grid, TABLE_BITS, None),
            ("rotation_diag_x2", 2, 1 << min(TABLE_BITS, 20), None, None),
            ("o_f", 1, rho * n_grid, log_n, None),
        ])
    elif strategy == Strategy.SEPARATE_DVR:
        if spec.has_bend:
            n_r1, n_r2, n_th = spec.basis_sizes
            book_loads([
                ("g_r2r2theta2", 2, n_r1 * n_r2 * n_th * n_th, None, None),
                ("g_full_grid", 1, n_grid, None, system.pes_grid()),
                ("g_r2", 6, n_r1 * n_r2, None, None),
                ("g_theta2", 2, n_th * n_th, None, None),
                ("g_theta", 1, n_th, None, np.sqrt(1.0 - modes[2].u_nodes**2)),
                ("g_r", 1, n_r2, None, 1.0 / modes[1].nodes_r),
            ])
        else:
            loads = [(f"mode_{i}", 1, n * n, None, None) for i, n in enumerate(spec.basis_sizes)]
            book_loads(loads + [("pes", 1, n_grid, None, system.pes_grid())])
        rows.append(log_tail)
    else:  # FBR_DVR
        if spec.has_bend:
            n_r1, n_r2, n_th = spec.basis_sizes
            book_loads([
                ("momentum_r", 3, 2 * n_r1, None, _amplitude_angles(modes[0].c_fbr)),
                ("momentum_r", 1, 2 * n_r2, None, _amplitude_angles(modes[1].c_fbr)),
                ("momentum_theta", 4, n_th * n_th // 2, None,
                 _amplitude_angles(modes[2].deriv_fbr)),
                ("sin_theta", 3, n_th, None, np.sqrt(1.0 - modes[2].u_nodes**2)),
                ("inv_r", 1, n_r2, None, 1.0 / modes[1].nodes_r),
                ("pes", 1, n_grid, None, system.pes_grid()),
            ])
        else:
            loads = [
                (f"momentum_r{i + 1}", 2, 2 * n, None, _amplitude_angles(modes[i].c_fbr))
                for i, n in enumerate(spec.basis_sizes)
            ]
            book_loads(loads + [("pes", 1, n_grid, None, system.pes_grid())])

        def coster(i: int, n_entries: int, d: int) -> CostReport:
            table = np.arcsin(np.clip(modes[i].t, -1, 1)).reshape(-1) / math.pi
            t, depth, anc = be.price(n_entries, d, table)
            return CostReport.assemble(t, 0, 0, anc, depth)

        dvr = dvr_oracle_cost(spec.basis_sizes, TABLE_BITS, coster)
        rows.append(("dvr_transform_x2", 2 * dvr.t_count, 2 * dvr.t_depth, dvr.qubit_count))
        rows.append(log_tail)
    if strategy != Strategy.FULL_DVR and spec.j_total > 0:
        # rotational rows: the z ladder is diagonal, x/y are 2-sparse
        j_dim = 2 * spec.j_total + 1
        book_loads([("jz_x2", 2, j_dim, None, None), ("jxy_x4", 4, 2 * j_dim, None, None)])

    total_t = sum(int(t) for _, t, _, _ in rows)
    depth = sum(int(d) for _, _, d, _ in rows)
    qubits = log_n + max(int(anc) for _, _, _, anc in rows)
    report = CostReport.assemble(4 * ((total_t + 3) // 4), 0, 0, qubits, depth)
    return StrategyCost(
        strategy=strategy,
        backend=backend,
        report=report,
        norm=norm,
        breakdown=tuple((name, int(t), int(anc)) for name, t, _, anc in rows),
    )


def _amplitude_angles(matrix: np.ndarray) -> np.ndarray:
    """arccos(sqrt(|a| / max|a|)) / pi over the nonzero entries a of matrix."""
    vals = np.abs(matrix[np.nonzero(matrix)])
    return np.arccos(np.sqrt(vals / vals.max())) / math.pi


# ---------------------------------------------------------------------------
# QPE cost, scaling fits, discretization bound
# ---------------------------------------------------------------------------


def qpe_cost(zeta_cm: float, c_h: CostReport, epsilon_cm: float) -> CostReport:
    """Heisenberg-limited phase estimation: calls = ceil(pi zeta / (2 eps)).

    The documented convention for the O(zeta/eps) call count; the phase
    register adds ceil(log2(zeta/eps)) qubits.  A count past the float range
    is a RangeError.
    """
    check_epsilon(epsilon_cm)
    calls = math.pi * zeta_cm / (2.0 * epsilon_cm)
    if not math.isfinite(calls):
        raise RangeError(f"zeta / epsilon = {zeta_cm} / {epsilon_cm} overflows the QPE call count")
    calls = max(math.ceil(calls), 1)
    phase_register = max(1, math.ceil(math.log2(max(2.0, zeta_cm / epsilon_cm))))
    qubits = c_h.qubit_count + phase_register
    t = calls * c_h.t_count
    return CostReport(
        t_count=t,
        toffoli_count=calls * c_h.toffoli_count,
        cnot_count=calls * c_h.cnot_count,
        clifford_count=calls * c_h.clifford_count,
        qubit_count=qubits,
        t_depth=calls * c_h.t_depth,
        quantum_volume=t * qubits,
    )


@dataclass(frozen=True)
class FitResult:
    c1: float
    c2: float
    c3: float
    r_squared: float

    def to_json_dict(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3, "rSquared": self.r_squared}


def fit_scaling(samples: Sequence) -> FitResult:
    """Least squares for log2(tau) = c1 eta + c2 log2(log2(1/eps)) + c3.

    samples: iterable of (eta, epsilon, tau) with tau > 0, needing at least
    three rows spanning two distinct eta and epsilon values.
    """
    rows = [(float(e), float(eps), float(tau)) for e, eps, tau in samples]
    for i, (e, eps, tau) in enumerate(rows):
        if not (math.isfinite(e) and 0 < eps < 1 and 0 < tau < math.inf):
            raise FitError(
                f"sample {i} (eta={e}, epsilon={eps}, tau={tau}): need finite eta, "
                f"0 < epsilon < 1 and finite tau > 0"
            )
    if len(rows) < 3:
        raise FitError(f"need >= 3 samples, got {len(rows)}")
    etas = {r[0] for r in rows}
    epss = {r[1] for r in rows}
    if len(etas) < 2 or len(epss) < 2:
        raise FitError("samples must span at least two distinct eta and epsilon values")
    design = np.array(
        [[e, math.log2(math.log2(1.0 / eps)), 1.0] for e, eps, _ in rows]
    )
    target = np.array([math.log2(tau) for _, _, tau in rows])
    if np.linalg.matrix_rank(design) < 3:
        raise FitError("design matrix is rank deficient")
    coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    predicted = design @ coeffs
    ss_res = float(np.sum((target - predicted) ** 2))
    ss_tot = float(np.sum((target - np.mean(target)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(c1=float(coeffs[0]), c2=float(coeffs[1]), c3=float(coeffs[2]), r_squared=r2)


def _dyadic_coordinates(indices: np.ndarray, nbits: int) -> np.ndarray:
    """Signed dyadic map: the top bit weighs -1, bit a weighs 2**-a."""
    vals = -((indices >> (nbits - 1)) & 1).astype(np.float64)
    for a in range(1, nbits):
        vals = vals + ((indices >> (nbits - 1 - a)) & 1) / float(1 << a)
    return vals


def discretization_bound_check(
    theta: Callable[[np.ndarray], np.ndarray],
    dims: int,
    grad_bound: float,
    m: int,
    m_prime: int,
):
    """Measured vs guaranteed distance of coarse and fine phase unitaries.

    Builds the diagonal phase unitaries exp(i pi theta(.)) on m and m_prime
    bits per coordinate (the fine one on dims * m_prime qubits), measures
    the operator-norm distance max |e^{i pi a} - e^{i pi b}|, and returns it
    with the Lipschitz bound 2 pi K sqrt(dims / 4**m).  The constant 2 is
    the one the refinement-gap argument actually supports (each coordinate
    moves by less than 2 / 2**m under refinement), and the measured value
    never exceeds this bound; theta(x) = x already saturates 93% of it in
    one dimension, ruling out any sqrt(2)-flavored sharpening.
    """
    if m < 1 or m_prime < m:
        raise RangeError(f"need 1 <= m <= m_prime, got ({m}, {m_prime})")
    if dims * m_prime > 14:
        raise ScaleError(f"dims * m_prime = {dims * m_prime} exceeds 14 qubits")
    fine = np.arange(1 << m_prime)
    fine_vals = _dyadic_coordinates(fine, m_prime)
    coarse_vals = _dyadic_coordinates(fine >> (m_prime - m), m)
    grids = np.meshgrid(*([fine_vals] * dims), indexing="ij")
    coarse_grids = np.meshgrid(*([coarse_vals] * dims), indexing="ij")
    fine_points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    coarse_points = np.stack([g.reshape(-1) for g in coarse_grids], axis=-1)
    tf = np.asarray(theta(fine_points), dtype=np.float64)
    tc = np.asarray(theta(coarse_points), dtype=np.float64)
    measured = float(np.max(np.abs(np.exp(1j * math.pi * tf) - np.exp(1j * math.pi * tc))))
    bound = 2.0 * math.pi * grad_bound * math.sqrt(dims / 4.0**m)
    return measured, bound
