"""Circuit synthesis and exact costing for Walsh-Hadamard QROMs.

The QROM for a truncated spectrum is a product of blocks

    W_z = PFX_z o (1 (x) A_b(c_z)) o PFX_z,

one per retained mask z, where PFX_z XOR-fans the parity <x, z> across the
b-qubit payload register and A_b(c) is a constant adder mod 2**b.  All
blocks commute; adjacent PFX gates merge by XOR of masks, which is what the
Gray-code ordering exploits.  Every gate maps basis states to basis states,
so circuits are simulated by plain integer arithmetic.

Cost model (per constant adder of k on b bits, lsb = index of k's lowest
set bit):

    T count          4 * (b - 2 - lsb)        [clamped at 0]
    controlled form  4 * (b - 1 - lsb)
    PFX_z CNOTs      2 * (h(z) - 1) + b       [fan-in tree + fanout + mirror]

1 Toffoli = 4 T throughout.  Quantum volume = T count * qubit count.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ParseError, RangeError, ScaleError, ShapeError, ToleranceError
from .wht import SampledFunction, TruncatedSpectrum

__all__ = [
    "Ordering",
    "Pfx",
    "Adder",
    "CAdder",
    "Cnot",
    "XGate",
    "CSwap",
    "QromCircuit",
    "CostReport",
    "synthesize",
    "pair_cancel",
    "cost",
    "simulate",
    "simulate_table",
    "multiplexed_rotation_unitary",
    "synthesize_split",
    "SplitQrom",
    "circuit_to_lines",
    "circuit_from_lines",
]


class Ordering(enum.Enum):
    GRAY_CODE = "gray"
    MAGNITUDE_DESCENDING = "magnitude"


# ---------------------------------------------------------------------------
# Gate IR.  Qubit layout: [0, eta) input register, [eta, eta+b) payload,
# [eta+b, eta+b+ancilla_count) ancillas.  Indices in Cnot/X/CSwap/CAdder are
# global; Pfx/Adder act on the payload implicitly.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pfx:
    """Parity-controlled fanout-X: flips all b payload bits when <x,z> = 1."""

    mask: int
    width: int

    def __post_init__(self):
        if self.mask == 0:
            raise RangeError("PFX mask must be nonzero (z = 0 folds into an adder)")


@dataclass(frozen=True)
class Adder:
    """y -> y + k mod 2**width on the payload register."""

    k: int
    width: int

    def __post_init__(self):
        if not (-(1 << self.width) < self.k < (1 << self.width)):
            raise RangeError(f"|k| = {abs(self.k)} must be < 2**{self.width}")


@dataclass(frozen=True)
class CAdder:
    """Adder controlled on one global qubit index."""

    k: int
    width: int
    control: int

    def __post_init__(self):
        if not (-(1 << self.width) < self.k < (1 << self.width)):
            raise RangeError(f"|k| = {abs(self.k)} must be < 2**{self.width}")


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int


@dataclass(frozen=True)
class XGate:
    target: int


@dataclass(frozen=True)
class CSwap:
    """Swap each (a, b) qubit pair when the control qubit is 1."""

    control: int
    pairs: tuple


Gate = Union[Pfx, Adder, CAdder, Cnot, XGate, CSwap]


@dataclass(frozen=True)
class QromCircuit:
    """Immutable gate sequence over input/payload/ancilla registers.

    Invariant: the sequence never contains two adjacent Pfx gates (they
    compose by XOR of masks and are merged at construction).
    """

    input_width: int
    payload_width: int
    ancilla_count: int = 0
    gates: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g1, g2 in zip(self.gates, self.gates[1:]):
            if isinstance(g1, Pfx) and isinstance(g2, Pfx):
                raise ShapeError("adjacent PFX gates must be merged by mask XOR")

    @property
    def eta(self) -> int:
        return self.input_width

    @property
    def b(self) -> int:
        return self.payload_width

    @property
    def total_qubits(self) -> int:
        return self.input_width + self.payload_width + self.ancilla_count


def _merge_pfx(gates: Iterable[Gate], b: int) -> list:
    out: list = []
    for gate in gates:
        if isinstance(gate, Pfx) and out and isinstance(out[-1], Pfx):
            merged = out[-1].mask ^ gate.mask
            out.pop()
            if merged:
                out.append(Pfx(merged, b))
        else:
            out.append(gate)
    return out


def _gray_rank(z: int) -> int:
    """Index m with m ^ (m >> 1) = z (inverse binary-reflected Gray code)."""
    m = z
    shift = 1
    while (m >> shift) > 0:
        m ^= m >> shift
        shift *= 2
    return m


def _pfx_chain_cnots(masks: Sequence[int], b: int) -> int:
    return sum(2 * (int(z).bit_count() - 1) + b for z in masks if z)


def _chain_masks(order: Sequence[int]) -> list[int]:
    """PFX masks of the merged chain for supports visited in this order."""
    masks = []
    prev = 0
    for z in order:
        masks.append(prev ^ z)
        prev = z
    masks.append(prev)
    return [m for m in masks if m]


def synthesize(
    spec: TruncatedSpectrum,
    ordering: Ordering = Ordering.GRAY_CODE,
) -> QromCircuit:
    """Emit the merged PFX/adder chain for a truncated spectrum.

    The circuit maps |x>|y> to |x>|y + 2**eta g(x) mod 2**b> where g is the
    truncated reconstruction.  Under GRAY_CODE the support is visited in
    Gray-rank order, so consecutive PFX pairs merge into PFX_{z1 ^ z2}; if
    that ordering would cost more PFX CNOTs than the magnitude order (rare
    for sparse supports), the magnitude order is kept so optimization never
    increases the CNOT count.  An empty support yields the identity circuit.
    """
    eta = spec.eta
    b = spec.base.b
    items = [(z, c) for z, c in spec.support_coeffs() if c % (1 << b)]
    if not items:
        return QromCircuit(input_width=eta, payload_width=b)
    if ordering is Ordering.GRAY_CODE:
        candidate = sorted(items, key=lambda zc: _gray_rank(zc[0]))
        kept = [z for z, _ in items]
        gray = [z for z, _ in candidate]
        if _pfx_chain_cnots(_chain_masks(gray), b) <= _pfx_chain_cnots(
            _chain_masks(kept), b
        ):
            items = candidate
    gates: list = []
    prev = 0
    for z, c in items:
        mask = prev ^ z
        if mask:
            gates.append(Pfx(mask, b))
        gates.append(Adder(_centered(c, b), b))
        prev = z
    if prev:
        gates.append(Pfx(prev, b))
    return QromCircuit(input_width=eta, payload_width=b, gates=tuple(gates))


def _centered(k: int, b: int) -> int:
    """Reduce k mod 2**b into [-2**(b-1), 2**(b-1))."""
    k %= 1 << b
    if k >= 1 << (b - 1):
        k -= 1 << b
    return k


def _lsb(k: int) -> int:
    return (abs(k) & -abs(k)).bit_length() - 1 if k else 0


def _adder_t(k: int, b: int) -> int:
    if k == 0:
        return 0
    return 4 * max(0, b - 2 - _lsb(k))


def _cadder_t(k: int, b: int) -> int:
    if k == 0:
        return 0
    return 4 * max(0, b - 1 - _lsb(k))


def _adder_ancillas(k: int, b: int, controlled: bool) -> int:
    if k == 0:
        return 0
    return max(0, b - (1 if controlled else 2) - _lsb(k))


@dataclass(frozen=True)
class CostReport:
    """Exact Clifford+T accounting for one construction.

    quantum_volume = t_count * qubit_count; toffoli_count = t_count / 4.
    clifford_count totals every counted Clifford gate, CNOTs included;
    adder-internal Cliffords are outside this model (only their T cost and
    workspace are booked).  Serializes to JSON under the camelCase names
    tCount, toffoliCount, cnotCount, cliffordCount, qubitCount, tDepth,
    quantumVolume.
    """

    t_count: int
    toffoli_count: int
    cnot_count: int
    clifford_count: int
    qubit_count: int
    t_depth: int
    quantum_volume: int

    def __post_init__(self):
        for name in (
            "t_count",
            "toffoli_count",
            "cnot_count",
            "clifford_count",
            "qubit_count",
            "t_depth",
            "quantum_volume",
        ):
            value = getattr(self, name)
            if value < 0:
                raise RangeError(f"{name} must be nonnegative, got {value}")
        if self.quantum_volume != self.t_count * self.qubit_count:
            raise RangeError("quantum_volume must equal t_count * qubit_count")

    def to_json_dict(self) -> dict:
        return {
            "tCount": self.t_count,
            "toffoliCount": self.toffoli_count,
            "cnotCount": self.cnot_count,
            "cliffordCount": self.clifford_count,
            "qubitCount": self.qubit_count,
            "tDepth": self.t_depth,
            "quantumVolume": self.quantum_volume,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def assemble(t, cnot, clifford, qubits, t_depth) -> "CostReport":
        return CostReport(
            t_count=t,
            toffoli_count=t // 4,
            cnot_count=cnot,
            clifford_count=clifford,
            qubit_count=qubits,
            t_depth=t_depth,
            quantum_volume=t * qubits,
        )


def _gate_resources(gate: Gate, eta: int, b: int):
    """(t, toffoli_depth, cnots, other_cliffords, transient_ancillas, keys)"""
    payload = ("Y",)
    if isinstance(gate, Pfx):
        cnots = 2 * (gate.mask.bit_count() - 1) + b
        keys = payload + tuple(("q", i) for i in range(eta) if gate.mask >> i & 1)
        return 0, 0, cnots, 0, 0, keys
    if isinstance(gate, Adder):
        t = _adder_t(gate.k, b)
        return t, t // 4, 0, 0, _adder_ancillas(gate.k, b, False), payload
    if isinstance(gate, CAdder):
        t = _cadder_t(gate.k, b)
        keys = payload + (("q", gate.control),)
        return t, t // 4, 0, 0, _adder_ancillas(gate.k, b, True), keys
    if isinstance(gate, Cnot):
        return 0, 0, 1, 0, 0, (("q", gate.control), ("q", gate.target))
    if isinstance(gate, XGate):
        return 0, 0, 0, 1, 0, (("q", gate.target),)
    if isinstance(gate, CSwap):
        npairs = len(gate.pairs)
        keys = (("q", gate.control),) + tuple(("q", q) for ab in gate.pairs for q in ab)
        return 4 * npairs, 1, 2 * npairs, 0, 0, keys
    raise ShapeError(f"unknown gate {gate!r}")


def cost(circuit: QromCircuit) -> CostReport:
    """Sum per-gate costs; T depth by greedy layering of commuting blocks.

    Gates sharing a register serialize; each adder occupies the payload for
    its own Toffoli depth (the carry ripple), Cliffords take zero T depth.
    The qubit count is eta + b + allocated ancillas + the widest transient
    adder workspace.
    """
    eta, b = circuit.input_width, circuit.payload_width
    t = cnot = clifford = 0
    max_transient = 0
    frontier: dict = {}
    for gate in circuit.gates:
        gt, gdepth, gcnot, gcliff, transient, keys = _gate_resources(gate, eta, b)
        t += gt
        cnot += gcnot
        clifford += gcliff + gcnot
        max_transient = max(max_transient, transient)
        start = max((frontier.get(k, 0) for k in keys), default=0)
        for k in keys:
            frontier[k] = start + gdepth
    t_depth = max(frontier.values(), default=0)
    qubits = eta + b + circuit.ancilla_count + max_transient
    return CostReport.assemble(t, cnot, clifford, qubits, t_depth)


# ---------------------------------------------------------------------------
# Pair cancellation
# ---------------------------------------------------------------------------


def _emit_pair_block(
    z_sign: int,
    c_sign: int,
    z_other: int,
    c_other: int,
    b: int,
    anc: int,
    eta: int,
) -> list:
    """Fused block adding (-1)^<x,z_sign> c_sign + (-1)^<x,z_other> c_other.

    Computes the parity p = <x, z_sign ^ z_other> on the shared ancilla,
    then adds c_sign + c_other on the p = 0 branch and c_sign - c_other on
    the p = 1 branch, conjugated by PFX_{z_sign} for the overall sign.
    """
    zc = z_sign ^ z_other
    plus = _centered(c_sign + c_other, b)
    minus = _centered(c_sign - c_other, b)
    gates: list = []
    # parity CNOTs commute with PFX (ancilla vs payload targets), so they
    # sit inside the sign sandwich and consecutive blocks' PFX gates merge
    parity_cnots = [Cnot(i, anc) for i in range(eta) if zc >> i & 1]
    if z_sign:
        gates.append(Pfx(z_sign, b))
    gates.extend(parity_cnots)
    if plus:
        gates.append(XGate(anc))
        gates.append(CAdder(plus, b, anc))
        gates.append(XGate(anc))
    if minus:
        gates.append(CAdder(minus, b, anc))
    gates.extend(reversed(parity_cnots))
    if z_sign:
        gates.append(Pfx(z_sign, b))
    return gates


def pair_cancel(circuit: QromCircuit, spec: TruncatedSpectrum) -> QromCircuit:
    """Fuse +/- and equal-lsb coefficient pairs into controlled adders.

    A pair with WH(f)(z1) = +/- WH(f)(z2) costs one controlled adder of the
    doubled constant instead of two plain adders, saving exactly the cost of
    one A_b(k).  Pairs whose coefficients merely share a least significant
    bit still save >= 4 T gates through the sum/difference constants.  The
    result is simulate()-identical to the input; if no pairing lowers both
    the T and CNOT counts the input circuit is returned unchanged.
    """
    eta = spec.eta
    b = spec.base.b
    items = [(z, _centered(c, b)) for z, c in spec.support_coeffs() if c % (1 << b)]
    if len(items) < 2:
        return circuit

    remaining = dict(items)
    pairs: list[tuple[int, int]] = []
    by_mag: dict = {}
    for z, c in items:
        by_mag.setdefault(abs(c), []).append(z)
    for _, masks in sorted(by_mag.items()):
        while len(masks) >= 2:
            pairs.append((masks.pop(0), masks.pop(0)))
    for z1, z2 in pairs:
        remaining.pop(z1), remaining.pop(z2)
    by_lsb: dict = {}
    for z, c in remaining.items():
        by_lsb.setdefault(_lsb(c), []).append(z)
    for _, masks in sorted(by_lsb.items()):
        masks.sort()
        while len(masks) >= 2:
            z1, z2 = masks.pop(0), masks.pop(0)
            pairs.append((z1, z2))
            remaining.pop(z1), remaining.pop(z2)
    if not pairs:
        return circuit

    coeff = dict(items)
    anc_index = eta + b
    gates: list = []
    singles = [(z, c) for z, c in items if z in remaining]
    prev = 0
    for z, c in singles:
        mask = prev ^ z
        if mask:
            gates.append(Pfx(mask, b))
        gates.append(Adder(c, b))
        prev = z
    if prev:
        gates.append(Pfx(prev, b))
    oriented = []
    for z1, z2 in pairs:
        if (z1.bit_count(), z1) <= (z2.bit_count(), z2):
            oriented.append((z1, z2))
        else:
            oriented.append((z2, z1))
    oriented.sort(key=lambda zz: _gray_rank(zz[0]))
    for zs, zo in oriented:
        gates.extend(_emit_pair_block(zs, coeff[zs], zo, coeff[zo], b, anc_index, eta))
    candidate = QromCircuit(
        input_width=eta,
        payload_width=b,
        ancilla_count=1,
        gates=tuple(_merge_pfx(gates, b)),
    )
    before, after = cost(circuit), cost(candidate)
    if after.t_count > before.t_count or after.cnot_count > before.cnot_count:
        return circuit
    return candidate


# ---------------------------------------------------------------------------
# Classical basis-state simulation
# ---------------------------------------------------------------------------


def _bit_get(x: int, y: int, anc: int, q: int, eta: int, b: int) -> int:
    if q < eta:
        return (x >> q) & 1
    if q < eta + b:
        return (y >> (q - eta)) & 1
    return (anc >> (q - eta - b)) & 1


def simulate(circuit: QromCircuit, x: int, y: int) -> int:
    """Run the circuit on basis state |x>|y>|0...0> and return the payload.

    Every gate is a permutation composed with modular additions, so this is
    pure integer arithmetic.
    """
    eta, b = circuit.input_width, circuit.payload_width
    if not 0 <= x < (1 << eta):
        raise RangeError(f"x = {x} outside [0, 2**{eta})")
    if not 0 <= y < (1 << b):
        raise RangeError(f"y = {y} outside [0, 2**{b})")
    mask_b = (1 << b) - 1
    anc = 0
    for gate in circuit.gates:
        if isinstance(gate, Pfx):
            if (x & gate.mask).bit_count() & 1:
                y = (~y) & mask_b
        elif isinstance(gate, Adder):
            y = (y + gate.k) & mask_b
        elif isinstance(gate, CAdder):
            if _bit_get(x, y, anc, gate.control, eta, b):
                y = (y + gate.k) & mask_b
        elif isinstance(gate, Cnot):
            if _bit_get(x, y, anc, gate.control, eta, b):
                x, y, anc = _bit_flip(x, y, anc, gate.target, eta, b)
        elif isinstance(gate, XGate):
            x, y, anc = _bit_flip(x, y, anc, gate.target, eta, b)
        elif isinstance(gate, CSwap):
            if _bit_get(x, y, anc, gate.control, eta, b):
                for qa, qb in gate.pairs:
                    ba = _bit_get(x, y, anc, qa, eta, b)
                    bb = _bit_get(x, y, anc, qb, eta, b)
                    if ba != bb:
                        x, y, anc = _bit_flip(x, y, anc, qa, eta, b)
                        x, y, anc = _bit_flip(x, y, anc, qb, eta, b)
        else:
            raise ShapeError(f"unknown gate {gate!r}")
    if anc:
        raise ToleranceError("ancillas not restored to |0> at circuit end")
    return y


def _bit_flip(x: int, y: int, anc: int, q: int, eta: int, b: int):
    if q < eta:
        return x ^ (1 << q), y, anc
    if q < eta + b:
        return x, y ^ (1 << (q - eta)), anc
    return x, y, anc ^ (1 << (q - eta - b))


def simulate_table(circuit: QromCircuit, y0: int = 0) -> np.ndarray:
    """Vectorized simulate over every input x, starting payload y0.

    Returns the length-2**eta array of final payload values; bit-identical
    to calling :func:`simulate` point by point.
    """
    eta, b = circuit.input_width, circuit.payload_width
    mask_b = (1 << b) - 1
    x = np.arange(1 << eta, dtype=np.uint64)
    y = np.full(1 << eta, y0, dtype=np.int64)
    anc = np.zeros(1 << eta, dtype=np.int64)

    def get_bits(q: int) -> np.ndarray:
        if q < eta:
            return ((x >> np.uint64(q)) & np.uint64(1)).astype(np.int64)
        if q < eta + b:
            return (y >> (q - eta)) & 1
        return (anc >> (q - eta - b)) & 1

    def flip(q: int, where: np.ndarray) -> None:
        nonlocal y, anc
        if q < eta:
            raise ShapeError("table simulation assumes the input register is read-only")
        if q < eta + b:
            y = np.where(where, y ^ (1 << (q - eta)), y)
        else:
            anc = np.where(where, anc ^ (1 << (q - eta - b)), anc)

    for gate in circuit.gates:
        if isinstance(gate, Pfx):
            par = (np.bitwise_count(x & np.uint64(gate.mask)) & 1).astype(bool)
            y = np.where(par, (~y) & mask_b, y)
        elif isinstance(gate, Adder):
            y = (y + gate.k) & mask_b
        elif isinstance(gate, CAdder):
            sel = get_bits(gate.control).astype(bool)
            y = np.where(sel, (y + gate.k) & mask_b, y)
        elif isinstance(gate, Cnot):
            sel = get_bits(gate.control).astype(bool)
            flip(gate.target, sel)
        elif isinstance(gate, XGate):
            flip(gate.target, np.ones(x.shape, dtype=bool))
        elif isinstance(gate, CSwap):
            sel = get_bits(gate.control).astype(bool)
            for qa, qb in gate.pairs:
                differ = sel & (get_bits(qa) != get_bits(qb))
                flip(qa, differ)
                flip(qb, differ)
        else:
            raise ShapeError(f"unknown gate {gate!r}")
    if np.any(anc):
        raise ToleranceError("ancillas not restored to |0> at circuit end")
    return y.astype(np.int64)


# ---------------------------------------------------------------------------
# Multiplexed rotation (dense, desk scale)
# ---------------------------------------------------------------------------


def multiplexed_rotation_unitary(f: SampledFunction) -> np.ndarray:
    """Dense multiplexed rotation on a flag qubit, one block per address x.

    Returns the 2**(eta+1)-dimensional real orthogonal matrix whose x-block
    is [[cos a, -sin a], [sin a, cos a]] with a = 2*pi*f(x)/2**d (the flag
    qubit is the most significant).  The matrix is built two ways, directly
    and as (Sdg H (x) 1) D_F (H S (x) 1) with D_F the diagonal unitary of
    the sign-extended function F(a, x) = (-1)**a f(x); both must agree to
    1e-12 or :class:`ToleranceError` is raised.
    """
    eta, d = f.eta, f.d
    if eta + 1 + d > 14:
        raise ScaleError(f"eta + 1 + d = {eta + 1 + d} exceeds the desk-scale limit 14")
    n = 1 << eta
    angles = 2.0 * np.pi * np.asarray(f.values, dtype=np.float64) / (1 << d)
    direct = np.zeros((2 * n, 2 * n), dtype=np.float64)
    c, s = np.cos(angles), np.sin(angles)
    idx = np.arange(n)
    direct[idx, idx] = c
    direct[idx, n + idx] = -s
    direct[n + idx, idx] = s
    direct[n + idx, n + idx] = c

    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s_gate = np.diag([1.0, 1.0j])
    hs = h @ s_gate
    sdh = s_gate.conj().T @ h
    phases = np.concatenate([np.exp(1j * angles), np.exp(-1j * angles)])
    d_f = np.diag(phases)
    composed = np.kron(sdh, np.eye(n)) @ d_f @ np.kron(hs, np.eye(n))
    deviation = float(np.max(np.abs(composed - direct)))
    if deviation > 1e-12:
        raise ToleranceError(
            f"rotation constructions disagree by {deviation:.3e} > 1e-12"
        )
    return direct


# ---------------------------------------------------------------------------
# Optional depth-halving support split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitQrom:
    """Two half-support QROMs on separate payloads plus one merging adder.

    The halves run in parallel (roughly half the T depth); the merge is
    booked as exactly one extra b-bit quantum-quantum adder: 4(b-1) T gates,
    b-1 ancillas.
    """

    first: QromCircuit
    second: QromCircuit

    @property
    def eta(self) -> int:
        return self.first.input_width

    @property
    def b(self) -> int:
        return self.first.payload_width

    def simulate(self, x: int, y: int) -> int:
        part = simulate(self.first, x, y)
        shift = simulate(self.second, x, 0)
        return (part + shift) % (1 << self.b)

    def cost(self) -> CostReport:
        b = self.b
        c1, c2 = cost(self.first), cost(self.second)
        merge_t = 4 * (b - 1)
        t = c1.t_count + c2.t_count + merge_t
        cnot = c1.cnot_count + c2.cnot_count
        clifford = c1.clifford_count + c2.clifford_count
        qubits = self.eta + 2 * b + max(
            c1.qubit_count - self.eta - b,
            c2.qubit_count - self.eta - b,
            b - 1,
        )
        t_depth = max(c1.t_depth, c2.t_depth) + (b - 1)
        return CostReport.assemble(t, cnot, clifford, qubits, t_depth)


def synthesize_split(
    spec: TruncatedSpectrum, ordering: Ordering = Ordering.GRAY_CODE
) -> SplitQrom:
    """Split the support into alternating halves and synthesize each."""
    items = spec.support_coeffs()
    half1 = [z for i, (z, _) in enumerate(items) if i % 2 == 0]
    half2 = [z for i, (z, _) in enumerate(items) if i % 2 == 1]
    order = spec.order

    def restrict(masks):
        chosen = np.isin(order, masks)
        return TruncatedSpectrum(
            base=spec.base, k=len(masks), order=np.concatenate((order[chosen], order[~chosen]))
        )

    return SplitQrom(
        first=synthesize(restrict(half1), ordering),
        second=synthesize(restrict(half2), ordering),
    )


# ---------------------------------------------------------------------------
# Wire format: one gate per line
# ---------------------------------------------------------------------------


def circuit_to_lines(circuit: QromCircuit) -> str:
    """Serialize to the line-oriented text format (one gate per line)."""
    header = (
        f"QROM {circuit.input_width} {circuit.payload_width} {circuit.ancilla_count}"
    )
    lines = [header]
    for g in circuit.gates:
        if isinstance(g, Pfx):
            lines.append(f"PFX {g.mask:#x} {g.width}")
        elif isinstance(g, Adder):
            lines.append(f"ADD {g.k} {g.width}")
        elif isinstance(g, CAdder):
            lines.append(f"CADD {g.k} {g.width} {g.control}")
        elif isinstance(g, Cnot):
            lines.append(f"CNOT {g.control} {g.target}")
        elif isinstance(g, XGate):
            lines.append(f"X {g.target}")
        elif isinstance(g, CSwap):
            pairs = ",".join(f"{a}:{bq}" for a, bq in g.pairs)
            lines.append(f"CSWAP {g.control} {pairs}")
        else:
            raise ShapeError(f"unknown gate {g!r}")
    return "\n".join(lines) + "\n"


def circuit_from_lines(text: str) -> QromCircuit:
    """Parse the line-oriented text format back into a circuit."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("QROM "):
        raise ParseError("missing 'QROM <eta> <b> <ancillas>' header line")
    try:
        _, eta_s, b_s, anc_s = lines[0].split()
        eta, b, anc = int(eta_s), int(b_s), int(anc_s)
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    gates: list = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        try:
            op = parts[0]
            if op == "PFX":
                gates.append(Pfx(int(parts[1], 16), int(parts[2])))
            elif op == "ADD":
                gates.append(Adder(int(parts[1]), int(parts[2])))
            elif op == "CADD":
                gates.append(CAdder(int(parts[1]), int(parts[2]), int(parts[3])))
            elif op == "CNOT":
                gates.append(Cnot(int(parts[1]), int(parts[2])))
            elif op == "X":
                gates.append(XGate(int(parts[1])))
            elif op == "CSWAP":
                pairs = tuple(
                    tuple(int(v) for v in chunk.split(":")) for chunk in parts[2].split(",")
                )
                gates.append(CSwap(int(parts[1]), pairs))
            else:
                raise ParseError(f"line {lineno}: unknown opcode {op!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from exc
    return QromCircuit(input_width=eta, payload_width=b, ancilla_count=anc, gates=tuple(gates))
