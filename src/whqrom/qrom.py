"""Circuit synthesis and exact costing for Walsh-Hadamard QROMs.

The QROM for a truncated spectrum is a product of blocks

    W_z = PFX_z o (1 (x) A_b(c_z)) o PFX_z,

one per retained mask z, where PFX_z XOR-fans the parity <x, z> across the
b-qubit payload register and A_b(c) is a constant adder mod 2**b.  All
blocks commute; adjacent PFX gates merge by XOR of masks, which is what the
Gray-code ordering exploits.  Pair cancellation only adds parities that X
and CNOT gates compute into ancillas, which then control adders.  So the
payload is written only by PFX and the adders, and the ancillas only by X
and CNOT: that is the whole circuit language, which :class:`QromCircuit`
enforces.  Every gate maps basis states to basis states, so circuits are
simulated by plain integer arithmetic: :func:`simulate` gate by gate at one
address, :func:`simulate_table` at every address by reading the whole
circuit as one sparse Walsh sum and evaluating it with a single butterfly.

Cost model (per constant adder of k on b bits, lsb = index of k's lowest
set bit; T count = 4 * workspace ancillas):

    T count          4 * (b - 2 - lsb)        [clamped at 0]
    controlled form  4 * (b - 1 - lsb)
    PFX_z CNOTs      2 * (h(z) - 1) + b       [fan-in tree + fanout + mirror]

1 Toffoli = 4 T throughout.  Quantum volume = T count * qubit count.
T depth = Toffoli count: only adders carry T gates and every adder acts on
the payload register, so no two of them can share a Toffoli layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ParseError, RangeError, ScaleError, ShapeError, ToleranceError
from .wht import TruncatedSpectrum, _butterfly

__all__ = [
    "Ordering",
    "Pfx",
    "Adder",
    "CAdder",
    "Cnot",
    "XGate",
    "GateError",
    "QromCircuit",
    "CostReport",
    "synthesize",
    "pair_cancel",
    "cost",
    "simulate",
    "simulate_table",
    "MAX_TABLE_ETA",
    "circuit_to_lines",
    "circuit_from_lines",
]


class Ordering(enum.Enum):
    GRAY_CODE = "gray"
    MAGNITUDE_DESCENDING = "magnitude"


# ---------------------------------------------------------------------------
# Gate IR.  Qubit layout: [0, eta) input register, [eta, eta+b) payload,
# [eta+b, eta+b+ancilla_count) ancillas.  Indices in Cnot/X/CAdder are
# global; Pfx/Adder act on the payload implicitly, and they are the only
# gates that write it.  Cnot/X write only ancillas, and no control is a
# payload qubit.  Scalar simulation state is regs = [input, payload,
# ancillas], and _locate maps a control qubit into it.
#
# Each gate kind defines everything about itself in one class:
#   op, text(), parse(fields)   its wire token, line and field parser
#   resources()                 (t, cnots, other_cliffords, workspace) for
#                               cost()
#   step(regs, eta, b)          scalar step on ints, for simulate()
#   fault(eta, b, total)        the circuit rule it breaks, or None
# simulate_table() reads the gates by kind, in one loop of its own.
# ---------------------------------------------------------------------------


def _locate(q: int, eta: int, b: int) -> tuple[int, int]:
    """(register, bit) of control qubit q in regs = [input, payload, ancillas]."""
    return (0, q) if q < eta else (2, q - eta - b)


def _width_fault(width: int, b: int) -> str | None:
    if width != b:
        return f"width {width} differs from the payload width {b}"
    return None


def _qubit_fault(q: int, first: int, total: int) -> str | None:
    if not first <= q < total:
        return f"qubit {q} outside [{first}, {total})"
    return None


def _control_fault(q: int, eta: int, b: int, total: int) -> str | None:
    if eta <= q < eta + b:
        return "control is a payload qubit"
    return _qubit_fault(q, 0, total)


def _lsb(k: int) -> int:
    return (abs(k) & -abs(k)).bit_length() - 1 if k else 0


def _check_constant(k: int, width: int) -> None:
    if not (-(1 << width) < k < (1 << width)):
        raise RangeError(f"|k| = {abs(k)} must be < 2**{width}")


def _adder_workspace(k: int, b: int, controls: int) -> int:
    """Carry ancillas of a constant adder of k mod 2**b; its T count is 4x this."""
    return max(0, b - 2 + controls - _lsb(k)) if k else 0


class _Gate:
    @classmethod
    def parse(cls, fields: Sequence[str]) -> "_Gate":
        """Build the gate from its wire fields, all decimal integers."""
        if len(fields) != len(cls.__dataclass_fields__):
            raise ValueError(f"{cls.op} takes {len(cls.__dataclass_fields__)} fields")
        return cls(*map(int, fields))


@dataclass(frozen=True)
class Pfx(_Gate):
    """Parity-controlled fanout-X: flips all b payload bits when <x,z> = 1."""

    op = "PFX"
    mask: int
    width: int

    def __post_init__(self):
        if self.mask == 0:
            raise RangeError("PFX mask must be nonzero (z = 0 folds into an adder)")

    @property
    def cnots(self) -> int:
        return 2 * (self.mask.bit_count() - 1) + self.width

    def resources(self):
        return 0, self.cnots, 0, 0

    def step(self, regs, eta, b):
        if (regs[0] & self.mask).bit_count() & 1:
            regs[1] ^= (1 << b) - 1

    def fault(self, eta, b, total):
        if self.mask >> eta:
            return f"mask must be < 2**{eta}"
        return _width_fault(self.width, b)

    def text(self) -> str:
        return f"{self.op} {self.mask:#x} {self.width}"

    @classmethod
    def parse(cls, fields: Sequence[str]) -> "Pfx":
        mask, width = fields
        return cls(int(mask, 16), int(width))


@dataclass(frozen=True)
class Adder(_Gate):
    """y -> y + k mod 2**width on the payload register."""

    op = "ADD"
    k: int
    width: int

    def __post_init__(self):
        _check_constant(self.k, self.width)

    def resources(self):
        workspace = _adder_workspace(self.k, self.width, 0)
        return 4 * workspace, 0, 0, workspace

    def step(self, regs, eta, b):
        regs[1] = (regs[1] + self.k) & ((1 << b) - 1)

    def fault(self, eta, b, total):
        return _width_fault(self.width, b)

    def text(self) -> str:
        return f"{self.op} {self.k} {self.width}"


@dataclass(frozen=True)
class CAdder(_Gate):
    """Adder controlled on one global qubit index."""

    op = "CADD"
    k: int
    width: int
    control: int

    def __post_init__(self):
        _check_constant(self.k, self.width)

    def resources(self):
        workspace = _adder_workspace(self.k, self.width, 1)
        return 4 * workspace, 0, 0, workspace

    def step(self, regs, eta, b):
        reg, bit = _locate(self.control, eta, b)
        if regs[reg] >> bit & 1:
            regs[1] = (regs[1] + self.k) & ((1 << b) - 1)

    def fault(self, eta, b, total):
        return _control_fault(self.control, eta, b, total) or _width_fault(self.width, b)

    def text(self) -> str:
        return f"{self.op} {self.k} {self.width} {self.control}"


@dataclass(frozen=True)
class Cnot(_Gate):
    op = "CNOT"
    control: int
    target: int

    def resources(self):
        return 0, 1, 0, 0

    def step(self, regs, eta, b):
        reg, bit = _locate(self.control, eta, b)
        if regs[reg] >> bit & 1:
            regs[2] ^= 1 << (self.target - eta - b)

    def fault(self, eta, b, total):
        if self.control == self.target:
            return "control equals target"
        fault = _control_fault(self.control, eta, b, total)
        return fault or _qubit_fault(self.target, eta + b, total)

    def text(self) -> str:
        return f"{self.op} {self.control} {self.target}"


@dataclass(frozen=True)
class XGate(_Gate):
    op = "X"
    target: int

    def resources(self):
        return 0, 0, 1, 0

    def step(self, regs, eta, b):
        regs[2] ^= 1 << (self.target - eta - b)

    def fault(self, eta, b, total):
        return _qubit_fault(self.target, eta + b, total)

    def text(self) -> str:
        return f"{self.op} {self.target}"


Gate = Union[Pfx, Adder, CAdder, Cnot, XGate]
_GATE_KINDS = {kind.op: kind for kind in (Pfx, Adder, CAdder, Cnot, XGate)}


class GateError(ShapeError):
    """A gate breaks a circuit rule; ``index`` is its position in the circuit."""

    def __init__(self, index: int, message: str):
        super().__init__(f"gate {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class QromCircuit:
    """Immutable, validated gate sequence over input/payload/ancilla registers.

    Rules, checked at construction (:class:`GateError` names the first gate
    that breaks one; negative register widths raise :class:`RangeError`):
    every gate width equals the payload width b; PFX masks are < 2**eta;
    every qubit index lies in [0, total_qubits); CNOT and X targets are
    ancilla qubits, in [eta + b, total_qubits), so only PFX and the adders
    write the payload and the input register is read-only; no CNOT or CADD
    control is a payload qubit; a CNOT's control differs from its target;
    no two PFX gates are adjacent (they compose by XOR of masks and are
    merged at synthesis).
    """

    input_width: int
    payload_width: int
    ancilla_count: int = 0
    gates: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        eta, b = self.input_width, self.payload_width
        if min(eta, b, self.ancilla_count) < 0:
            raise RangeError(
                f"register widths must be nonnegative, got ({eta}, {b}, {self.ancilla_count})"
            )
        total = self.total_qubits
        previous = None
        for i, gate in enumerate(self.gates):
            fault = gate.fault(eta, b, total)
            if fault is None and isinstance(gate, Pfx) and isinstance(previous, Pfx):
                fault = "adjacent PFX gates must be merged by mask XOR"
            if fault:
                raise GateError(i, f"{gate.text()}: {fault}")
            previous = gate

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


def _chain(items: Sequence[tuple[int, int]], b: int) -> list:
    """PFX/ADD chain adding c (-1)^<x,z> per (z, c) item, in the given order.

    Consecutive sandwiches share one PFX of the XOR of their masks.
    """
    gates: list = []
    prev = 0
    for z, c in items:
        if prev ^ z:
            gates.append(Pfx(prev ^ z, b))
        gates.append(Adder(c, b))
        prev = z
    if prev:
        gates.append(Pfx(prev, b))
    return gates


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
    items = [(z, _centered(c, b)) for z, c in spec.support_coeffs() if c % (1 << b)]
    gates = _chain(items, b)
    if ordering is Ordering.GRAY_CODE:
        gray = _chain(sorted(items, key=lambda zc: _gray_rank(zc[0])), b)
        if _pfx_cnots(gray) <= _pfx_cnots(gates):
            gates = gray
    return QromCircuit(input_width=eta, payload_width=b, gates=tuple(gates))


def _pfx_cnots(gates: Sequence[Gate]) -> int:
    return sum(g.cnots for g in gates if isinstance(g, Pfx))


def _centered(k: int, b: int) -> int:
    """Reduce k mod 2**b into [-2**(b-1), 2**(b-1))."""
    k %= 1 << b
    if k >= 1 << (b - 1):
        k -= 1 << b
    return k


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


def cost(circuit: QromCircuit) -> CostReport:
    """Sum per-gate costs; the T depth equals the Toffoli count.

    Each adder occupies the payload for its own Toffoli depth (the carry
    ripple) and Cliffords take zero T depth.  Every T-bearing gate (ADD,
    CADD) acts on the payload, so the adders serialize on it and no gate
    can run in a Toffoli layer beside one: greedy layering of the circuit
    gives exactly t // 4.  The qubit count is eta + b + allocated ancillas
    + the widest transient adder workspace.
    """
    t = cnot = clifford = max_workspace = 0
    for gate in circuit.gates:
        gt, gcnot, gcliff, workspace = gate.resources()
        t += gt
        cnot += gcnot
        clifford += gcliff + gcnot
        max_workspace = max(max_workspace, workspace)
    qubits = circuit.total_qubits + max_workspace
    return CostReport.assemble(t, cnot, clifford, qubits, t // 4)


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
    gates = _chain([(z, c) for z, c in items if z in remaining], b)
    # the lighter mask of each pair carries the sign (ties by value)
    oriented = [tuple(sorted(pair, key=lambda z: (z.bit_count(), z))) for pair in pairs]
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


#: Largest input width :func:`simulate_table` accepts; each of its working
#: arrays holds 2**eta int64 entries (128 MiB at this limit).
MAX_TABLE_ETA = 24


def simulate(circuit: QromCircuit, x: int, y: int) -> int:
    """Run the circuit on basis state |x>|y>|0...0> and return the payload.

    Every gate is a permutation composed with modular additions, so this is
    pure integer arithmetic, one gate at a time: the reference that
    :func:`simulate_table` is tested against.
    """
    eta, b = circuit.input_width, circuit.payload_width
    if not 0 <= x < (1 << eta):
        raise RangeError(f"x = {x} outside [0, 2**{eta})")
    if not 0 <= y < (1 << b):
        raise RangeError(f"y = {y} outside [0, 2**{b})")
    regs = [x, y, 0]
    for gate in circuit.gates:
        gate.step(regs, eta, b)
    if regs[2]:
        raise ToleranceError("ancillas not restored to |0> at circuit end")
    return regs[1]


def simulate_table(circuit: QromCircuit, y0: int = 0) -> np.ndarray:
    """Payload after the circuit at every input x, from payload y0.

    Returns the length-2**eta int64 array of final payload values;
    bit-identical to calling :func:`simulate` point by point, and raising
    the same errors.

    The gates are read once, on plain integers, never over the 2**eta
    addresses.  PFX z flips every payload bit when <x, z> = 1, i.e. maps
    y -> N(y) = -1 - y mod 2**b, and N(y + k) = N(y) - k; so the payload
    stays y = N^<x, s>(y0 + T(x)), where the sign mask s is the XOR of the
    PFX masks read so far and each adder adds +-k to T by the sign
    (-1)^<x, s>.  Ancillas are written only by X and by CNOTs from input or
    ancilla qubits (a :class:`QromCircuit` rule), so each holds a
    GF(2)-affine function <x, m> XOR c of the input, kept as the Python-int
    pair (m, c) for the ancillas written so far, whatever their count, and
    2 [<x, m> XOR c] = 1 - (-1)^c (-1)^<x, m> turns a controlled adder into
    two Walsh terms.  So 2T is a sparse Walsh sum, doubled to keep it
    integral, evaluated at every x by one butterfly in int64: that is
    2T mod 2**64 (the wraparound is exact ring arithmetic), and a shift
    right by one leaves T mod 2**63 in the low 63 bits, enough for b <= 63.
    An ancilla left as any affine function other than 0 is nonzero at some
    x, which raises :class:`ToleranceError` as :func:`simulate` does.  Cost
    O(gates + eta 2**eta).

    Limits, checked before any array is allocated (:class:`ScaleError`):
    b <= 63, so payloads fit int64, and eta <= :data:`MAX_TABLE_ETA`.
    """
    eta, b = circuit.input_width, circuit.payload_width
    if not 0 <= y0 < (1 << b):
        raise RangeError(f"y0 = {y0} outside [0, 2**{b})")
    if b > 63:
        raise ScaleError(f"payload width b = {b} exceeds 63, the int64 payload limit")
    if eta > MAX_TABLE_ETA:
        raise ScaleError(f"eta = {eta} exceeds the limit MAX_TABLE_ETA = {MAX_TABLE_ETA}")
    sign = 0
    spectrum: dict[int, int] = {}  # mask -> doubled Walsh coefficient of T
    ancillas: dict[int, tuple[int, int]] = {}  # qubit -> (mask, const); absent is 0

    def affine(q: int) -> tuple[int, int]:
        return (1 << q, 0) if q < eta else ancillas.get(q, (0, 0))

    for gate in circuit.gates:
        kind = type(gate)
        if kind is Pfx:
            sign ^= gate.mask
        elif kind is Adder:
            spectrum[sign] = spectrum.get(sign, 0) + 2 * gate.k
        elif kind is CAdder:
            mask, const = affine(gate.control)
            spectrum[sign] = spectrum.get(sign, 0) + gate.k
            flip = sign ^ mask
            spectrum[flip] = spectrum.get(flip, 0) + (gate.k if const else -gate.k)
        else:  # X or CNOT onto an ancilla
            mask, const = affine(gate.control) if kind is Cnot else (0, 1)
            old_mask, old_const = affine(gate.target)
            ancillas[gate.target] = (old_mask ^ mask, old_const ^ const)
    if any(mask or const for mask, const in ancillas.values()):
        raise ToleranceError("ancillas not restored to |0> at circuit end")
    return _payload(spectrum, sign, y0, eta, b)


def _payload(spectrum: dict, sign: int, y0: int, eta: int, b: int) -> np.ndarray:
    """N^<x, sign>(y0 + T(x)) mod 2**b at every x, from T's doubled spectrum."""
    doubled = np.zeros(1 << eta, dtype=np.int64)
    for mask, value in spectrum.items():
        # the residue mod 2**64 in int64 range
        doubled[mask] = (value + (1 << 63)) % (1 << 64) - (1 << 63)
    # 2T mod 2**64; shifting right by one leaves T mod 2**63 in the low bits
    t = _butterfly(doubled) >> 1
    # np.bitwise_count returns uint8: widen before scaling by 2**b - 1
    x = np.arange(1 << eta, dtype=np.int64)
    parity = (np.bitwise_count(x & sign) & 1).astype(np.int64)
    ones = (1 << b) - 1
    return ((t + y0) & ones) ^ (parity * ones)


# ---------------------------------------------------------------------------
# Wire format: one gate per line
# ---------------------------------------------------------------------------


def circuit_to_lines(circuit: QromCircuit) -> str:
    """Serialize to the line-oriented text format (one gate per line)."""
    header = (
        f"QROM {circuit.input_width} {circuit.payload_width} {circuit.ancilla_count}"
    )
    return "\n".join([header, *(g.text() for g in circuit.gates)]) + "\n"


def circuit_from_lines(text: str) -> QromCircuit:
    """Parse the line-oriented text format back into a validated circuit.

    A :class:`ParseError` names the offending line of ``text`` (1-based);
    when the same faulty line occurs more than once, the first occurrence.
    Each distinct line (after stripping) is parsed once per call and its
    gate reused for every repeat: gates are frozen, and an emitted circuit
    repeats a few kinds of line (CNOT, X, CADD) many times over.
    """
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("QROM "):
        raise ParseError("missing 'QROM <eta> <b> <ancillas>' header line")
    header_no, header = lines[0]
    try:
        _, eta_s, b_s, anc_s = header.split()
        eta, b, anc = int(eta_s), int(b_s), int(anc_s)
    except ValueError as exc:
        raise ParseError(f"bad header {header!r}") from exc
    parsed: dict = {}
    gates: list = []
    for lineno, line in lines[1:]:
        gate = parsed.get(line)
        if gate is None:
            op, *fields = line.split()
            kind = _GATE_KINDS.get(op)
            if kind is None:
                raise ParseError(f"line {lineno}: unknown opcode {op!r}")
            try:
                gate = parsed[line] = kind.parse(fields)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: cannot parse {line!r}") from exc
        gates.append(gate)
    try:
        return QromCircuit(input_width=eta, payload_width=b, ancilla_count=anc, gates=gates)
    except GateError as exc:
        raise ParseError(f"line {lines[exc.index + 1][0]}: {exc}") from exc
    except RangeError as exc:
        raise ParseError(f"line {header_no}: {exc}") from exc
