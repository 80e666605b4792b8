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

A circuit is one read-only int64 table, a row per gate (see the IR notes),
and every gate-level step is numpy over its columns; so every gate field and
register width must fit int64, which is checked before any column is built.

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
from collections.abc import Sequence
from dataclasses import dataclass, field

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
# Gate IR.  A circuit is an (n, 4) int64 table, one row per gate: its opcode
# and then its wire fields in order, zero-padded:
#   PFX mask width     ADD k width     CADD k width control
#   CNOT control target                X target
# Qubit layout: [0, eta) input register, [eta, eta+b) payload,
# [eta+b, eta+b+ancilla_count) ancillas.  Indices in CNOT/X/CADD are global;
# PFX/ADD act on the payload implicitly, and they are the only gates that
# write it.  CNOT/X write only ancillas, and no control is a payload qubit.
#
# The gate classes are row records: they build circuits gate by gate and
# read a circuit back by index.  _check_row holds what a gate can break alone
# (a field outside int64, a zero PFX mask, an adder constant past its width),
# for records and parsed lines alike; QromCircuit checks the rules between a
# gate and the circuit over the whole table at once.
# ---------------------------------------------------------------------------

PFX, ADD, CADD, CNOT, X = range(5)
_OPS = ("PFX", "ADD", "CADD", "CNOT", "X")
_OPCODES = {name: op for op, name in enumerate(_OPS)}
_BASES = ((16, 10), (10, 10), (10, 10, 10), (10, 10), (10,))  # of each wire field
_FORMATS = ("PFX {:#x} {}", "ADD {} {}", "CADD {} {} {}", "CNOT {} {}", "X {}")


def _check_row(row: tuple) -> tuple:
    """The row, once it is checked for the faults a gate has on its own."""
    op, value, width, _ = row
    if min(row) < -(1 << 63) or max(row) >= 1 << 63:
        raise RangeError(f"{_OPS[op]} field {max(row, key=abs)} does not fit int64")
    if op == PFX and not value:
        raise RangeError("PFX mask must be nonzero (z = 0 folds into an adder)")
    if (op == ADD or op == CADD) and width < 64 and not -(1 << width) < value < 1 << width:
        raise RangeError(f"|k| = {abs(value)} must be < 2**{width}")
    return row


def _parse_row(op: int, fields: Sequence[str]) -> tuple:
    """The checked row of one gate from its wire fields."""
    if len(fields) != len(_BASES[op]):
        raise ValueError(f"{_OPS[op]} takes {len(_BASES[op])} fields")
    return _check_row((op, *map(int, fields, _BASES[op]), 0, 0)[:4])


def _record(row: Sequence[int]) -> "_Gate":
    return _KINDS[row[0]](*row[1 : 1 + len(_BASES[row[0]])])


def _format(row: Sequence[int]) -> str:
    return _FORMATS[row[0]].format(*row[1:])


class _Gate:
    def __post_init__(self):
        _check_row(self.row)

    @property
    def row(self) -> tuple:
        return (self.op, *(getattr(self, name) for name in self.__dataclass_fields__), 0, 0)[:4]


@dataclass(frozen=True)
class Pfx(_Gate):
    """Parity-controlled fanout-X: flips all b payload bits when <x,z> = 1."""

    op = PFX
    mask: int
    width: int


@dataclass(frozen=True)
class Adder(_Gate):
    """y -> y + k mod 2**width on the payload register."""

    op = ADD
    k: int
    width: int


@dataclass(frozen=True)
class CAdder(_Gate):
    """Adder controlled on one global qubit index."""

    op = CADD
    k: int
    width: int
    control: int


@dataclass(frozen=True)
class Cnot(_Gate):
    op = CNOT
    control: int
    target: int


@dataclass(frozen=True)
class XGate(_Gate):
    op = X
    target: int


_KINDS = (Pfx, Adder, CAdder, Cnot, XGate)


class _Gates(Sequence):
    """A circuit's gates as records, made from its table on demand."""

    def __init__(self, table: np.ndarray):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, i):
        rows = self._table[i].tolist()
        return tuple(map(_record, rows)) if isinstance(i, slice) else _record(rows)

    def __iter__(self):
        return map(_record, self._table.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


class GateError(ShapeError):
    """A gate breaks a circuit rule; ``index`` is its position in the circuit."""

    def __init__(self, index: int, message: str):
        super().__init__(f"gate {index}: {message}")
        self.index = index


@dataclass(frozen=True, eq=False)
class QromCircuit:
    """Immutable, validated gate table over input/payload/ancilla registers.

    ``gates`` is given as gate records or an (n, 4) int64 table (see the IR
    notes) and reads back as records made on demand; ``table`` is read-only.
    Circuits are equal when their register widths and tables are.

    Rules, checked at construction (:class:`GateError` names the first gate
    that breaks one; a register width that is negative or does not fit int64
    raises :class:`RangeError`): every gate width equals the payload
    width b; PFX masks are < 2**eta; every qubit index lies in [0,
    total_qubits); CNOT and X targets are ancilla qubits, in [eta + b,
    total_qubits), so only PFX and the adders write the payload and the
    input register is read-only; no CNOT or CADD control is a payload qubit;
    a CNOT's control differs from its target; no two PFX gates are adjacent
    (they compose by XOR of masks and are merged at synthesis).
    """

    input_width: int
    payload_width: int
    ancilla_count: int = 0
    gates: Sequence = ()
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        widths = eta, b, anc = self.input_width, self.payload_width, self.ancilla_count
        if min(widths) < 0:
            raise RangeError(f"register widths must be nonnegative, got {widths}")
        if max(widths) >= 1 << 63:
            raise RangeError(f"register widths must be < 2**63, got {widths}")
        rows = self.gates if isinstance(self.gates, np.ndarray) else [g.row for g in self.gates]
        if isinstance(rows, np.ndarray) and rows.dtype != np.int64:
            raise RangeError(f"a gate table must be int64, got {rows.dtype}")
        table = np.array(rows, dtype=np.int64).reshape(-1, 4)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "gates", _Gates(table))
        _validate(table, eta, b, self.total_qubits)

    @property
    def total_qubits(self) -> int:
        return self.input_width + self.payload_width + self.ancilla_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, QromCircuit):
            return NotImplemented
        widths = (self.input_width, self.payload_width, self.ancilla_count)
        other_widths = (other.input_width, other.payload_width, other.ancilla_count)
        return widths == other_widths and np.array_equal(self.table, other.table)


def _validate(table: np.ndarray, eta: int, b: int, total: int) -> None:
    """Raise GateError for the first row that breaks a rule (each kind's in check order)."""
    op, f1, f2, f3 = table.T
    pfx, cnot, controlled = op == PFX, op == CNOT, (op == CADD) | (op == CNOT)
    adder = (op == ADD) | (op == CADD)
    control, target, first = np.where(op == CADD, f3, f1), np.where(cnot, f2, f1), eta + b
    adjacent = np.zeros_like(pfx)
    adjacent[1:] = pfx[1:] & pfx[:-1]
    rules = (  # the first two are record rules, which only a table given whole can break
        (pfx & (f1 == 0), "mask must be nonzero"),
        (adder & (f2 < 64) & (np.abs(f1) >> np.clip(f2, 0, 63) != 0), "|k| must be < 2**{width}"),
        (pfx & (f1 >> min(eta, 63) != 0), "mask must be < 2**{eta}"),
        (cnot & (f1 == f2), "control equals target"),
        (controlled & (control >= eta) & (control < first), "control is a payload qubit"),
        (controlled & ((control < 0) | (control >= total)), "qubit {control} outside [0, {total})"),
        ((op <= CADD) & (f2 != b), "width {width} differs from the payload width {b}"),
        ((op >= CNOT) & ((target < first) | (target >= total)),
         "qubit {target} outside [{first}, {total})"),
        (adjacent, "adjacent PFX gates must be merged by mask XOR"),
    )
    bad = np.logical_or.reduce([broken for broken, _ in rules])
    if bad.any():
        i = int(np.argmax(bad))
        fault = next(message for broken, message in rules if broken[i]).format(
            eta=eta, b=b, first=first, total=total, control=control[i], width=f2[i],
            target=target[i],
        )
        raise GateError(i, f"{_format(table[i].tolist())}: {fault}")


def _exact_sum(values: np.ndarray) -> int:
    """Exact sum of nonnegative int64 entries (fewer than 2**31), by 32-bit halves."""
    return (int(np.sum(values >> 32)) << 32) + int(np.sum(values & 0xFFFFFFFF))


def _lsb(k: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each nonzero k, the same as of |k|."""
    return np.bitwise_count((k & -k) - 1).astype(np.int64)


def _centered(k: np.ndarray, b: int) -> np.ndarray:
    """Reduce k mod 2**b into [-2**(b-1), 2**(b-1)), for b <= 63.

    Exact even where k + 2**(b-1) wraps int64: 2**64 is a multiple of 2**b.
    """
    half = 1 << (b - 1)
    return ((k + half) & ((1 << b) - 1)) - half


def _gray_rank(z: np.ndarray) -> np.ndarray:
    """Index m with m ^ (m >> 1) = z (inverse binary-reflected Gray code)."""
    m = z.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        m ^= m >> shift
    return m


def _support(spec: TruncatedSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Retained masks and centered coefficients, in truncation order, zeros mod 2**b dropped."""
    z = spec.order[: spec.k]
    c = _centered(spec.base.coeffs[z], spec.base.b)
    return z[c != 0], c[c != 0]


def _chain(z: np.ndarray, c: np.ndarray, b: int) -> np.ndarray:
    """PFX/ADD rows adding c (-1)^<x,z> per (z, c), in the given order.

    Consecutive sandwiches share one PFX of the XOR of their masks.
    """
    table = np.zeros((2 * len(z) + 1, 4), dtype=np.int64)
    table[1::2, 0] = ADD
    table[1::2, 1] = c
    padded = np.zeros(len(z) + 2, dtype=np.int64)
    padded[1:-1] = z
    table[0::2, 1] = padded[1:] ^ padded[:-1]
    table[:, 2] = b
    return table[(table[:, 0] != PFX) | (table[:, 1] != 0)]


def _pfx_cnots(table: np.ndarray) -> int:
    mask, width = table[table[:, 0] == PFX, 1:3].T
    return 2 * (int(np.sum(np.bitwise_count(mask))) - len(mask)) + _exact_sum(width)


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
    b = spec.base.b
    z, c = _support(spec)
    table = _chain(z, c, b)
    if ordering is Ordering.GRAY_CODE:
        rank = np.argsort(_gray_rank(z))
        gray = _chain(z[rank], c[rank], b)
        if _pfx_cnots(gray) <= _pfx_cnots(table):
            table = gray
    return QromCircuit(input_width=spec.eta, payload_width=b, gates=table)


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
        for name, value in vars(self).items():
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
    table = circuit.table
    op = table[:, 0]
    adders = table[(op == ADD) | (op == CADD)]
    k, width, controls = adders[:, 1], adders[:, 2], adders[:, 0] == CADD
    workspace = np.where(k != 0, np.maximum(width - 2 + controls - _lsb(k), 0), 0)
    t = 4 * _exact_sum(workspace)
    cnot = _pfx_cnots(table) + int(np.count_nonzero(op == CNOT))
    clifford = cnot + int(np.count_nonzero(op == X))
    qubits = circuit.total_qubits + int(workspace.max(initial=0))
    return CostReport.assemble(t, cnot, clifford, qubits, t // 4)


# ---------------------------------------------------------------------------
# Pair cancellation
# ---------------------------------------------------------------------------


def _pair_heads(keys: np.ndarray) -> np.ndarray:
    """Heads i of the pairs (i, i + 1) formed front to back in runs of equal sorted keys."""
    same = keys[1:] == keys[:-1]
    run_start = np.flatnonzero(np.concatenate(([True], ~same)))
    rank = np.arange(len(keys)) - np.repeat(run_start, np.diff(run_start, append=len(keys)))
    return np.flatnonzero((rank[:-1] % 2 == 0) & same)


def _put(rows: np.ndarray, at, *fields) -> None:
    for column, value in enumerate(fields):
        rows[at, column] = value


def _merge_pfx(rows: np.ndarray) -> np.ndarray:
    """Merge each run of adjacent PFX rows into one PFX of their masks' XOR, or none."""
    pfx = np.flatnonzero(rows[:, 0] == PFX)
    head = np.diff(pfx, prepend=-2) != 1
    merged = np.bitwise_xor.reduceat(rows[pfx, 1], np.flatnonzero(head))
    rows[pfx[head], 1] = merged
    keep = np.ones(len(rows), dtype=bool)
    keep[pfx] = False
    keep[pfx[head][merged != 0]] = True
    return rows[keep]


def pair_cancel(circuit: QromCircuit, spec: TruncatedSpectrum) -> QromCircuit:
    """Fuse +/- and equal-lsb coefficient pairs into controlled adders.

    A pair with WH(f)(z1) = +/- WH(f)(z2) costs one controlled adder of the
    doubled constant instead of two plain adders, saving exactly the cost of
    one A_b(k).  Pairs whose coefficients merely share a least significant
    bit still save >= 4 T gates through the sum/difference constants.  The
    result is simulate()-identical to the input; if no pairing lowers both
    the T and CNOT counts the input circuit is returned unchanged.

    Pairs form front to back among equal magnitudes (by magnitude, in
    truncation order), then among equal lsbs (by lsb, by mask).  Each pair's
    block computes p = <x, zs ^ zo> on the ancilla, adds cs + co if p = 0 and
    cs - co if p = 1, inside PFX_zs for the sign (zs the lighter mask, ties
    by value); blocks follow the unpaired chain in Gray rank of zs.
    """
    eta, b = spec.eta, spec.base.b
    z, c = _support(spec)
    if len(z) < 2:
        return circuit
    by_mag = np.argsort(np.abs(c), kind="stable")
    heads = _pair_heads(np.abs(c)[by_mag])
    first, second = by_mag[heads], by_mag[heads + 1]
    rest = np.setdiff1d(np.arange(len(z)), np.concatenate((first, second)))
    lsb = _lsb(c[rest])
    by_lsb = np.lexsort((z[rest], lsb))
    heads = _pair_heads(lsb[by_lsb])
    by_lsb = rest[by_lsb]
    first = np.concatenate((first, by_lsb[heads]))
    second = np.concatenate((second, by_lsb[heads + 1]))
    if not len(first):
        return circuit
    unpaired = np.setdiff1d(rest, np.concatenate((first, second)))
    chain = _chain(z[unpaired], c[unpaired], b)
    w1, w2 = np.bitwise_count(z[first]), np.bitwise_count(z[second])
    swap = (w1 > w2) | ((w1 == w2) & (z[first] > z[second]))
    sign, other = np.where(swap, second, first), np.where(swap, first, second)
    by_rank = np.argsort(_gray_rank(z[sign]))
    sign, other = sign[by_rank], other[by_rank]
    zs, cs, co = z[sign], c[sign], c[other]
    plus, minus = _centered(cs + co, b), _centered(cs - co, b)
    parity = np.bitwise_count(zs ^ z[other]).astype(np.int64)
    on_plus, on_minus = plus != 0, minus != 0
    size = 2 + 2 * parity + 3 * on_plus + on_minus
    start = len(chain) + np.cumsum(size) - size
    rows = np.zeros((len(chain) + int(size.sum()), 4), dtype=np.int64)
    rows[: len(chain)] = chain
    anc = eta + b
    # PFX_zs, parity CNOTs, [X, CADD plus, X], [CADD minus], CNOTs reversed,
    # PFX_zs; a zero zs leaves zero-mask PFX rows, which the merge drops
    _put(rows, start, PFX, zs, b)
    _put(rows, start + size - 1, PFX, zs, b)
    middle = start + 1 + parity
    block, bit = np.nonzero((zs ^ z[other])[:, None] >> np.arange(eta) & 1)
    t = np.arange(len(block)) - (np.cumsum(parity) - parity)[block]
    _put(rows, start[block] + 1 + t, CNOT, bit, anc)
    tail = middle + 3 * on_plus + on_minus
    _put(rows, tail[block] + parity[block] - 1 - t, CNOT, bit, anc)
    _put(rows, middle[on_plus], X, anc)
    _put(rows, middle[on_plus] + 1, CADD, plus[on_plus], b, anc)
    _put(rows, middle[on_plus] + 2, X, anc)
    _put(rows, (middle + 3 * on_plus)[on_minus], CADD, minus[on_minus], b, anc)
    candidate = QromCircuit(eta, b, ancilla_count=1, gates=_merge_pfx(rows))
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
    ones, ancillas = (1 << b) - 1, 0

    def bit(q: int) -> int:
        return x >> q & 1 if q < eta else ancillas >> (q - eta - b) & 1

    for op, f1, f2, f3 in circuit.table.tolist():
        if op == PFX:
            y ^= ones * ((x & f1).bit_count() & 1)
        elif op == ADD or op == CADD and bit(f3):
            y = (y + f1) & ones
        elif op == CNOT and bit(f1):
            ancillas ^= 1 << (f2 - eta - b)
        elif op == X:
            ancillas ^= 1 << (f1 - eta - b)
    if ancillas:
        raise ToleranceError("ancillas not restored to |0> at circuit end")
    return y


def simulate_table(circuit: QromCircuit, y0: int = 0) -> np.ndarray:
    """Payload after the circuit at every input x, from payload y0.

    Returns the length-2**eta int64 array of final payload values;
    bit-identical to calling :func:`simulate` point by point, and raising
    the same errors.

    The table is folded into one Walsh spectrum, never stepped over the
    2**eta addresses.  PFX z maps y -> N(y) = -1 - y mod 2**b when <x, z> = 1,
    and N(y + k) = N(y) - k; so the payload is N^<x, s>(y0 + T(x)), where the
    sign mask s at a gate is the XOR of the PFX masks before it and each
    adder adds +-k to T by the sign (-1)^<x, s>.  Ancillas are written only
    by X and by CNOTs from input or ancilla qubits (a :class:`QromCircuit`
    rule), so each holds a GF(2)-affine function <x, m> XOR c, packed 2m + c:
    the XOR of what its writes so far carried in, a prefix XOR over the
    writes sorted by (ancilla, gate).  The few writes that carry another
    ancilla's function are resolved in gate order first.  2 [<x, m> XOR c] =
    1 - (-1)^c (-1)^<x, m> makes a controlled adder two Walsh terms, so 2T
    is a sparse Walsh sum, added up in int64 and evaluated at every x by one
    butterfly: 2T mod 2**64 (exact ring arithmetic), so a shift right by one
    leaves T mod 2**63, enough for b <= 63.  An ancilla left as any affine
    function other than 0 is nonzero at some x: :class:`ToleranceError`, as
    in :func:`simulate`.  Cost O(gates log gates + eta 2**eta).

    Limits, checked before any array is allocated (:class:`ScaleError`):
    b <= 63, so payloads fit int64, and eta <= :data:`MAX_TABLE_ETA`.
    """
    eta, b = circuit.input_width, circuit.payload_width
    if y0 < 0 or y0 >> b:
        raise RangeError(f"y0 = {y0} outside [0, 2**{b})")
    if b > 63:
        raise ScaleError(f"payload width b = {b} exceeds 63, the int64 payload limit")
    if eta > MAX_TABLE_ETA:
        raise ScaleError(f"eta = {eta} exceeds the limit MAX_TABLE_ETA = {MAX_TABLE_ETA}")
    op, f1, f2, f3 = circuit.table.T
    n = len(op)
    sign = np.bitwise_xor.accumulate(np.where(op == PFX, f1, 0))
    control = np.where(op == CADD, f3, f1)
    # packed function of each input control; ancilla controls are filled in below
    function = np.where(control < eta, 2 << np.clip(control, 0, eta), 0)
    writes = np.flatnonzero(op >= CNOT)
    reads = np.flatnonzero(((op == CADD) | (op == CNOT)) & (control >= eta))
    targets = np.where(op == CNOT, f2, f1)[writes]
    _, slot = np.unique(np.concatenate((targets, control[reads])), return_inverse=True)
    write_slot, read_slot = slot[: len(writes)], slot[len(writes) :]
    order = np.argsort(write_slot, kind="stable")
    keys = np.append((write_slot * n + writes)[order], -1)
    starts = np.flatnonzero(np.diff(write_slot[order], prepend=-1))
    runs = np.diff(starts, append=len(writes))
    # the last write to each read's ancilla before it, or -1 (reads 0)
    last = np.searchsorted(keys[:-1], read_slot * n + reads) - 1
    last[keys[last] // n != read_slot] = -1
    flips = np.where(op[writes] == X, 1, function[writes])

    def fold() -> np.ndarray:
        """Each ancilla's function after each of its writes, in key order; then 0."""
        carried = flips[order]
        after = np.bitwise_xor.accumulate(carried)
        after ^= np.repeat((after ^ carried)[starts], runs)
        return np.append(after, 0)

    after = fold()
    pending = np.flatnonzero(op[reads] == CNOT)
    resolved: dict = {}  # slot -> XOR of the resolved functions written to it
    for p, w in zip(pending.tolist(), np.searchsorted(writes, reads[pending]).tolist()):
        flips[w] = int(after[last[p]]) ^ resolved.get(int(read_slot[p]), 0)
        target = int(write_slot[w])
        resolved[target] = resolved.get(target, 0) ^ int(flips[w])
    after = fold()
    if np.any(after[starts + runs - 1]):
        raise ToleranceError("ancillas not restored to |0> at circuit end")
    function[reads] = after[last]

    adder, cadd = (op == ADD) | (op == CADD), op == CADD
    doubled = np.zeros(1 << eta, dtype=np.int64)
    np.add.at(doubled, sign[adder], np.where(cadd, f1, 2 * f1)[adder])
    np.add.at(doubled, (sign ^ function >> 1)[cadd], np.where(function & 1, f1, -f1)[cadd])
    # 2T mod 2**64; shifting right by one leaves T mod 2**63 in the low bits
    t = _butterfly(doubled) >> 1
    # np.bitwise_count returns uint8: widen before scaling by 2**b - 1
    x = np.arange(1 << eta, dtype=np.int64)
    parity = (np.bitwise_count(x & (int(sign[-1]) if n else 0)) & 1).astype(np.int64)
    ones = (1 << b) - 1
    return ((t + y0) & ones) ^ (parity * ones)


# ---------------------------------------------------------------------------
# Wire format: one gate per line
# ---------------------------------------------------------------------------


def circuit_to_lines(circuit: QromCircuit) -> str:
    """Serialize to the line-oriented text format (one gate per line).

    Each distinct row is formatted once and its text reused for every
    repeat: an emitted circuit repeats a few kinds of line many times over.
    """
    header = f"QROM {circuit.input_width} {circuit.payload_width} {circuit.ancilla_count}"
    table = circuit.table
    order = np.lexsort(table.T[::-1])
    ranked = table[order]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    distinct = np.empty(len(ranked), dtype=np.intp)
    distinct[order] = np.cumsum(new) - 1
    texts = [_format(row) for row in ranked[new].tolist()]
    return "\n".join([header, *map(texts.__getitem__, distinct.tolist())]) + "\n"


def circuit_from_lines(text: str) -> QromCircuit:
    """Parse the line-oriented text format back into a validated circuit.

    A :class:`ParseError` names the offending line of ``text`` (1-based);
    when the same faulty line occurs more than once, the first occurrence.
    Each distinct line is parsed once into a table row, and the table is one
    fancy index of those rows.  A field that does not fit int64 is an error.
    """
    lines = text.splitlines()
    h = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    header = lines[h].strip() if h < len(lines) else ""
    if not header.startswith("QROM "):
        raise ParseError("missing 'QROM <eta> <b> <ancillas>' header line")
    try:
        _, eta_s, b_s, anc_s = header.split()
        eta, b, anc = int(eta_s), int(b_s), int(anc_s)
    except ValueError as exc:
        raise ParseError(f"bad header {header!r}") from exc
    body = lines[h + 1 :]
    ids = dict.fromkeys(body)  # each distinct line, in order of first occurrence
    rows: list = []
    for line in ids:
        name, *fields = line.split() or [None]
        ids[line] = len(rows) if name else -1
        if name is None:
            continue
        op = _OPCODES.get(name)
        if op is None:
            raise ParseError(f"line {body.index(line) + h + 2}: unknown opcode {name!r}")
        try:
            rows.append(_parse_row(op, fields))
        except ValueError as exc:
            lineno = body.index(line) + h + 2
            raise ParseError(f"line {lineno}: cannot parse {line.strip()!r}") from exc
    index = np.fromiter(map(ids.__getitem__, body), dtype=np.intp, count=len(body))
    gate_lines = np.flatnonzero(index >= 0)
    table = np.array(rows, dtype=np.int64).reshape(-1, 4)[index[gate_lines]]
    try:
        return QromCircuit(input_width=eta, payload_width=b, ancilla_count=anc, gates=table)
    except GateError as exc:
        raise ParseError(f"line {gate_lines[exc.index] + h + 2}: {exc}") from exc
    except RangeError as exc:
        raise ParseError(f"line {h + 1}: {exc}") from exc
