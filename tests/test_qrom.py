import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whqrom import qrom
from whqrom.blockenc import exact_table_qrom
from whqrom.errors import ParseError, RangeError, ScaleError, ShapeError, ToleranceError
from whqrom.qrom import (
    MAX_TABLE_ETA,
    Adder,
    CAdder,
    Cnot,
    CostReport,
    Ordering,
    Pfx,
    QromCircuit,
    XGate,
    circuit_from_lines,
    circuit_to_lines,
    cost,
    pair_cancel,
    simulate,
    simulate_table,
    synthesize,
)
from whqrom.wht import (
    SampledFunction,
    TruncatedSpectrum,
    WalshSpectrum,
    minimal_truncation,
    quantize,
    wht_forward,
)


def random_function(rng, eta, d):
    half = 1 << (d - 1)
    values = rng.integers(-half, half, size=1 << eta, dtype=np.int64)
    return SampledFunction(eta=eta, d=d, values=values)


def full_truncation(f):
    return minimal_truncation(f, epsilon=1e-300)


def expected_table(trunc, y0, b):
    return (y0 + trunc.reconstruction_numerators()) % (1 << b)


class TestSynthesize:
    def test_dc_only_support_is_plain_adder(self):
        f = SampledFunction(eta=3, d=5, values=np.full(8, 6))
        circ = synthesize(full_truncation(f))
        assert len(circ.gates) == 1
        assert isinstance(circ.gates[0], Adder)
        assert circ.gates[0].k == 6 << 3

    def test_single_mask_sandwich(self):
        eta, d, z1, c = 4, 6, 0b1010, 5
        x = np.arange(1 << eta, dtype=np.uint64)
        ch = 1 - 2 * (np.bitwise_count(x & np.uint64(z1)) & 1).astype(np.int64)
        f = SampledFunction(eta=eta, d=d, values=c * ch)
        circ = synthesize(full_truncation(f))
        assert [type(g) for g in circ.gates] == [Pfx, Adder, Pfx]
        assert circ.gates[0].mask == z1 and circ.gates[2].mask == z1
        assert circ.gates[1].k == c << eta

    def test_gray_ordering_merges_inner_pfx(self):
        # support {001, 011, 010}: gray order 001, 011, 010 gives inner
        # XOR masks 010 and 001
        eta, d = 3, 8
        base = wht_forward(SampledFunction(eta=eta, d=d, values=np.zeros(8, dtype=np.int64)))
        coeffs = np.zeros(8, dtype=np.int64)
        coeffs[0b001] = 48
        coeffs[0b011] = 32
        coeffs[0b010] = 16
        base = type(base)(eta=eta, b=eta + d, coeffs=coeffs)
        order = (0b001, 0b011, 0b010) + tuple(z for z in range(8) if z not in (1, 2, 3))
        spec = TruncatedSpectrum(base=base, k=3, order=order)
        circ = synthesize(spec, Ordering.GRAY_CODE)
        masks = [g.mask for g in circ.gates if isinstance(g, Pfx)]
        assert masks == [0b001, 0b010, 0b001, 0b010]
        other = synthesize(spec, Ordering.MAGNITUDE_DESCENDING)
        assert np.array_equal(simulate_table(circ), simulate_table(other))

    def test_empty_support_identity(self):
        f = SampledFunction(eta=3, d=4, values=np.zeros(8, dtype=np.int64))
        circ = synthesize(full_truncation(f))
        assert circ.gates == ()
        assert simulate(circ, 5, 9) == 9

    def test_no_adjacent_pfx_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_function(rng, int(rng.integers(1, 7)), 6)
            circ = synthesize(full_truncation(f), Ordering.GRAY_CODE)
            for g1, g2 in zip(circ.gates, circ.gates[1:]):
                assert not (isinstance(g1, Pfx) and isinstance(g2, Pfx))


class TestSimulate:
    def test_constant_function(self):
        eta, d, c = 4, 6, -9
        f = SampledFunction(eta=eta, d=d, values=np.full(1 << eta, c))
        circ = synthesize(full_truncation(f))
        b = eta + d
        for x in (0, 3, 15):
            assert simulate(circ, x, 7) == (7 + (c << eta)) % (1 << b)

    def test_matches_spectral_reconstruction(self):
        rng = np.random.default_rng(17)
        eta, d = 8, 6
        f = random_function(rng, eta, d)
        trunc = minimal_truncation(f, epsilon=2.0**-4)
        circ = synthesize(trunc)
        table = simulate_table(circ, y0=0)
        assert np.array_equal(table, expected_table(trunc, 0, eta + d))

    def test_scalar_and_table_agree(self):
        rng = np.random.default_rng(19)
        f = random_function(rng, 5, 5)
        trunc = minimal_truncation(f, epsilon=0.05)
        circ = synthesize(trunc)
        y0 = 13
        table = simulate_table(circ, y0=y0)
        for x in range(1 << 5):
            assert simulate(circ, x, y0) == table[x]

    def test_range_validation(self):
        circ = QromCircuit(input_width=2, payload_width=4)
        with pytest.raises(RangeError):
            simulate(circ, 4, 0)
        with pytest.raises(RangeError):
            simulate(circ, 0, 16)
        with pytest.raises(RangeError):
            simulate_table(circ, 16)

    def test_table_scale_guards(self, monkeypatch):
        wide = circuit_from_lines("QROM 2 64 0\nADD 5 64\n")
        assert simulate(wide, 1, 0) == 5
        with pytest.raises(ScaleError, match="int64 payload limit"):
            simulate_table(wide, 0)
        many = QromCircuit(1, 2, 64, (XGate(66), XGate(66)))
        assert np.array_equal(simulate_table(many, 3), [3, 3])
        # ancillas past the 63 bits of an int64 register, written and restored
        eta, b, count = 3, 5, 70
        first = eta + b
        writes = [Cnot(j % eta, first + j) for j in range(count)]
        writes += [Cnot(first + 64, first + 2), XGate(first + 69)]
        adds = [CAdder(3, b, first + 69), CAdder(-7, b, first + 64), CAdder(5, b, first + 2)]
        wide_anc = QromCircuit(eta, b, count, tuple(writes + adds + writes[::-1]))
        table = simulate_table(wide_anc, 9)
        assert [simulate(wide_anc, x, 9) for x in range(1 << eta)] == table.tolist()
        assert len(set(table.tolist())) > 1
        # only written ancillas are tracked, so a huge declared count costs nothing
        sparse = circuit_from_lines(f"QROM 2 3 {1 << 62}\nCNOT 0 6\nCADD 3 3 6\nCNOT 0 6\n")
        assert simulate_table(sparse, 1).tolist() == [simulate(sparse, x, 1) for x in range(4)]
        huge = circuit_from_lines(f"QROM {MAX_TABLE_ETA + 1} 4 0\nADD 1 4\n")
        # with numpy unusable, only a guard raised before any allocation passes
        monkeypatch.setattr(qrom, "np", None)
        with pytest.raises(ScaleError, match="MAX_TABLE_ETA"):
            simulate_table(huge, 0)

    def test_functional_correctness_random_pipeline(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            eta = int(rng.integers(2, 9))
            d = int(rng.integers(2, 9))
            theta = rng.uniform(-1, 1, size=1 << eta)
            f = quantize(theta, d)
            eps = float(2.0 ** -rng.integers(3, 8))
            trunc = minimal_truncation(f, eps)
            circ = synthesize(trunc)
            b = eta + d
            y0 = int(rng.integers(0, 1 << b))
            assert np.array_equal(
                simulate_table(circ, y0), expected_table(trunc, y0, b)
            )
            assert trunc.error(f) < eps


class TestCommutation:
    def test_block_permutation_preserves_action(self):
        rng = np.random.default_rng(29)
        f = random_function(rng, 5, 5)
        trunc = full_truncation(f)
        base = synthesize(trunc, Ordering.MAGNITUDE_DESCENDING)
        permuted_order = list(trunc.order)
        rng.shuffle(permuted_order)
        # rebuild a spectrum whose truncation order visits blocks differently
        spec2 = TruncatedSpectrum(base=trunc.base, k=trunc.k, order=tuple(permuted_order))
        shuffled = synthesize(spec2, Ordering.MAGNITUDE_DESCENDING)
        assert np.array_equal(simulate_table(base), simulate_table(shuffled))

    def test_pfx_composition_xor(self):
        b = 6
        one = QromCircuit(
            input_width=4,
            payload_width=b,
            gates=(Pfx(0b1010, b), Adder(0, b), Pfx(0b0110, b)),
        )
        merged = QromCircuit(input_width=4, payload_width=b, gates=(Pfx(0b1100, b),))
        got = simulate_table(one)
        want = simulate_table(merged)
        assert np.array_equal(got, want)


class TestCost:
    def test_adder_even_constant(self):
        assert cost(
            QromCircuit(input_width=0, payload_width=8, gates=(Adder(4, 8),))
        ).t_count == 16

    def test_adder_odd_constant(self):
        assert cost(
            QromCircuit(input_width=0, payload_width=8, gates=(Adder(7, 8),))
        ).t_count == 24

    def test_controlled_adder(self):
        circ = QromCircuit(
            input_width=1, payload_width=8, ancilla_count=1, gates=(CAdder(4, 8, 9),)
        )
        assert cost(circ).t_count == 4 * (8 - 1 - 2)

    def test_pfx_cnot_formula(self):
        for mask, b in ((0b1, 5), (0b111, 9), (0b10110, 12)):
            circ = QromCircuit(input_width=5, payload_width=b, gates=(Pfx(mask, b),))
            assert cost(circ).cnot_count == 2 * (bin(mask).count("1") - 1) + b

    def test_full_circuit_independent_tally(self):
        rng = np.random.default_rng(31)
        f = random_function(rng, 6, 6)
        circ = synthesize(full_truncation(f))
        report = cost(circ)
        t = cnot = 0
        for g in circ.gates:
            if isinstance(g, Adder):
                k = abs(g.k)
                lsb = (k & -k).bit_length() - 1 if k else 0
                t += 4 * max(0, g.width - 2 - lsb) if k else 0
            elif isinstance(g, Pfx):
                cnot += 2 * (bin(g.mask).count("1") - 1) + g.width
        assert report.t_count == t
        assert report.cnot_count == cnot
        assert report.toffoli_count * 4 == report.t_count
        assert report.quantum_volume == report.t_count * report.qubit_count

    def test_qubit_count_includes_adder_workspace(self):
        b = 10
        circ = QromCircuit(input_width=3, payload_width=b, gates=(Adder(3, b),))
        assert cost(circ).qubit_count == 3 + b + (b - 2)

    def test_top_bit_adder_clamps_to_zero_cost(self):
        # |k| = 2**(b-1) is a bare top-bit flip; the cost formula clamps at 0
        b = 6
        circ = QromCircuit(input_width=0, payload_width=b, gates=(Adder(-(1 << (b - 1)), b),))
        report = cost(circ)
        assert report.t_count == 0
        assert simulate(circ, 0, 5) == (5 + (1 << (b - 1))) % (1 << b)

    def test_json_field_names(self):
        report = cost(QromCircuit(input_width=1, payload_width=4, gates=(Adder(1, 4),)))
        data = report.to_json_dict()
        assert set(data) == {
            "tCount",
            "toffoliCount",
            "cnotCount",
            "cliffordCount",
            "qubitCount",
            "tDepth",
            "quantumVolume",
        }

    def test_invariant_validation(self):
        with pytest.raises(RangeError):
            CostReport(
                t_count=4,
                toffoli_count=1,
                cnot_count=0,
                clifford_count=0,
                qubit_count=2,
                t_depth=1,
                quantum_volume=9,
            )


def character_function(eta, d, terms):
    x = np.arange(1 << eta, dtype=np.uint64)
    values = np.zeros(1 << eta, dtype=np.int64)
    for z, m in terms:
        values += m * (1 - 2 * (np.bitwise_count(x & np.uint64(z)) & 1).astype(np.int64))
    return SampledFunction(eta=eta, d=d, values=values)


class TestPairCancel:
    def test_plus_pair_saves_one_adder(self):
        # the WH coefficient of m*(-1)^<x,z> is m << eta; the fused pair
        # saves exactly the cost of one adder of that coefficient
        eta, d, m = 5, 6, 3
        f = character_function(eta, d, [(0b00110, m), (0b11000, m)])
        trunc = full_truncation(f)
        circ = synthesize(trunc)
        optimized = pair_cancel(circ, trunc)
        b = eta + d
        coeff = m << eta
        lsb = (coeff & -coeff).bit_length() - 1
        saving = 4 * (b - 2 - lsb)
        assert cost(circ).t_count - cost(optimized).t_count == saving
        assert np.array_equal(simulate_table(circ, 3), simulate_table(optimized, 3))

    def test_minus_pair_saves_one_adder(self):
        eta, d, m = 5, 6, 6
        f = character_function(eta, d, [(0b00011, m), (0b10001, -m)])
        trunc = full_truncation(f)
        circ = synthesize(trunc)
        optimized = pair_cancel(circ, trunc)
        b = eta + d
        coeff = m << eta
        lsb = (coeff & -coeff).bit_length() - 1
        assert cost(circ).t_count - cost(optimized).t_count == 4 * (b - 2 - lsb)
        assert np.array_equal(simulate_table(circ), simulate_table(optimized))

    def test_no_pairable_components_unchanged(self):
        eta, d = 4, 6
        f = character_function(eta, d, [(0b0001, 1), (0b0010, 2), (0b0100, 8)])
        trunc = full_truncation(f)
        circ = synthesize(trunc)
        assert pair_cancel(circ, trunc) is circ

    def test_same_lsb_pair_saving_matches_recost(self):
        # spectrum coefficients 3<<eta and 5<<eta share an lsb; saving from
        # the fused block is 4*(lsb(c1+c2) + lsb(c1-c2) - 2*lsb(c1) - 2)
        eta, d = 5, 8
        m1, m2 = 3, 5
        f = character_function(eta, d, [(0b00101, m1), (0b01001, m2)])
        trunc = full_truncation(f)
        circ = synthesize(trunc)
        optimized = pair_cancel(circ, trunc)
        c1, c2 = m1 << eta, m2 << eta
        plus, minus = c1 + c2, c1 - c2
        lsb = lambda k: (abs(k) & -abs(k)).bit_length() - 1
        expected_saving = 4 * (lsb(plus) + lsb(minus) - 2 * lsb(c1) - 2)
        assert expected_saving >= 4
        assert cost(circ).t_count - cost(optimized).t_count == expected_saving
        assert np.array_equal(simulate_table(circ, 11), simulate_table(optimized, 11))

    def test_never_increases_t_or_cnot(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            eta = int(rng.integers(2, 8))
            d = int(rng.integers(2, 8))
            f = random_function(rng, eta, d)
            trunc = minimal_truncation(f, epsilon=float(2.0 ** -rng.integers(2, 8)))
            circ = synthesize(trunc)
            optimized = pair_cancel(circ, trunc)
            before, after = cost(circ), cost(optimized)
            assert after.t_count <= before.t_count
            assert after.cnot_count <= before.cnot_count
            assert np.array_equal(simulate_table(circ, 5), simulate_table(optimized, 5))

    def test_exhaustive_equivalence_small(self):
        rng = np.random.default_rng(41)
        f = random_function(rng, 6, 5)
        trunc = full_truncation(f)
        circ = synthesize(trunc)
        optimized = pair_cancel(circ, trunc)
        b = 6 + 5
        for y0 in (0, 1, (1 << b) - 1):
            assert np.array_equal(simulate_table(circ, y0), simulate_table(optimized, y0))


class TestPhaseKickback:
    def test_qrom_kicks_phase_on_fourier_state(self):
        # U_f |x> (QFT|-1>) = exp(2 pi i f(x) / 2**d) |x> (QFT|-1>)
        rng = np.random.default_rng(47)
        eta, d = 3, 3
        f = random_function(rng, eta, d)
        circ = synthesize(full_truncation(f))
        b = eta + d
        n_pay = 1 << b
        y_grid = np.arange(n_pay)
        fourier = np.exp(-2j * np.pi * y_grid / n_pay) / np.sqrt(n_pay)
        for x in range(1 << eta):
            out = np.zeros(n_pay, dtype=complex)
            for y in range(n_pay):
                out[simulate(circ, x, y)] += fourier[y]
            phase = np.exp(2j * np.pi * int(f.values[x]) / (1 << d))
            assert np.allclose(out, phase * fourier, atol=1e-12)


class TestIrInvariants:
    def test_zero_pfx_mask_rejected(self):
        with pytest.raises(RangeError):
            Pfx(0, 4)

    def test_adjacent_pfx_rejected(self):
        with pytest.raises(ShapeError):
            QromCircuit(
                input_width=2,
                payload_width=4,
                gates=(Pfx(0b01, 4), Pfx(0b10, 4)),
            )

    def test_adder_constant_bound(self):
        with pytest.raises(RangeError):
            Adder(1 << 4, 4)

    def test_field_past_int64_rejected(self):
        # a mask below 2**eta and a constant below 2**b, but neither fits int64
        with pytest.raises(ParseError, match=r"^line 2: cannot parse 'PFX 0x10000000000000000 4'"):
            circuit_from_lines("QROM 70 4 0\nPFX 0x10000000000000000 4\n")
        with pytest.raises(RangeError, match="does not fit int64"):
            QromCircuit(70, 4, 0, (Pfx(1 << 64, 4),))
        with pytest.raises(ParseError, match=r"^line 3: cannot parse"):
            circuit_from_lines(f"QROM 2 64 1\nX 66\nADD {1 << 63} 64\nX 66\n")
        with pytest.raises(RangeError, match="does not fit int64"):
            QromCircuit(2, 64, 0, (Adder(1 << 63, 64),))
        with pytest.raises(RangeError, match="does not fit int64"):
            QromCircuit(2, 4, 1, (Cnot(0, 1 << 63),))
        with pytest.raises(RangeError, match="must be int64, got uint64"):
            QromCircuit(70, 4, 0, np.array([[qrom.PFX, 1 << 63, 4, 0]], dtype=np.uint64))

    def test_table_breaking_a_record_rule_rejected(self):
        # a table given whole skips the records, so the circuit checks their rules
        for row, message in (
            ((qrom.PFX, 0, 4, 0), r"gate 1: PFX 0x0 4: mask must be nonzero"),
            ((qrom.ADD, 16, 4, 0), r"gate 1: ADD 16 4: \|k\| must be < 2\*\*4"),
            ((qrom.CADD, -(1 << 63), 4, 1), r"gate 1: CADD -9223372036854775808 4 1: \|k\|"),
        ):
            table = np.array([Adder(1, 4).row, row], dtype=np.int64)
            with pytest.raises(qrom.GateError, match=message):
                QromCircuit(2, 4, 0, table)
        assert QromCircuit(2, 64, 0, np.array([[qrom.ADD, -(1 << 63), 64, 0]])).gates[0].k == -(1 << 63)

    def test_register_width_past_int64_rejected(self):
        with pytest.raises(ParseError, match=r"^line 2: register widths must be < 2\*\*63"):
            circuit_from_lines(f"\nQROM 2 {1 << 63} 0\n")
        with pytest.raises(RangeError, match=r"must be < 2\*\*63"):
            QromCircuit(2, 4, 1 << 63)
        widest = QromCircuit(2, 64, (1 << 63) - 67, (Adder(-(1 << 63), 64), Adder(5, 64)))
        assert simulate(widest, 3, 1) == (1 << 63) + 6
        with pytest.raises(ScaleError, match="int64 payload limit"):
            simulate_table(QromCircuit(2, (1 << 63) - 1), 0)

    def test_equality_is_header_and_table(self):
        gates = (Pfx(0b11, 4), Adder(-3, 4), Pfx(0b01, 4))
        circ = QromCircuit(2, 4, 0, gates)
        assert circ == QromCircuit(2, 4, 0, circ.table) == QromCircuit(2, 4, 0, list(gates))
        assert circ != QromCircuit(2, 4, 1, gates)
        assert circ != QromCircuit(2, 4, 0, gates[:2])
        assert circ.gates == gates and circ.gates[1:] == gates[1:] and circ.gates[-1] == gates[-1]
        with pytest.raises(ValueError):
            circ.table[0, 1] = 2

    def test_gate_count_builds_no_records(self, monkeypatch):
        circ = QromCircuit(2, 4, 0, (Pfx(0b11, 4), Adder(-3, 4)))
        monkeypatch.setattr(qrom, "_record", None)
        assert len(circ.gates) == 2


class TestInt64Boundary:
    def test_involution_at_width_limit(self):
        # eta + d = 62 is the widest supported layout; sums stay in int64
        rng = np.random.default_rng(71)
        eta, d = 4, 58
        half = 1 << (d - 1)
        values = rng.integers(-half, half, size=1 << eta, dtype=np.int64)
        f = SampledFunction(eta=eta, d=d, values=values)
        from whqrom.wht import _butterfly

        assert np.array_equal(_butterfly(_butterfly(f.values)), values << eta)


# ---------------------------------------------------------------------------
# Object-per-gate oracles: one gate object and one Python loop per step.
# Validation, cost, synthesis, pair cancellation, the Walsh fold and the wire
# parser each work on columns of the gate table; each is checked against the
# loop below that does the same job gate by gate.
# ---------------------------------------------------------------------------


def oracle_text(gate):
    if isinstance(gate, Pfx):
        return f"PFX {gate.mask:#x} {gate.width}"
    if isinstance(gate, Adder):
        return f"ADD {gate.k} {gate.width}"
    if isinstance(gate, CAdder):
        return f"CADD {gate.k} {gate.width} {gate.control}"
    if isinstance(gate, Cnot):
        return f"CNOT {gate.control} {gate.target}"
    return f"X {gate.target}"


def oracle_lines(eta, b, anc, gates):
    return "\n".join([f"QROM {eta} {b} {anc}", *map(oracle_text, gates)]) + "\n"


def oracle_lsb(k):
    return (abs(k) & -abs(k)).bit_length() - 1 if k else 0


def oracle_resources(gate):
    """(t, cnots, other cliffords, workspace) of one gate."""
    if isinstance(gate, (Adder, CAdder)):
        controls = isinstance(gate, CAdder)
        workspace = max(0, gate.width - 2 + controls - oracle_lsb(gate.k)) if gate.k else 0
        return 4 * workspace, 0, 0, workspace
    if isinstance(gate, Pfx):
        return 0, 2 * (gate.mask.bit_count() - 1) + gate.width, 0, 0
    return (0, 1, 0, 0) if isinstance(gate, Cnot) else (0, 0, 1, 0)


def oracle_cost(eta, b, anc, gates):
    t = cnot = clifford = max_workspace = 0
    for gate in gates:
        gt, gcnot, gcliff, workspace = oracle_resources(gate)
        t += gt
        cnot += gcnot
        clifford += gcliff + gcnot
        max_workspace = max(max_workspace, workspace)
    return CostReport.assemble(t, cnot, clifford, eta + b + anc + max_workspace, t // 4)


def oracle_fault(gate, eta, b, total):
    """The first circuit rule the gate breaks on its own, or None."""

    def width(w):
        return f"width {w} differs from the payload width {b}" if w != b else None

    def qubit(q, first):
        return f"qubit {q} outside [{first}, {total})" if not first <= q < total else None

    def control(q):
        return "control is a payload qubit" if eta <= q < eta + b else qubit(q, 0)

    if isinstance(gate, Pfx):
        return f"mask must be < 2**{eta}" if gate.mask >> eta else width(gate.width)
    if isinstance(gate, Adder):
        return width(gate.width)
    if isinstance(gate, CAdder):
        return control(gate.control) or width(gate.width)
    if isinstance(gate, Cnot):
        if gate.control == gate.target:
            return "control equals target"
        return control(gate.control) or qubit(gate.target, eta + b)
    return qubit(gate.target, eta + b)


def oracle_validate(eta, b, anc, gates):
    if min(eta, b, anc) < 0:
        raise RangeError(f"register widths must be nonnegative, got ({eta}, {b}, {anc})")
    previous = None
    for i, gate in enumerate(gates):
        fault = oracle_fault(gate, eta, b, eta + b + anc)
        if fault is None and isinstance(gate, Pfx) and isinstance(previous, Pfx):
            fault = "adjacent PFX gates must be merged by mask XOR"
        if fault:
            raise qrom.GateError(i, f"{oracle_text(gate)}: {fault}")
        previous = gate


def parse_per_line(text):
    """The wire parser with no memo and the per-gate validator: every line
    is parsed on its own.  Returns the circuit, raising ParseError as the
    column parser does."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("QROM "):
        raise ParseError("missing 'QROM <eta> <b> <ancillas>' header line")
    header_no, header = lines[0]
    try:
        _, eta, b, anc = header.split()
        eta, b, anc = int(eta), int(b), int(anc)
    except ValueError as exc:
        raise ParseError(f"bad header {header!r}") from exc
    kinds = {"PFX": Pfx, "ADD": Adder, "CADD": CAdder, "CNOT": Cnot, "X": XGate}
    gates = []
    for lineno, line in lines[1:]:
        op, *fields = line.split()
        if op not in kinds:
            raise ParseError(f"line {lineno}: unknown opcode {op!r}")
        try:
            if op == "PFX":
                mask, width = fields
                gates.append(Pfx(int(mask, 16), int(width)))
            elif len(fields) != len(kinds[op].__dataclass_fields__):
                raise ValueError(f"{op} takes another field count")
            else:
                gates.append(kinds[op](*map(int, fields)))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from exc
    try:
        oracle_validate(eta, b, anc, gates)
    except qrom.GateError as exc:
        raise ParseError(f"line {lines[exc.index + 1][0]}: {exc}") from exc
    except RangeError as exc:
        raise ParseError(f"line {header_no}: {exc}") from exc
    return QromCircuit(eta, b, anc, tuple(gates))


def oracle_centered(k, b):
    k %= 1 << b
    return k - (1 << b) if k >= 1 << (b - 1) else k


def oracle_gray_rank(z):
    m, shift = z, 1
    while m >> shift:
        m ^= m >> shift
        shift *= 2
    return m


def oracle_items(spec):
    b = spec.base.b
    return [(z, oracle_centered(c, b)) for z, c in spec.support_coeffs() if c % (1 << b)]


def oracle_chain(items, b):
    gates, prev = [], 0
    for z, c in items:
        if prev ^ z:
            gates.append(Pfx(prev ^ z, b))
        gates.append(Adder(c, b))
        prev = z
    if prev:
        gates.append(Pfx(prev, b))
    return gates


def oracle_synthesize(spec, ordering=Ordering.GRAY_CODE):
    b = spec.base.b
    items = oracle_items(spec)
    gates = oracle_chain(items, b)
    if ordering is Ordering.GRAY_CODE:
        gray = oracle_chain(sorted(items, key=lambda zc: oracle_gray_rank(zc[0])), b)

        def pfx_cnots(gs):
            return sum(oracle_resources(g)[1] for g in gs if isinstance(g, Pfx))

        if pfx_cnots(gray) <= pfx_cnots(gates):
            gates = gray
    return gates


def oracle_merge_pfx(gates, b):
    out = []
    for gate in gates:
        if isinstance(gate, Pfx) and out and isinstance(out[-1], Pfx):
            merged = out.pop().mask ^ gate.mask
            if merged:
                out.append(Pfx(merged, b))
        else:
            out.append(gate)
    return out


def oracle_pair_block(zs, cs, zo, co, b, anc, eta):
    plus, minus = oracle_centered(cs + co, b), oracle_centered(cs - co, b)
    parity = [Cnot(i, anc) for i in range(eta) if (zs ^ zo) >> i & 1]
    gates = [Pfx(zs, b)] if zs else []
    gates += parity
    if plus:
        gates += [XGate(anc), CAdder(plus, b, anc), XGate(anc)]
    if minus:
        gates.append(CAdder(minus, b, anc))
    gates += parity[::-1]
    return gates + ([Pfx(zs, b)] if zs else [])


def oracle_pair_cancel(gates, spec):
    """(ancilla count, gates) of pair_cancel on the circuit of these gates."""
    eta, b = spec.eta, spec.base.b
    items = oracle_items(spec)
    if len(items) < 2:
        return 0, gates
    remaining, pairs, by_mag, by_lsb = dict(items), [], {}, {}
    for z, c in items:
        by_mag.setdefault(abs(c), []).append(z)
    for _, masks in sorted(by_mag.items()):
        while len(masks) >= 2:
            pairs.append((masks.pop(0), masks.pop(0)))
    for z1, z2 in pairs:
        remaining.pop(z1), remaining.pop(z2)
    for z, c in remaining.items():
        by_lsb.setdefault(oracle_lsb(c), []).append(z)
    for _, masks in sorted(by_lsb.items()):
        masks.sort()
        while len(masks) >= 2:
            z1, z2 = masks.pop(0), masks.pop(0)
            pairs.append((z1, z2))
            remaining.pop(z1), remaining.pop(z2)
    if not pairs:
        return 0, gates
    coeff = dict(items)
    out = oracle_chain([(z, c) for z, c in items if z in remaining], b)
    oriented = [tuple(sorted(pair, key=lambda z: (z.bit_count(), z))) for pair in pairs]
    for zs, zo in sorted(oriented, key=lambda zz: oracle_gray_rank(zz[0])):
        out += oracle_pair_block(zs, coeff[zs], zo, coeff[zo], b, eta + b, eta)
    out = oracle_merge_pfx(out, b)
    before, after = oracle_cost(eta, b, 0, gates), oracle_cost(eta, b, 1, out)
    if after.t_count > before.t_count or after.cnot_count > before.cnot_count:
        return 0, gates
    return 1, out


def oracle_table(circuit, y0):
    """simulate_table by a dict fold of the gates into the doubled Walsh
    spectrum, with each ancilla's affine function as a Python-int pair."""
    eta, b = circuit.input_width, circuit.payload_width
    sign, spectrum, ancillas = 0, {}, {}

    def affine(q):
        return (1 << q, 0) if q < eta else ancillas.get(q, (0, 0))

    for gate in circuit.gates:
        if isinstance(gate, Pfx):
            sign ^= gate.mask
        elif isinstance(gate, Adder):
            spectrum[sign] = spectrum.get(sign, 0) + 2 * gate.k
        elif isinstance(gate, CAdder):
            mask, const = affine(gate.control)
            spectrum[sign] = spectrum.get(sign, 0) + gate.k
            flip = sign ^ mask
            spectrum[flip] = spectrum.get(flip, 0) + (gate.k if const else -gate.k)
        else:
            mask, const = affine(gate.control) if isinstance(gate, Cnot) else (0, 1)
            old_mask, old_const = affine(gate.target)
            ancillas[gate.target] = (old_mask ^ mask, old_const ^ const)
    if any(mask or const for mask, const in ancillas.values()):
        raise ToleranceError("ancillas not restored to |0> at circuit end")
    doubled = np.zeros(1 << eta, dtype=np.int64)
    for mask, value in spectrum.items():
        doubled[mask] = (value + (1 << 63)) % (1 << 64) - (1 << 63)
    from whqrom.wht import _butterfly

    t = _butterfly(doubled) >> 1
    x = np.arange(1 << eta, dtype=np.int64)
    parity = (np.bitwise_count(x & sign) & 1).astype(np.int64)
    ones = (1 << b) - 1
    return ((t + y0) & ones) ^ (parity * ones)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(67)
        f = random_function(rng, 4, 5)
        trunc = minimal_truncation(f, epsilon=0.1)
        circ = pair_cancel(synthesize(trunc), trunc)
        text = circuit_to_lines(circ)
        back = circuit_from_lines(text)
        assert back == circ

    def test_wire_format_shape(self):
        circ = QromCircuit(
            input_width=2,
            payload_width=4,
            ancilla_count=1,
            gates=(
                Pfx(0b11, 4),
                Adder(-3, 4),
                CAdder(2, 4, 6),
                Cnot(0, 6),
                XGate(6),
            ),
        )
        lines = circuit_to_lines(circ).splitlines()
        assert lines[0] == "QROM 2 4 1"
        assert lines[1] == "PFX 0x3 4"
        assert lines[2] == "ADD -3 4"
        assert lines[3] == "CADD 2 4 6"
        assert lines[4] == "CNOT 0 6"
        assert lines[5] == "X 6"

    def test_memoized_parse_equals_per_line_parse(self):
        rng = np.random.default_rng(97)
        for eta, d, epsilon in ((4, 5, 1e-300), (6, 8, 0.05), (8, 10, 2.0**-6)):
            trunc = minimal_truncation(random_function(rng, eta, d), epsilon=epsilon)
            gray = synthesize(trunc)
            for circ in (gray, synthesize(trunc, Ordering.MAGNITUDE_DESCENDING), pair_cancel(gray, trunc)):
                text = circuit_to_lines(circ)
                lines = text.splitlines()
                assert len(set(lines)) < len(lines)
                parsed = circuit_from_lines(text)
                assert parsed == parse_per_line(text) == circ
                assert circuit_to_lines(parsed) == text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("QROM 2 4 0\n\nADD 3 7\n", r"line 3: .*width 7 differs from the payload width 4"),
            ("QROM 2 4 0\nPFX 0x3 9\n", r"line 2: .*width 9 differs"),
            ("QROM 2 4 1\nCNOT 0 1\n", r"line 2: .*qubit 1 outside \[6, 7\)"),
            ("QROM 2 4 1\nX 6\nCNOT 6 6\nX 6\n", r"line 3: .*control equals target"),
            ("QROM 2 4 1\nCADD 1 4 3\n", r"line 2: .*control is a payload qubit"),
            ("QROM 2 4 0\nCNOT 99 2\n", r"line 2: .*qubit 99 outside \[0, 6\)"),
            ("QROM 2 4 0\nX -1\n", r"line 2: .*qubit -1 outside \[6, 6\)"),
            ("QROM -1 4 0\n", r"line 1: .*nonnegative"),
            ("QROM 2 4 0\nPFX 0x10 4\n", r"line 2: .*mask must be < 2\*\*2"),
            ("QROM 2 4 0\nADD 1 4 7 7\n", r"line 2: cannot parse"),
            ("QROM 2 4 0\nPFX 0x1 4\nPFX 0x2 4\n", r"line 3: .*adjacent PFX"),
            # the payload is written only by PFX and adders, and never controls
            ("QROM 2 4 1\nX 6\nX 6\nCNOT 0 2\n", r"line 4: .*qubit 2 outside \[6, 7\)"),
            ("QROM 2 4 1\n\nX 3\n", r"line 3: .*qubit 3 outside \[6, 7\)"),
            ("QROM 2 4 1\nCNOT 2 6\n", r"line 2: .*CNOT 2 6: control is a payload qubit"),
            # a faulty line that repeats is named at its first occurrence
            ("QROM 2 4 1\nX 6\nCNOT 0 1\nX 6\nCNOT 0 1\n", r"^line 3: .*qubit 1 outside"),
            ("QROM 2 4 0\n ADD 1 4 7 7\nADD 1 4\nADD 1 4 7 7 \n", r"^line 2: cannot parse"),
            ("QROM 2 4 0\nPFX 0x1 4\nADD 1 4\nPFX 0x1 4\nPFX 0x1 4\n", r"^line 5: .*adjacent PFX"),
        ],
    )
    def test_invalid_circuit_names_the_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            circuit_from_lines(text)


@st.composite
def valid_circuits(draw):
    """Random valid circuits over all five gate kinds.

    X and CNOT target ancillas, CNOT and CADD controls are input or ancilla
    qubits, and each ancilla write is repeated in reverse at the end, so
    every ancilla returns to |0>.
    """
    eta = draw(st.integers(1, 4))
    b = draw(st.integers(1, 5))
    anc = draw(st.integers(0, 2))
    inputs = list(range(eta))
    ancillas = list(range(eta + b, eta + b + anc))
    constant = st.integers(-(1 << b) + 1, (1 << b) - 1)
    gates, ancilla_writes = [], []
    for kind in draw(st.lists(st.sampled_from("PACNX"), max_size=14)):
        if kind == "P":
            if gates and isinstance(gates[-1], Pfx):
                continue
            gate = Pfx(draw(st.integers(1, (1 << eta) - 1)), b)
        elif kind == "A":
            gate = Adder(draw(constant), b)
        elif kind == "C":
            gate = CAdder(draw(constant), b, draw(st.sampled_from(inputs + ancillas)))
        elif not ancillas:
            continue
        elif kind == "N":
            target = draw(st.sampled_from(ancillas))
            sources = [q for q in inputs + ancillas if q != target]
            gate = Cnot(draw(st.sampled_from(sources)), target)
        else:
            gate = XGate(draw(st.sampled_from(ancillas)))
        if kind in "NX":
            ancilla_writes.append(gate)
        gates.append(gate)
    gates.extend(reversed(ancilla_writes))
    y0 = draw(st.integers(0, (1 << b) - 1))
    return QromCircuit(eta, b, anc, tuple(gates)), y0


@settings(max_examples=150, deadline=None)
@given(valid_circuits())
def test_scalar_oracle_and_wire_format_on_every_gate_kind(case):
    circ, y0 = case
    table = simulate_table(circ, y0)
    for x in range(1 << circ.input_width):
        assert simulate(circ, x, y0) == table[x]
    text = circuit_to_lines(circ)
    back = circuit_from_lines(text)
    assert back == circ
    assert circuit_to_lines(back) == text


def frontier_t_depth(circuit):
    """T depth by greedy layering: a gate starts after every earlier gate
    sharing a register (the payload as one, other qubits one by one) and
    holds them for its Toffoli count."""
    frontier: dict = {}
    for gate in circuit.gates:
        if isinstance(gate, Pfx):
            keys = ["Y"] + [("q", i) for i in range(gate.mask.bit_length()) if gate.mask >> i & 1]
        elif isinstance(gate, Adder):
            keys = ["Y"]
        elif isinstance(gate, CAdder):
            keys = ["Y", ("q", gate.control)]
        elif isinstance(gate, Cnot):
            keys = [("q", gate.control), ("q", gate.target)]
        else:
            keys = [("q", gate.target)]
        start = max((frontier.get(k, 0) for k in keys), default=0)
        for k in keys:
            frontier[k] = start + oracle_resources(gate)[0] // 4
    return max(frontier.values(), default=0)


@settings(max_examples=300, deadline=None)
@given(valid_circuits())
def test_t_depth_equals_greedy_layering(case):
    circ, _ = case
    report = cost(circ)
    assert report.t_depth == frontier_t_depth(circ) == report.toffoli_count


def test_t_depth_equals_greedy_layering_on_synthesized_circuits():
    rng = np.random.default_rng(83)
    for _ in range(20):
        f = random_function(rng, int(rng.integers(2, 7)), int(rng.integers(3, 9)))
        trunc = full_truncation(f)
        for circ in (synthesize(trunc), pair_cancel(synthesize(trunc), trunc)):
            assert cost(circ).t_depth == frontier_t_depth(circ)


def vstep_table(circuit, y0):
    """Gate-by-gate steps on int64 arrays over every x, ancillas packed one
    bit each (at most 63): the second oracle for simulate_table, beside
    scalar simulate."""
    eta, b = circuit.input_width, circuit.payload_width
    x = np.arange(1 << eta, dtype=np.int64)
    payload = np.full(1 << eta, y0, dtype=np.int64)
    ancillas = np.zeros(1 << eta, dtype=np.int64)
    ones = (1 << b) - 1

    def bit(q):
        return x >> q & 1 if q < eta else ancillas >> (q - eta - b) & 1

    for gate in circuit.gates:
        if isinstance(gate, Pfx):
            # np.bitwise_count returns uint8: widen before scaling
            payload ^= (np.bitwise_count(x & gate.mask) & 1).astype(np.int64) * ones
        elif isinstance(gate, Adder):
            payload += gate.k
            payload &= ones
        elif isinstance(gate, CAdder):
            payload += bit(gate.control) * gate.k
            payload &= ones
        elif isinstance(gate, Cnot):
            ancillas ^= bit(gate.control) << (gate.target - eta - b)
        else:
            ancillas ^= 1 << (gate.target - eta - b)
    if np.any(ancillas):
        raise ToleranceError("ancillas not restored to |0> at circuit end")
    return payload


@st.composite
def table_circuits(draw):
    """Valid circuits for simulate_table, with b up to 63.

    Every gate kind: PFX, ADD, CADD controlled by an input or ancilla qubit,
    X onto an ancilla, and CNOTs onto an ancilla from input or other ancilla
    qubits.  Ancilla writes are repeated in reverse at the end, which
    restores every ancilla unless one more X leaves an ancilla set.
    """
    eta = draw(st.integers(1, 4))
    b = draw(st.one_of(st.integers(1, 5), st.sampled_from([61, 62, 63])))
    anc = draw(st.integers(0, 3))
    inputs = list(range(eta))
    ancillas = list(range(eta + b, eta + b + anc))
    # large magnitudes set the top payload bits, where 2k wraps mod 2**64
    large = st.integers(1 << max(b - 2, 0), (1 << b) - 1)
    constant = st.integers(-(1 << b) + 1, (1 << b) - 1) | large | large.map(int.__neg__)
    gates, ancilla_writes = [], []
    for kind in draw(st.lists(st.sampled_from("PACNX"), max_size=16)):
        if kind == "P":
            if gates and isinstance(gates[-1], Pfx):
                continue
            gates.append(Pfx(draw(st.integers(1, (1 << eta) - 1)), b))
        elif kind == "A":
            gates.append(Adder(draw(constant), b))
        elif kind == "C":
            gates.append(CAdder(draw(constant), b, draw(st.sampled_from(inputs + ancillas))))
        elif kind in "NX" and ancillas:
            target = draw(st.sampled_from(ancillas))
            if kind == "X":
                gate = XGate(target)
            else:
                gate = Cnot(draw(st.sampled_from([q for q in inputs + ancillas if q != target])), target)
            gates.append(gate)
            ancilla_writes.append(gate)
    gates.extend(reversed(ancilla_writes))
    if ancillas and draw(st.booleans()):
        gates.append(XGate(draw(st.sampled_from(ancillas))))
    y0 = draw(st.integers(0, (1 << b) - 1))
    return QromCircuit(eta, b, anc, tuple(gates)), y0


@settings(max_examples=400, deadline=None)
@given(table_circuits())
def test_table_equals_vstep_loop_and_scalar_oracle(case):
    circ, y0 = case
    try:
        want = vstep_table(circ, y0)
    except ToleranceError:
        with pytest.raises(ToleranceError, match="ancillas not restored"):
            simulate_table(circ, y0)
        return
    got = simulate_table(circ, y0)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    for x in range(1 << circ.input_width):
        assert simulate(circ, x, y0) == got[x]


def test_emitted_circuits_never_leave_the_fragment():
    """Every emitted circuit is valid and simulates to its table."""
    rng = np.random.default_rng(89)
    with_ancilla = 0
    for eta, d, epsilon in ((3, 4, 1e-300), (5, 6, 0.05), (6, 8, 1e-300), (8, 10, 2.0**-6)):
        f = random_function(rng, eta, d)
        trunc = minimal_truncation(f, epsilon=epsilon)
        b = eta + d
        y0 = int(rng.integers(1, 1 << b))
        gray = synthesize(trunc)
        for circ in (gray, synthesize(trunc, Ordering.MAGNITUDE_DESCENDING), pair_cancel(gray, trunc)):
            with_ancilla += circ.ancilla_count
            assert np.array_equal(simulate_table(circ, y0), expected_table(trunc, y0, b))
        values = rng.integers(0, 1 << d, size=1 << eta)
        loaded = exact_table_qrom(values, eta, d)
        want = (y0 + (values << eta)) % (1 << b)
        assert np.array_equal(simulate_table(loaded, y0), want)
    assert with_ancilla


@st.composite
def spectra(draw):
    """Truncated spectra with shared magnitudes and lsbs, b up to 63."""
    eta = draw(st.integers(1, 6))
    b = draw(st.integers(eta + 1, eta + 9) | st.integers(58, 63))
    half = 1 << (b - 1)
    pool = draw(st.lists(st.integers(-half, half), min_size=1, max_size=4))
    coeff = st.sampled_from(pool) | st.sampled_from([-c for c in pool]) | st.integers(-half, half)
    coeffs = np.array(draw(st.lists(coeff, min_size=1 << eta, max_size=1 << eta)), dtype=np.int64)
    order = np.lexsort((np.arange(1 << eta), -np.abs(coeffs)))
    k = draw(st.integers(0, 1 << eta))
    return TruncatedSpectrum(base=WalshSpectrum(eta=eta, b=b, coeffs=coeffs), k=k, order=order)


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_synthesis_and_pair_cancel_match_the_gate_loops(spec):
    eta, b = spec.eta, spec.base.b
    for ordering in Ordering:
        want = oracle_synthesize(spec, ordering)
        got = synthesize(spec, ordering)
        assert circuit_to_lines(got) == oracle_lines(eta, b, 0, want)
        assert cost(got) == oracle_cost(eta, b, 0, want)
    want = oracle_synthesize(spec)
    anc, paired = oracle_pair_cancel(want, spec)
    got = pair_cancel(synthesize(spec), spec)
    assert circuit_to_lines(got) == oracle_lines(eta, b, anc, paired)
    assert cost(got) == oracle_cost(eta, b, anc, paired)


@settings(max_examples=300, deadline=None)
@given(table_circuits())
def test_cost_and_table_match_the_gate_loops(case):
    circ, y0 = case
    gates = tuple(circ.gates)
    assert cost(circ) == oracle_cost(circ.input_width, circ.payload_width, circ.ancilla_count, gates)
    try:
        want = oracle_table(circ, y0)
    except ToleranceError:
        with pytest.raises(ToleranceError, match="ancillas not restored"):
            simulate_table(circ, y0)
        return
    assert np.array_equal(simulate_table(circ, y0), want)


def test_ancilla_chain_is_resolved_in_gate_order():
    # each CNOT from an ancilla copies a function that an earlier one wrote
    eta, b = 2, 5
    a1, a2, a3 = eta + b, eta + b + 1, eta + b + 2
    writes = [Cnot(0, a1), XGate(a1), Cnot(1, a1), Cnot(a1, a2), Cnot(a2, a3), Cnot(0, a2)]
    adds = [CAdder(3, b, a3), CAdder(-5, b, a2), CAdder(7, b, a1)]
    circ = QromCircuit(eta, b, 3, tuple(writes + adds + writes[::-1]))
    table = simulate_table(circ, 4)
    assert table.tolist() == [simulate(circ, x, 4) for x in range(1 << eta)]
    assert np.array_equal(table, oracle_table(circ, 4))


def test_cost_is_exact_past_int64():
    wide = 1 << 62
    gates = (Adder(1, wide), Pfx(0b11, wide), Adder(-1, wide), Pfx(0b11, wide)) * 2
    circ = QromCircuit(2, wide, 0, gates)
    assert cost(circ) == oracle_cost(2, wide, 0, gates)
    assert cost(circ).t_count > 1 << 64


@st.composite
def any_gate(draw, eta, b, anc):
    """A gate of any kind whose fields may break any circuit rule."""
    qubit = st.integers(-2, eta + b + anc + 2)
    kind = draw(st.sampled_from("PACNX"))
    width = draw(st.sampled_from([b, b, b + 1, max(b - 1, 0)]))
    if kind == "P":
        return Pfx(draw(st.integers(1, 1 << (eta + 1))), width)
    if kind in "AC":
        k = draw(st.integers(-(1 << width) + 1, (1 << width) - 1))
        return Adder(k, width) if kind == "A" else CAdder(k, width, draw(qubit))
    return Cnot(draw(qubit), draw(qubit)) if kind == "N" else XGate(draw(qubit))


JUNK_LINES = ["FOO 1", "ADD 1", "PFX 0x0 4", "ADD 99 4", "CNOT x 2", "X 1 2", "CADD 1 4", "PFX 3"]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_injected_row_fails_as_the_gate_loop(data):
    """One injected row breaks at most a few rules: the column validator and
    parser name the same gate and line, with the same message, as the loops."""
    circ, _ = data.draw(valid_circuits())
    eta, b, anc = circ.input_width, circ.payload_width, circ.ancilla_count
    gates = list(circ.gates)
    at = data.draw(st.integers(0, len(gates)))
    gates.insert(at, data.draw(any_gate(eta, b, anc)))
    try:
        oracle_validate(eta, b, anc, gates)
    except qrom.GateError as exc:
        with pytest.raises(qrom.GateError) as got:
            QromCircuit(eta, b, anc, tuple(gates))
        assert (got.value.index, str(got.value)) == (exc.index, str(exc))
    else:
        assert QromCircuit(eta, b, anc, tuple(gates)).gates == tuple(gates)
    lines = oracle_lines(eta, b, anc, gates).splitlines()
    junk = data.draw(st.sampled_from(JUNK_LINES))
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(1, len(lines))), junk)
    text = "\n".join(lines) + "\n"
    try:
        want = parse_per_line(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            circuit_from_lines(text)
        assert str(got.value) == str(exc)
    else:
        assert circuit_from_lines(text) == want
