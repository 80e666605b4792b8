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


def parse_per_line(text):
    """The wire parser with no memo: every line is parsed on its own."""
    header, *lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    _, eta, b, anc = header.split()
    gates = []
    for line in lines:
        op, *fields = line.split()
        gates.append(qrom._GATE_KINDS[op].parse(fields))
    return QromCircuit(int(eta), int(b), int(anc), tuple(gates))


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
            frontier[k] = start + gate.resources()[0] // 4
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
