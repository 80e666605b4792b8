import math

import numpy as np
import pytest

from whqrom.baseline import (
    INFINITY_SENTINEL,
    SelectSwapModel,
    compare,
    optimal_lookup,
    optimize_lambda,
    optimize_lambda_pow2,
    selectswap_cost,
    weighted_cost,
)
from whqrom.errors import RangeError
from whqrom.qrom import cost, synthesize
from whqrom.wht import SampledFunction, minimal_truncation, quantize


class TestSelectSwapCost:
    def test_reference_instantiation(self):
        # eta=10, d=15, lambda=8: Toffoli 128 + 240 = 368, qubits 20 + 120
        m = SelectSwapModel(eta=10, d=15, lam=8)
        report = selectswap_cost(m)
        assert report.toffoli_count == 368
        assert report.qubit_count == 140
        assert report.t_count == 4 * 368

    def test_lambda_one(self):
        for eta, d in ((4, 3), (8, 15), (12, 7)):
            report = selectswap_cost(SelectSwapModel(eta=eta, d=d, lam=1))
            assert report.toffoli_count == (1 << eta) + 2 * d

    def test_zero_table_has_zero_cnots(self):
        f = SampledFunction(eta=5, d=6, values=np.zeros(32, dtype=np.int64))
        report = selectswap_cost(SelectSwapModel(eta=5, d=6, lam=2), f)
        assert report.cnot_count == 0

    def test_cnot_lower_bound_counts_hamming_weight(self):
        f = SampledFunction(eta=2, d=4, values=np.array([0, 1, 3, -1]))
        # two's complement on 4 bits: 0, 1, 11, 1111
        report = selectswap_cost(SelectSwapModel(eta=2, d=4, lam=1), f)
        assert report.cnot_count == 0 + 1 + 2 + 4

    def test_lambda_validation(self):
        with pytest.raises(RangeError):
            SelectSwapModel(eta=3, d=4, lam=0)
        with pytest.raises(RangeError):
            SelectSwapModel(eta=3, d=4, lam=9)

    def test_depth_formula(self):
        m = SelectSwapModel(eta=6, d=5, lam=4)
        assert selectswap_cost(m).t_depth == math.ceil(64 / 4 + math.log2(4))


class TestOptimizeLambda:
    def test_never_beaten_by_exhaustive_scan(self):
        for eta in range(1, 13):
            for d in (1, 5, 15, 33):
                lam, report = optimize_lambda(eta, d)
                best = min(
                    math.ceil((1 << eta) / l) + 2 * d * l for l in range(1, (1 << eta) + 1)
                )
                assert report.toffoli_count == best

    def test_tie_goes_to_smaller_lambda(self):
        lam, _ = optimize_lambda(1, 1)
        # lambda=1: 2 + 2 = 4; lambda=2: 1 + 4 = 5 -> pick 1
        assert lam == 1

    def test_real_optimum_neighborhood(self):
        eta, d = 10, 15
        lam, _ = optimize_lambda(eta, d)
        lam_star = math.sqrt(2**eta / (2 * d))
        assert abs(lam - lam_star) <= 3

    def test_large_d_forces_lambda_one(self):
        eta = 6
        d = 1 << (eta - 1)  # second term dominates
        lam, _ = optimize_lambda(eta, d)
        assert lam == 1

    def test_windowed_scan_matches_wide_scan(self):
        # a large table, against an explicit scan far wider than the window
        eta, d = 17, 15
        lam, report = optimize_lambda(eta, d)
        wide = min(
            (math.ceil((1 << eta) / l) + 2 * d * l, l) for l in range(1, 1 << 12)
        )
        assert (report.toffoli_count, lam) == wide

    def test_lookup_off_powers_of_two_matches_exhaustive_scan(self):
        for n in list(range(2, 300)) + [3 << 10, 5000]:
            top = 1 << (n - 1).bit_length()
            for d in (1, 5, 15, 90):
                lam, toffoli, depth, ancillas = optimal_lookup(n, d)
                best = min((math.ceil(n / l) + 2 * d * l, l) for l in range(1, top + 1))
                assert (toffoli, lam) == best
                assert depth == math.ceil(n / lam + math.log2(lam))
                assert ancillas == lam * d + (n - 1).bit_length()

    def test_pow2_ge_integer_optimum(self):
        for eta, d in ((8, 7), (10, 15), (12, 33)):
            _, int_rep = optimize_lambda(eta, d)
            _, p2_rep = optimize_lambda_pow2(eta, d)
            assert p2_rep.toffoli_count >= int_rep.toffoli_count


class TestCompare:
    def smooth_table(self, eta=8, d=10):
        x = np.arange(1 << eta) / (1 << eta)
        theta = 0.9 * (x - 0.5) ** 2 - 0.4
        return quantize(theta, d)

    def harmonic_2d(self, eta=12, d=15):
        half = eta // 2
        x = np.arange(1 << eta)
        q1 = (x & ((1 << half) - 1)) / (1 << half)
        q2 = (x >> half) / (1 << (eta - half))
        return quantize((q1 - 0.5) ** 2 + (q2 - 0.5) ** 2 - 0.5, d)

    def test_degenerate_zero_table_flags_infinity(self):
        f = SampledFunction(eta=4, d=6, values=np.zeros(16, dtype=np.int64))
        record = compare(f, epsilon=0.25)
        ratios = record.ratios()
        assert ratios["toffoliCount"] == INFINITY_SENTINEL
        assert record.wh.t_count == 0

    def test_separable_harmonic_2d_favors_wh(self):
        # concentrated spectrum: the WH circuit beats the optimal-lambda
        # SELECT-SWAP Toffoli count at eta = 12, eps = 2**-10
        record = compare(self.harmonic_2d(), epsilon=2.0**-10)
        assert record.ratios()["toffoliCount"] > 1

    def test_ratios_recompute_from_raw_reports(self):
        record = compare(self.smooth_table(eta=7), epsilon=2.0**-6)
        r = record.ratios()
        assert r["qubits"] == pytest.approx(
            record.ss.qubit_count / record.wh.qubit_count, rel=1e-12
        )
        assert r["toffoliVolume"] == pytest.approx(
            (record.ss.toffoli_count * record.ss.qubit_count)
            / (record.wh.toffoli_count * record.wh.qubit_count),
            rel=1e-12,
        )
        assert r["weightedCost"] == pytest.approx(
            weighted_cost(record.ss) / weighted_cost(record.wh), rel=1e-12
        )

    def test_d_reduction_per_side(self):
        f = self.smooth_table(eta=6, d=20)
        record = compare(f, epsilon=2.0**-6, d_ss=15)
        assert record.d_ss == 15 and record.d_wh == 20
        assert record.ss.qubit_count == 2 * 6 + record.lambda_min * 15

    def test_json_round_trip_fields(self):
        record = compare(self.smooth_table(eta=6), epsilon=2.0**-5)
        data = record.to_json_dict()
        assert set(data["ratios"]) == {
            "qubits",
            "toffoliCount",
            "toffoliDepth",
            "toffoliVolume",
            "cnotCount",
            "weightedCost",
        }
        assert data["whQrom"]["tCount"] == record.wh.t_count
        assert data["selectSwapCnotSemantics"] == "cnot_lower_bound"

    def test_unoptimized_mode_never_cheaper(self):
        # compare always pair-cancels; the plain synthesized chain is never cheaper
        f = self.harmonic_2d(eta=10)
        optimized = compare(f, epsilon=2.0**-10)
        trunc = minimal_truncation(f, 2.0**-10)
        plain = cost(synthesize(trunc))
        assert plain.t_count >= optimized.wh.t_count
