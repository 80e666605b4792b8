"""SELECT-SWAP QROM cost model and the comparison against WH-QROM synthesis.

For a table of 2**eta entries of d bits with multiplexing parameter lambda:

    qubits        = 2*eta + lambda*d                     (exact)
    Toffoli count = ceil(2**eta / lambda) + 2*d*lambda
    Toffoli depth = ceil(2**eta / lambda + log2 lambda)
    T count       = 4 * Toffoli count
    CNOT count    = sum_x hammingWeight(f(x))            (lower bound: at
                    least one CNOT per nonzero output digit)

lambda may be any integer in [1, 2**eta]; the classic constructions restrict
it to powers of two, so the optimizer reports both the unconstrained integer
optimum and the best power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .qrom import CostReport, cost, pair_cancel, synthesize
from .wht import SampledFunction, minimal_truncation

__all__ = [
    "SelectSwapModel",
    "selectswap_cost",
    "optimal_lookup",
    "optimize_lambda",
    "optimize_lambda_pow2",
    "compare",
    "ComparisonRecord",
    "weighted_cost",
    "INFINITY_SENTINEL",
]

INFINITY_SENTINEL = "∞"


@dataclass(frozen=True)
class SelectSwapModel:
    """Multiplexed-lookup parameters: eta address bits, d output bits, lambda."""

    eta: int
    d: int
    lam: int

    def __post_init__(self):
        if self.eta < 0 or self.d < 1:
            raise RangeError(f"bad table shape eta={self.eta}, d={self.d}")
        if not 1 <= self.lam <= 1 << self.eta:
            raise RangeError(f"lambda = {self.lam} outside [1, 2**{self.eta}]")


def _hamming_payload(f: SampledFunction) -> int:
    """Total Hamming weight of the table in d-bit two's complement."""
    mask = (1 << f.d) - 1
    vals = np.asarray(f.values, dtype=np.int64) & mask
    return int(np.sum(np.bitwise_count(vals.astype(np.uint64))))


def selectswap_cost(m: SelectSwapModel, f: SampledFunction | None = None) -> CostReport:
    """Exact SELECT-SWAP counts; the CNOT figure is a stated lower bound.

    When f is omitted the CNOT lower bound is reported as zero.
    """
    if f is not None and (f.eta != m.eta or f.d != m.d):
        raise RangeError(
            f"table shape ({f.eta}, {f.d}) does not match model ({m.eta}, {m.d})"
        )
    toffoli, t_depth = _lookup_counts(1 << m.eta, m.d, m.lam)
    t_count = 4 * toffoli
    qubits = 2 * m.eta + m.lam * m.d
    cnot = _hamming_payload(f) if f is not None else 0
    return CostReport(
        t_count=t_count,
        toffoli_count=toffoli,
        cnot_count=cnot,
        clifford_count=cnot,
        qubit_count=qubits,
        t_depth=t_depth,
        quantum_volume=t_count * qubits,
    )


def _lookup_counts(n: int, d: int, lam: int) -> tuple[int, int]:
    """Toffoli count ceil(n / lambda) + 2 d lambda and depth ceil(n / lambda + log2 lambda)."""
    return math.ceil(n / lam) + 2 * d * lam, math.ceil(n / lam + math.log2(lam))


def optimal_lookup(n_entries: int, d: int) -> tuple[int, int, int, int]:
    """Toffoli-optimal SELECT-SWAP lookup of n_entries entries of d bits.

    Returns (lambda, toffoli, toffoli_depth, ancillas) with ancillas =
    lambda * d + ceil(log2 n_entries); ties go to the smaller lambda.  The
    scan covers [lambda*/4, 4 lambda* + 8] around the real optimum
    lambda* = sqrt(n / (2d)), plus 1 and 2**ceil(log2 n).  Outside that
    window the smooth cost n/lambda + 2 d lambda is at least 8.5 d lambda*,
    against 4 d lambda* at lambda*, so the window always holds the optimum.
    """
    eta = (n_entries - 1).bit_length()
    lam_star = math.sqrt(n_entries / (2 * d))
    lo = max(1, int(lam_star / 4))
    hi = min(1 << eta, int(4 * lam_star) + 8)
    lam = min(
        [*range(lo, hi + 1), 1, 1 << eta],
        key=lambda lam: (_lookup_counts(n_entries, d, lam)[0], lam),
    )
    return lam, *_lookup_counts(n_entries, d, lam), lam * d + eta


def optimize_lambda(
    eta: int, d: int, f: SampledFunction | None = None
) -> tuple[int, CostReport]:
    """Integer lambda minimizing the Toffoli count of a 2**eta-entry table;
    ties go to smaller lambda (see :func:`optimal_lookup`)."""
    lam = optimal_lookup(1 << eta, d)[0]
    return lam, selectswap_cost(SelectSwapModel(eta=eta, d=d, lam=lam), f)


def optimize_lambda_pow2(
    eta: int, d: int, f: SampledFunction | None = None
) -> tuple[int, CostReport]:
    """Best power-of-two lambda, for the classic construction."""
    best = min(
        (1 << k for k in range(eta + 1)),
        key=lambda lam: (_lookup_counts(1 << eta, d, lam)[0], lam),
    )
    return best, selectswap_cost(SelectSwapModel(eta=eta, d=d, lam=best), f)


def weighted_cost(report: CostReport) -> float:
    """Toffoli-equivalent score with CNOTs down-weighted 50x.

    Interpretation of the 'Toffoli cost = 50 x CNOT cost' weighting: one
    Toffoli is worth 50 CNOTs, so the score is toffoli + cnot / 50.  Raw
    counts are always reported alongside.
    """
    return report.toffoli_count + report.cnot_count / 50.0


@dataclass(frozen=True)
class ComparisonRecord:
    """SELECT-SWAP over WH-QROM ratios plus the raw reports behind them."""

    eta: int
    d_wh: int
    d_ss: int
    epsilon: float
    k_retained: int
    lambda_min: int
    lambda_min_pow2: int
    wh: CostReport
    ss: CostReport

    def _ratio(self, num: float, den: float):
        if den == 0:
            return INFINITY_SENTINEL if num > 0 else 1.0
        return num / den

    def ratios(self) -> dict:
        wh, ss = self.wh, self.ss
        return {
            "qubits": self._ratio(ss.qubit_count, wh.qubit_count),
            "toffoliCount": self._ratio(ss.toffoli_count, wh.toffoli_count),
            "toffoliDepth": self._ratio(ss.t_depth, wh.t_depth),
            "toffoliVolume": self._ratio(
                ss.toffoli_count * ss.qubit_count, wh.toffoli_count * wh.qubit_count
            ),
            "cnotCount": self._ratio(ss.cnot_count, wh.cnot_count),
            "weightedCost": self._ratio(weighted_cost(ss), weighted_cost(wh)),
        }

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "dWh": self.d_wh,
            "dSelectSwap": self.d_ss,
            "epsilon": self.epsilon,
            "kRetained": self.k_retained,
            "lambdaMin": self.lambda_min,
            "lambdaMinPow2": self.lambda_min_pow2,
            "ratios": self.ratios(),
            "whQrom": self.wh.to_json_dict(),
            "selectSwap": self.ss.to_json_dict(),
            # the SELECT-SWAP cnotCount assumes at least one CNOT per
            # nonzero output digit, so it is a lower bound
            "selectSwapCnotSemantics": "cnot_lower_bound",
        }


def compare(
    f: SampledFunction,
    epsilon: float,
    d_ss: int | None = None,
) -> ComparisonRecord:
    """Run both pipelines on the same table and report SS/WH ratios.

    The WH side synthesizes at the requested epsilon (Gray ordering plus
    pair cancellation); the SELECT-SWAP side uses its Toffoli-optimal
    integer lambda.  d may differ per side: d_ss defaults to the table's own
    width.
    """
    trunc = minimal_truncation(f, epsilon)
    wh_report = cost(pair_cancel(synthesize(trunc), trunc))
    d_ss = f.d if d_ss is None else d_ss
    f_ss = (
        f
        if d_ss == f.d
        else SampledFunction(eta=f.eta, d=d_ss, values=_requantize(f, d_ss))
    )
    lam, ss_report = optimize_lambda(f.eta, d_ss, f_ss)
    lam2, _ = optimize_lambda_pow2(f.eta, d_ss)
    return ComparisonRecord(
        eta=f.eta,
        d_wh=f.d,
        d_ss=d_ss,
        epsilon=epsilon,
        k_retained=trunc.k,
        lambda_min=lam,
        lambda_min_pow2=lam2,
        wh=wh_report,
        ss=ss_report,
    )


def _requantize(f: SampledFunction, d_new: int) -> np.ndarray:
    """Shift the fixed point of a table from f.d bits to d_new bits."""
    vals = np.asarray(f.values, dtype=np.int64)
    if d_new >= f.d:
        return vals << (d_new - f.d)
    shift = f.d - d_new
    return np.floor_divide(vals, 1 << shift)
