"""Output checks computed apart from the program.

Every function here takes the program's output and its generated input and
recomputes what the output must be, or tests a property the method must
have, with code of its own: its own Walsh-Hadamard butterfly, its own
magnitude order, an exhaustive SELECT-SWAP lambda scan, a Lanczos solve on a
matrix-free operator, and plain numpy algebra on the block-encoding
unitaries.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import math
import string

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

CM1_PER_HARTREE = 219474.6313632


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Tables: transform, truncation, SELECT-SWAP and WH cost bounds
# ---------------------------------------------------------------------------


def quantize(theta: np.ndarray, d: int) -> np.ndarray:
    """floor(2**(d-1) * theta) as int64, the fixed-point rule of the method."""
    return np.floor(np.asarray(theta, dtype=np.float64) * float(1 << (d - 1))).astype(np.int64)


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform, exact in int64 (self-inverse up to 2**eta)."""
    a = np.array(values, dtype=np.int64)
    n = a.shape[0]
    h = n // 2
    while h >= 1:
        pairs = a.reshape(-1, 2, h)
        a = np.concatenate(
            (pairs[:, 0, :] + pairs[:, 1, :], pairs[:, 0, :] - pairs[:, 1, :]), axis=1
        ).reshape(n)
        h //= 2
    return a


def magnitude_order(coeffs: np.ndarray) -> np.ndarray:
    """Masks by descending |c|; a stable sort keeps ties at the smaller mask."""
    return np.argsort(-np.abs(coeffs), kind="stable")


class Truncation:
    """Exact truncation errors of one quantized table along its magnitude order."""

    def __init__(self, f: np.ndarray, d: int):
        self.f = np.asarray(f, dtype=np.int64)
        self.n = self.f.shape[0]
        self.eta = self.n.bit_length() - 1
        self.d = d
        self.coeffs = fwht(self.f)
        self.order = magnitude_order(self.coeffs)

    def numerators(self, k: int) -> np.ndarray:
        """2**eta * g_k(x) for the k largest coefficients."""
        kept = np.zeros_like(self.coeffs)
        idx = self.order[:k]
        kept[idx] = self.coeffs[idx]
        return fwht(kept)

    def error(self, k: int) -> float:
        """2 max_x |sin(2 pi (f - g_k)(x) / 2**d)|."""
        period = 1 << (self.eta + self.d)
        delta = np.mod((self.f << self.eta) - self.numerators(k), period)
        centered = np.where(delta >= period // 2, delta - period, delta)
        return float(2.0 * np.max(np.abs(np.sin(2.0 * math.pi * centered / period))))

    def check_minimal(self, k: int, epsilon: float, label: str) -> None:
        """k must be the smallest retained count whose error beats epsilon."""
        require(0 <= k <= self.n, f"{label}: k = {k} outside [0, {self.n}]")
        err = self.error(k)
        require(err < epsilon, f"{label}: error {err:.6g} at k = {k} is not below {epsilon}")
        if k > 0:
            prev = self.error(k - 1)
            require(
                prev >= epsilon,
                f"{label}: k = {k} is not minimal, k - 1 already reaches {prev:.6g} < {epsilon}",
            )


def best_lambda(eta: int, d: int, lams: np.ndarray) -> tuple[int, int]:
    """(lambda, Toffoli count) minimising ceil(2**eta / lambda) + 2 d lambda; ties to smaller lambda."""
    n = 1 << eta
    toffoli = -(-n // lams) + 2 * d * lams
    i = int(np.argmin(toffoli))
    return int(lams[i]), int(toffoli[i])


def check_selectswap(record: dict, label: str) -> None:
    """lambdaMin and the SELECT-SWAP costs against an exhaustive scan over [1, 2**eta]."""
    eta, d = record["eta"], record["dSelectSwap"]
    lam, toffoli = best_lambda(eta, d, np.arange(1, (1 << eta) + 1, dtype=np.int64))
    pow2, _ = best_lambda(eta, d, np.array([1 << j for j in range(eta + 1)], dtype=np.int64))
    ss = record["selectSwap"]
    require(record["lambdaMin"] == lam, f"{label}: lambdaMin {record['lambdaMin']} != scanned {lam}")
    require(record["lambdaMinPow2"] == pow2, f"{label}: lambdaMinPow2 {record['lambdaMinPow2']} != {pow2}")
    require(ss["toffoliCount"] == toffoli, f"{label}: SELECT-SWAP Toffoli {ss['toffoliCount']} != {toffoli}")
    require(ss["tCount"] == 4 * toffoli, f"{label}: SELECT-SWAP T count is not 4 x Toffoli")
    require(ss["qubitCount"] == 2 * eta + lam * d, f"{label}: SELECT-SWAP qubits != 2 eta + lambda d")


def check_wh_report(cost: dict, eta: int, d: int, k: int, label: str) -> None:
    """Bounds every WH-QROM must meet: 3 eta + 2 d qubits, 4 (eta + d - 1) T per coefficient."""
    require(cost["qubitCount"] <= 3 * eta + 2 * d, f"{label}: {cost['qubitCount']} qubits > 3 eta + 2 d")
    require(
        cost["tCount"] <= 4 * (eta + d - 1) * k,
        f"{label}: T count {cost['tCount']} > 4 (eta + d - 1) k = {4 * (eta + d - 1) * k}",
    )
    require(
        cost["quantumVolume"] == cost["tCount"] * cost["qubitCount"],
        f"{label}: quantum volume is not T count x qubit count",
    )
    require(cost["toffoliCount"] * 4 == cost["tCount"], f"{label}: T count is not 4 x Toffoli")


def arccos_table(f: np.ndarray, d: int, arccos_digits: int) -> np.ndarray:
    """The rotation-angle table compare prices: arccos(PES / (2 sup|PES|)) / pi."""
    theta = np.asarray(f, dtype=np.float64) / float(1 << (d - 1))
    sup = float(np.max(np.abs(theta)))
    return quantize(np.arccos(theta / (2.0 * sup)) / math.pi, arccos_digits)


# ---------------------------------------------------------------------------
# Verify: simulation, wire text, block encodings, DVR transform
# ---------------------------------------------------------------------------


def check_simulation(table: np.ndarray, numerators: np.ndarray, y0: int, b: int, label: str) -> None:
    """simulate_table must equal (y0 + 2**eta g) mod 2**b at every address."""
    expected = np.mod(y0 + numerators, 1 << b)
    got = np.asarray(table, dtype=np.int64)
    require(got.shape == expected.shape, f"{label}: simulated table has shape {got.shape}")
    bad = np.flatnonzero(got != expected)
    require(bad.size == 0, f"{label}: {bad.size} addresses differ, first at x = {bad[:1].tolist()}")


def check_unitary_encoding(unitary: np.ndarray, zeta: float, target: np.ndarray, label: str) -> None:
    """|U^dag U - I| <= 1e-10 and |zeta U[:n, :n] - A| <= 1e-9, elementwise max."""
    u = np.asarray(unitary)
    gram = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    require(gram <= 1e-10, f"{label}: unitarity deviation {gram:.3e} > 1e-10")
    n = target.shape[0]
    residual = float(np.max(np.abs(zeta * u[:n, :n] - target)))
    require(residual <= 1e-9, f"{label}: block residual {residual:.3e} > 1e-9")


def swap_halves(values: np.ndarray, half_bits: int) -> np.ndarray:
    """values[i] with the low and high half_bits of the index exchanged."""
    i = np.arange(values.shape[0])
    low = i & ((1 << half_bits) - 1)
    return values[(low << half_bits) | (i >> half_bits)]


def check_t_matrix_csv(path, n: int, label: str) -> None:
    """T^T T = I recomputed from the exported CSV."""
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    t = np.array(rows, dtype=np.float64)
    require(t.shape == (n, n), f"{label}: exported matrix is {t.shape}, expected {n}x{n}")
    dev = float(np.max(np.abs(t.T @ t - np.eye(n))))
    require(dev <= 1e-10, f"{label}: T^T T deviates from I by {dev:.3e}")


# ---------------------------------------------------------------------------
# Molecule: matrix-free Lanczos on the Kronecker term factors
# ---------------------------------------------------------------------------


def kron_operator(terms, dims) -> LinearOperator:
    """H as a LinearOperator built from each term's per-mode factors (None = identity)."""
    dims = tuple(int(n) for n in dims)
    total = int(np.prod(dims))
    letters = string.ascii_lowercase[: len(dims)]
    factors = [[(i, np.asarray(f)) for i, f in enumerate(t.factors) if f is not None] for t in terms]

    def matvec(vec):
        x = np.asarray(vec, dtype=np.float64).reshape(dims)
        out = np.zeros(dims)
        for term in factors:
            cur = x
            for i, mat in term:
                spec = f"z{letters[i]},{letters}->{letters.replace(letters[i], 'z')}"
                cur = np.einsum(spec, mat, cur)
            out += cur
        return out.reshape(-1)

    return LinearOperator((total, total), matvec=matvec, rmatvec=matvec, dtype=np.float64)


def _start_vector(op: LinearOperator) -> np.ndarray:
    """A fixed Lanczos start vector, so check times do not vary from run to run."""
    return np.random.default_rng(0).standard_normal(op.shape[0])


def spectral_radius(op: LinearOperator) -> float:
    """Largest |eigenvalue| of a symmetric operator."""
    vals = eigsh(op, k=1, which="LM", tol=1e-10, v0=_start_vector(op), return_eigenvectors=False)
    return float(np.max(np.abs(vals)))


def lowest_levels(op: LinearOperator, count: int) -> np.ndarray:
    """The lowest eigenvalues of a symmetric operator, ascending."""
    vals = eigsh(op, k=count, which="SA", tol=0, v0=_start_vector(op), return_eigenvectors=False)
    return np.sort(vals)


def check_molham_report(report: dict, radius: float, levels_cm, epsilon_cm: float, label: str) -> None:
    """Norm bound, eigenvalues and QPE identity of one molham report."""
    for row in report["strategies"]:
        name = f"{label} {row['strategy']}"
        zeta = row["norm"]["totalAu"]
        require(zeta >= radius, f"{name}: zeta {zeta:.6g} au below the spectral radius {radius:.6g}")
        zeta_cm = row["norm"]["totalCm"]
        be = row["blockEncoding"]["report"]
        calls = max(1, math.ceil(math.pi * zeta_cm / (2.0 * epsilon_cm)))
        qpe = row["qpe"]
        require(qpe["tCount"] == calls * be["tCount"], f"{name}: QPE T count != calls x block-encoding T")
        phase = max(1, math.ceil(math.log2(max(2.0, zeta_cm / epsilon_cm))))
        require(qpe["qubitCount"] == be["qubitCount"] + phase, f"{name}: QPE qubits != block encoding + phase register")
    if levels_cm is None:
        require("eigenvaluesCm" not in report, f"{label}: eigenvalues reported above the dense limit")
        return
    got = np.asarray(report.get("eigenvaluesCm", []), dtype=np.float64)
    want = np.asarray(levels_cm, dtype=np.float64)
    require(got.shape == want.shape, f"{label}: {got.size} eigenvalues, expected {want.size}")
    dev = float(np.max(np.abs(got - want)))
    require(dev <= 1e-6, f"{label}: eigenvalues deviate from Lanczos by {dev:.3e} cm^-1")
