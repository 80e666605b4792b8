"""Fixed-point sampled functions and exact integer Walsh-Hadamard analysis.

A real function theta on the Boolean cube is quantized to signed integers
f(x) = floor(2**(d-1) * theta(x)).  Its Walsh-Hadamard transform

    WH(f)(z) = sum_x (-1)**(x . z) f(x)

is computed exactly in 64-bit integer arithmetic (the butterfly never
overflows for eta + d <= 62).  One transform is eta 2**eta int64 additions
and subtractions with half an array of scratch: about 0.7 ms at eta 16,
17 ms at eta 20 and 0.1 s at eta 22 on a 2-vCPU Xeon.  Truncating the
spectrum to its k largest components and transforming back yields a
dyadic-rational surrogate g with values in Z/2**eta; the distance between
the diagonal phase unitaries of f and g is

    diag_error(f, g) = 2 * max_x |sin(2*pi/2**d * (f(x) - g(x)))|

and ``minimal_truncation`` finds the smallest k whose surrogate beats a
requested error bound.  It skips ahead exactly: retaining a coefficient c
moves the state 2**eta (f - g_k) mod 2**b at every address by exactly
+/-|c|, so only the k where a skip lands are tested, each with the linear
scan's test taken on the addresses nearest a quarter point of the circle.
"""

from __future__ import annotations

import csv as _csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, RangeError, ScaleError, ShapeError

__all__ = [
    "SampledFunction",
    "WalshSpectrum",
    "TruncatedSpectrum",
    "quantize",
    "wht_forward",
    "wht_inverse",
    "diag_error",
    "check_epsilon",
    "minimal_truncation",
    "truncation_error_curve",
    "read_theta_binary",
    "read_theta_csv",
    "read_theta",
    "MAX_ETA",
]

#: Largest address width of a table: 2**24 samples, 128 MiB per float64 or
#: int64 array.  Table inputs, :func:`quantize` and the synthetic samplers
#: refuse a larger one with :class:`ScaleError` before allocating it.
MAX_ETA = 24

#: Widest eta + d for which the integer butterfly provably fits in int64.
MAX_TOTAL_BITS = 62


def _check_eta_d(eta: int, d: int) -> None:
    if eta < 0:
        raise RangeError(f"eta must be nonnegative, got {eta}")
    if d < 1:
        raise RangeError(f"bit width d must be positive, got {d}")
    if eta + d > MAX_TOTAL_BITS:
        raise RangeError(
            f"eta + d = {eta + d} exceeds the 64-bit safe limit {MAX_TOTAL_BITS}"
        )


@dataclass(frozen=True)
class SampledFunction:
    """Signed integer samples of a function on F2^eta, d-bit fixed point.

    Invariants: ``len(values) == 2**eta`` and every value lies in
    ``[-2**(d-1), 2**(d-1))``.  Instances are immutable and thread-safe.
    """

    eta: int
    d: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_eta_d(self.eta, self.d)
        values = np.asarray(self.values, dtype=np.int64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] != 1 << self.eta:
            raise ShapeError(
                f"expected 2**{self.eta} = {1 << self.eta} values, got shape {values.shape}"
            )
        half = 1 << (self.d - 1)
        if values.size and (int(values.min()) < -half or int(values.max()) >= half):
            raise RangeError(
                f"values must lie in [-2**{self.d - 1}, 2**{self.d - 1})"
            )

    @property
    def n(self) -> int:
        return 1 << self.eta


@dataclass(frozen=True)
class WalshSpectrum:
    """Exact integer WH coefficients, indexed by mask z in F2^eta.

    The coefficient width is b = eta + d: |WH(f)(z)| <= 2**(b-1).  Applying
    the forward sum to the coefficients returns 2**eta times the original
    samples (exact integer identity).
    """

    eta: int
    b: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.int64)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.shape[0] != 1 << self.eta:
            raise ShapeError(
                f"expected 2**{self.eta} coefficients, got shape {coeffs.shape}"
            )
        if self.b < 1 or self.b > MAX_TOTAL_BITS + 1:
            raise RangeError(f"coefficient width b = {self.b} out of range")
        half = 1 << (self.b - 1)
        if coeffs.size and (int(coeffs.min()) < -half or int(coeffs.max()) > half):
            raise RangeError(f"coefficients exceed b = {self.b} signed bits")

    @property
    def d(self) -> int:
        return self.b - self.eta


@dataclass(frozen=True)
class TruncatedSpectrum:
    """A spectrum restricted to its k largest-magnitude masks.

    ``order`` is a read-only int64 array holding the first k or more masks
    of the order (-|coeff|, z); ``support`` is the first k of them, and
    readers never look past them.  Ties in magnitude are broken toward the
    smaller mask so repeated runs synthesize identical circuits.
    """

    base: WalshSpectrum
    k: int
    order: np.ndarray = field(repr=False)

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        order.setflags(write=False)
        object.__setattr__(self, "order", order)
        if order.ndim != 1:
            raise ShapeError(f"expected a 1-D mask order, got shape {order.shape}")
        if not 0 <= self.k <= order.shape[0]:
            raise RangeError(f"k = {self.k} outside [0, {order.shape[0]}]")

    @property
    def eta(self) -> int:
        return self.base.eta

    @property
    def support(self) -> frozenset:
        return frozenset(self.order[: self.k].tolist())

    def reconstruction_numerators(self) -> np.ndarray:
        """Exact integer values 2**eta * g(x) of the truncated inverse."""
        masked, idx = np.zeros_like(self.base.coeffs), self.order[: self.k]
        masked[idx] = self.base.coeffs[idx]
        return _butterfly_in_place(masked)

    def error(self, f: SampledFunction) -> float:
        """diag_error between f and this truncation's reconstruction."""
        num = np.asarray(f.values, dtype=np.int64) * (1 << f.eta)
        num -= self.reconstruction_numerators()
        return _phase_distance(num / float(1 << f.eta), f.d)


#: log2 of the block the low butterfly levels run in: 512 KiB and as much
#: scratch fit a 2 MiB L2; 2**14, 2**15 and 2**17 were slower at eta 16-22.
_BLOCK_BITS = 16


def _butterfly(values: np.ndarray) -> np.ndarray:
    """The WH butterfly of an int64 copy of values (:func:`_butterfly_in_place`)."""
    return _butterfly_in_place(np.array(values, dtype=np.int64))


def _butterfly_in_place(a: np.ndarray) -> np.ndarray:
    """WH butterfly of the 1-D int64 array a in place, n/2 values of scratch; returns a.

    The lowest log2(m) levels, m = min(2**_BLOCK_BITS, n/2), run one m-value
    block at a time in constant-geometry form (Pease 1968): a stage writes
    src[2i] +- src[2i+1] to dst[i] and dst[m/2 + i], butterflying the lowest
    index bit and rotating it to the top, so log2(m) stages leave the block
    in natural order.  Stages ping-pong with the scratch (a copy back after
    an odd count) on 1-D operands of stride 1 or 2; the levels h >= m then
    run on pairs of h-long rows.  Each output is a sum of +-1 multiples of
    the inputs, exact mod 2**64 in any order, so it matches the radix-2 loop
    bit for bit.
    """
    n = a.shape[0]
    tmp = np.empty(n // 2, dtype=np.int64)
    m = max(1, min(1 << _BLOCK_BITS, n // 2))
    stages, half = m.bit_length() - 1, m // 2
    for start in range(0, n, m):
        src, dst = a[start : start + m], tmp[:m]
        for _ in range(stages):
            np.add(src[0::2], src[1::2], out=dst[:half])
            np.subtract(src[0::2], src[1::2], out=dst[half:])
            src, dst = dst, src
        if stages & 1:
            a[start : start + m] = src
    for level in range(stages, n.bit_length() - 1):
        pairs = a.reshape(-1, 2, 1 << level)
        lo, hi, diff = pairs[:, 0], pairs[:, 1], tmp.reshape(-1, 1 << level)
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff
    return a


def quantize(theta_samples: Sequence[float], d: int) -> SampledFunction:
    """Quantize samples of theta: F2^eta -> [-1, 1) to d-bit integers.

    Returns floor(2**(d-1) * theta(x)) per point.  The sample count must be
    a power of two (eta is inferred); samples outside [-1, 1) raise
    :class:`RangeError`.
    """
    theta = np.asarray(theta_samples, dtype=np.float64)
    if theta.ndim != 1 or theta.size == 0:
        raise ShapeError(f"expected a nonempty 1-D sample array, got shape {theta.shape}")
    n = theta.shape[0]
    if n & (n - 1):
        raise ShapeError(f"sample count {n} is not a power of two")
    eta = n.bit_length() - 1
    if eta > MAX_ETA:
        raise ScaleError(f"eta = {eta} exceeds the limit MAX_ETA = {MAX_ETA}")
    _check_eta_d(eta, d)
    if theta.min() < -1.0 or theta.max() >= 1.0:
        raise RangeError("theta samples must lie in [-1, 1)")
    values = np.floor(np.ldexp(theta, d - 1)).astype(np.int64)
    return SampledFunction(eta=eta, d=d, values=values)


def wht_forward(f: SampledFunction) -> WalshSpectrum:
    """Exact integer Walsh-Hadamard transform, O(eta * 2**eta)."""
    return WalshSpectrum(eta=f.eta, b=f.eta + f.d, coeffs=_butterfly(f.values))


def wht_inverse(s: WalshSpectrum | TruncatedSpectrum) -> list[Fraction]:
    """Inverse transform (of a truncation, its surrogate g) as rationals over 2**eta."""
    num = s.reconstruction_numerators() if isinstance(s, TruncatedSpectrum) else _butterfly(s.coeffs)
    return [Fraction(int(v), 1 << s.eta) for v in num]


def _phase_distance(deltas: np.ndarray, d: int) -> float:
    """2 * max |sin(2 pi delta / 2**d)| with deltas reduced mod 2**d."""
    period = float(1 << d)
    reduced = np.mod(deltas, period)
    reduced = np.where(reduced >= period / 2.0, reduced - period, reduced)
    return float(2.0 * np.max(np.abs(np.sin(2.0 * np.pi / period * reduced))))


def diag_error(f: SampledFunction | Sequence, g, d: int | None = None) -> float:
    """Operator-norm distance of the diagonal phase unitaries of f and g.

    Returns ``2 * max_x |sin(2*pi/2**d * (f(x) - g(x)))|``.  Pointwise
    differences are evaluated as reals (g may hold integers, Fractions, or
    floats); the result is a pseudometric on value sequences modulo 2**d.
    """
    if isinstance(f, SampledFunction):
        fv = np.asarray(f.values, dtype=np.float64)
        if d is None:
            d = f.d
    else:
        fv = np.asarray([float(v) for v in f], dtype=np.float64)
        if d is None:
            raise RangeError("d is required when f is a bare value sequence")
    if d < 1:
        raise RangeError(f"bit width d must be positive, got {d}")
    gv = np.asarray([float(v) for v in g], dtype=np.float64)
    if gv.shape != fv.shape:
        raise ShapeError(f"length mismatch: {gv.shape} vs {fv.shape}")
    return _phase_distance(fv - gv, d)


#: Masks the truncation search sorts first, doubled while landings pass them.
_PREFIX = 1024


def _truncation_order(coeffs: np.ndarray, count: int) -> np.ndarray:
    """The first count (>= 1) masks by descending |coeff|, ties toward the
    smaller mask, and every further mask tied with the last of them."""
    mag = np.abs(coeffs)
    kth = max(0, mag.shape[0] - count)
    mag.partition(kth)
    threshold = mag[kth]
    # ascending masks, so a stable sort by magnitude keeps the tie rule
    top = np.flatnonzero(np.abs(coeffs, out=mag) >= threshold)
    return top[np.argsort(-mag[top], kind="stable")]


def _sign_rows(row: np.ndarray, z: np.ndarray, bits: int) -> np.ndarray:
    """The float64 table (-1)**<x, z_j> row_j for x < 2**bits, built by doubling."""
    out = np.empty((1 << bits, len(z)))
    out[0] = row
    for i in range(bits):
        np.multiply(out[: 1 << i], np.where(z >> i & 1, -1.0, 1.0), out=out[1 << i : 2 << i])
    return out


class _IncrementalScan:
    """Walk the truncation order, tracking diag_error(f, g_k) exactly.

    The state 2**eta * (f - g_k) is reduced mod 2**b by ``&= period - 1``,
    exact because 2**b divides 2**64: an int64 wraparound changes a value by
    a multiple of 2**64.  Retaining m coefficients is one separable product:
    with x = (x_hi, x_lo) split at l = eta // 2 low bits, (-1)**<x,z> =
    (-1)**<x_hi,z_hi> (-1)**<x_lo,z_lo>, so sum_j c_j (-1)**<x,z_j> is
    (S_hi^T diag(c)) @ S_lo over +/-1 tables of shapes m x 2**(eta-l) and
    m x 2**l: num.reshape(2**(eta-l), 2**l) in shape.  It runs on limbs of
    c mod 2**b below 2**(52 - m.bit_length()) in float64: every partial sum
    is an integer below 2**52, exact in any order, and each limb's result is
    widened to int64 and shifted into place.  Below m = 1024 (the search's
    products to eta 31) b <= 42 takes one limb, as every bundled workload.
    """

    def __init__(self, f: SampledFunction, coeffs: np.ndarray, order: np.ndarray):
        self.f = f
        self.coeffs = coeffs
        self.order = order
        self.period = 1 << (f.eta + f.d)
        self.scale = 2.0 * np.pi / float(self.period)
        self.window = math.ceil(2e-7 * self.period / (2 * math.pi)) + 2
        self.num = np.asarray(f.values, dtype=np.int64) * (1 << f.eta)
        self.num &= self.period - 1
        self.dist = np.empty_like(self.num)
        self.dist_min = 0
        self.k = 0

    def error(self) -> float:
        """diag_error(f, g_k), evaluated only where the maximum can be.

        With dist = |num mod 2**(b-1) - 2**(b-2)|, the exact integer distance
        of an address from the nearer quarter point, |sin(2 pi num / 2**b)|
        equals cos(2 pi dist / 2**b) and falls as dist grows.  An address more
        than ``window`` = ceil(2e-7 2**b / (2 pi)) + 2 beyond the smallest
        dist lies below the maximum by at least 1 - cos(2e-7), about 2e-14 or
        180 ulp of 1, far above the float error of the angle and the sine (a
        few ulp), so it cannot hold the float maximum either: the float
        expression on the addresses inside the window returns the same bits
        it returns on the whole array.  Leaves the distances in ``dist`` and
        their minimum in ``dist_min``, which give the skip search its reach.
        """
        half = self.period >> 1
        dist = np.bitwise_and(self.num, half - 1, out=self.dist)
        dist -= self.period >> 2
        np.abs(dist, out=dist)
        self.dist_min = int(dist.min())
        near = self.num[dist <= self.dist_min + self.window]
        centered = np.where(near >= half, near - self.period, near)
        return float(2.0 * np.max(np.abs(np.sin(self.scale * centered))))

    def advance(self, count: int = 1) -> None:
        """Retain the next count coefficients: num -= sum_j (-1)**<x,z_j> c_j.

        One is c (-1)**<x,z> built by doubling, cheaper than a 1-term product."""
        z = self.order[self.k : self.k + count]
        c = self.coeffs[z] & (self.period - 1)
        self.k += count
        if count == 1:
            term, mask = self.dist, int(z[0])  # dist is scratch until the next error()
            term[0] = c[0]
            for i in range(self.f.eta):
                np.multiply(term[: 1 << i], -1 if mask >> i & 1 else 1, out=term[1 << i : 2 << i])
            self.num -= term
        else:
            low, width = self.f.eta // 2, 52 - count.bit_length()
            s_lo = _sign_rows(np.ones(count), z & (1 << low) - 1, low).T
            prod = self.dist.view(np.float64).reshape(-1, 1 << low)  # dist's buffer
            for shift in range(0, self.period.bit_length() - 1, width):
                limb = (c >> shift & (1 << width) - 1).astype(np.float64)
                np.matmul(_sign_rows(limb, z >> low, self.f.eta - low), s_lo, out=prod)
                np.copyto(self.dist, prod.reshape(-1), casting="unsafe")
                self.dist <<= shift
                self.num -= self.dist
        self.num &= self.period - 1


def check_epsilon(epsilon: float) -> None:
    """Refuse an error target that is not positive, nan included."""
    if not epsilon > 0:
        raise RangeError(f"epsilon must be positive, got {epsilon}")


def minimal_truncation(f: SampledFunction, epsilon: float) -> TruncatedSpectrum:
    """Smallest-k truncation whose reconstruction beats epsilon.

    Returns the first k, in the deterministic magnitude order, with
    ``diag_error(f, g_k) < epsilon``: the k a linear scan over k = 0, 1, 2,
    ... returns (``truncation_error_curve`` is that scan).  Once every
    nonzero coefficient is retained the error is exactly zero, so the
    search always terminates.

    The search tests only the k it lands on and skips the rest.  Retaining
    coefficient c moves every numerator 2**eta (f - g_k)(x) mod 2**b by
    exactly +/-|c|, and ``2 |sin(2 pi num / 2**b)| < epsilon`` holds only
    within delta = 2**b asin(epsilon/2) / (2 pi) of 0 or 2**(b-1); for
    epsilon >= 2 the arcs cover the whole circle and nothing is skipped.
    If the farthest address lies D_max beyond those arcs, it fails at every
    k until the magnitudes retained from here on add up to D_max, so the
    next k worth testing is found by one ``searchsorted`` on the cumulative
    magnitudes.  The skip is exact: D_max is integer arithmetic; delta is
    taken for epsilon/2 raised by a few ulps, which covers the rounding of
    the float sine test; and the float64 cumulative sums are held to a
    margin of 2 + 1e-9 2**b plus their own worst-case rounding.

    The order is read only up to the landings: the search sorts a prefix of
    1024 masks, doubles it while a landing lies past it, and returns it as
    ``order``; the margin takes sum |c| unsorted.  A landing at most R = 32
    eta terms ahead is one separable product, a farther one a ``_rebuild``.
    ``BENCH_2.json`` holds the traced search times.
    """
    check_epsilon(epsilon)
    spectrum = wht_forward(f)
    coeffs = spectrum.coeffs
    nonzero = int(np.count_nonzero(coeffs))
    scan = _IncrementalScan(f, coeffs, np.zeros(0, dtype=np.int64))
    cum = np.zeros(1)  # over the sorted prefix, empty until the first landing
    period = scan.period
    quarter = period >> 2
    half_width = period * math.asin(min(1.0, epsilon / 2 + 2.0**-50)) / (2 * math.pi)
    margin = 2.0 + 1e-9 * period + 2.0**-52 * nonzero * np.abs(coeffs).sum(dtype=np.float64)
    while scan.error() >= epsilon:
        # scan.dist is how far an address sits from the point midway between
        # the arc centres, so the farthest address sits quarter - dist_min
        # from its nearer centre
        target = cum[scan.k] + quarter - scan.dist_min - half_width - margin
        while len(cum) <= nonzero and (scan.k + 1 == len(cum) or cum[-1] < target):
            # the landing lies past the prefix: double it (cum's old part keeps its bits)
            scan.order = _truncation_order(coeffs, min(nonzero, max(_PREFIX, 2 * len(cum))))
            cum = np.zeros(min(len(scan.order), nonzero) + 1)
            np.cumsum(np.abs(coeffs[scan.order[: len(cum) - 1]]), dtype=np.float64, out=cum[1:])
        land = int(np.searchsorted(cum, target, side="left"))
        land = min(nonzero, max(scan.k + 1, land))
        if land - scan.k > 32 * f.eta:
            _rebuild(scan, spectrum, land)
        else:
            scan.advance(land - scan.k)
    return TruncatedSpectrum(base=spectrum, k=scan.k, order=scan.order)


def _rebuild(scan: _IncrementalScan, spectrum: WalshSpectrum, k: int) -> None:
    """Jump the scan to k with one butterfly, O(eta 2**eta) however short the
    jump: the spectrum without its first k masks transforms to 2**eta (f -
    g_k), exactly mod 2**64 since the butterfly is linear."""
    scan.num = None  # free the old state before the butterfly's buffers
    num = np.array(spectrum.coeffs)
    num[scan.order[:k]] = 0
    scan.num = _butterfly_in_place(num)
    scan.num &= scan.period - 1
    scan.k = k


def truncation_error_curve(
    f: SampledFunction, upto: int | None = None, spectrum: WalshSpectrum | None = None
) -> np.ndarray:
    """diag_error(f, g_k) for every k = 0..upto along the magnitude order.

    The exhaustive oracle companion to :func:`minimal_truncation`; O(upto *
    2**eta), so keep upto modest for large eta.  ``spectrum``, f's transform
    (the search's ``base``), spares a second one; without it f is transformed.
    An upto outside [0, f.n] raises :class:`RangeError`.
    """
    if upto is not None and not 0 <= upto <= f.n:
        raise RangeError(f"upto = {upto} outside [0, {f.n}]")
    if spectrum is None:
        spectrum = wht_forward(f)
    elif (spectrum.eta, spectrum.b) != (f.eta, f.eta + f.d):
        raise ShapeError(f"spectrum eta {spectrum.eta}, b {spectrum.b} does not fit f")
    if upto is None:
        upto = f.n
    scan = _IncrementalScan(f, spectrum.coeffs, _truncation_order(spectrum.coeffs, upto + 1))
    errors = np.empty(upto + 1, dtype=np.float64)
    for k in range(upto + 1):
        errors[k] = scan.error()
        if k < upto:
            scan.advance()
    return errors


def read_theta_binary(path) -> np.ndarray:
    """Little-endian float64 samples; the length must be a power of two and
    every sample finite.  A file of more than 2**MAX_ETA samples is refused
    from its size, before it is read."""
    try:
        size = Path(path).stat().st_size
        if size > 8 << MAX_ETA:
            raise ScaleError(f"{path}: {size} bytes exceed 2**MAX_ETA = {1 << MAX_ETA} samples")
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if len(raw) % 8:
        raise ParseError(f"{path}: byte length {len(raw)} is not a multiple of 8")
    data = np.frombuffer(raw, dtype="<f8")
    if data.size == 0 or data.size & (data.size - 1):
        raise ParseError(f"{path}: sample count {data.size} is not a power of two")
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise ParseError(f"{path}: sample {int(bad[0])} is not finite ({data[bad[0]]})")
    return data.astype(np.float64)


def read_theta_csv(path) -> np.ndarray:
    """One finite sample per line; blank lines ignored; errors carry line
    numbers.  More than 2**MAX_ETA samples are refused at the first line
    past the limit.  The float64 array doubles as samples are counted."""
    data, count = np.empty(1024), 0
    limit = 1 << MAX_ETA
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        for lineno, row in enumerate(_csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if count == limit:
                raise ScaleError(f"{path}:{lineno}: more than 2**MAX_ETA = {limit} samples")
            if len(row) != 1:
                raise ParseError(f"{path}:{lineno}: expected one value per line")
            try:
                value = float(row[0])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(value):
                raise ParseError(f"{path}:{lineno}: sample {row[0]!r} is not finite")
            if count == data.size:
                data = np.resize(data, count + min(count, limit - count))
            data[count] = value
            count += 1
    if count == 0 or count & (count - 1):
        raise ParseError(f"{path}: sample count {count} is not a power of two")
    return data[:count]


def read_theta(path, fmt: str | None = None) -> np.ndarray:
    """Dispatch on format: 'bin', 'csv', or inferred from the suffix."""
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "bin"
    if fmt == "csv":
        return read_theta_csv(path)
    if fmt in ("bin", "binary", "f64"):
        return read_theta_binary(path)
    raise ParseError(f"unknown input format {fmt!r}")
