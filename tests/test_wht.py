import os
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from whqrom import synthetic, wht
from whqrom.errors import ParseError, RangeError, ScaleError, ShapeError
from whqrom.wht import (
    SampledFunction,
    quantize,
    wht_forward,
    wht_inverse,
    diag_error,
    minimal_truncation,
    truncation_error_curve,
    read_theta,
    read_theta_binary,
    read_theta_csv,
)


def random_function(rng, eta, d):
    half = 1 << (d - 1)
    values = rng.integers(-half, half, size=1 << eta, dtype=np.int64)
    return SampledFunction(eta=eta, d=d, values=values)


def full_order(coeffs):
    """Every mask sorted by (-|coeff|, mask): the truncation order's oracle."""
    return np.lexsort((np.arange(len(coeffs)), -np.abs(coeffs)))


def naive_wht(values):
    n = len(values)
    out = np.zeros(n, dtype=np.int64)
    for z in range(n):
        acc = 0
        for x in range(n):
            acc += -int(values[x]) if bin(x & z).count("1") & 1 else int(values[x])
        out[z] = acc
    return out


class TestQuantize:
    def test_zero_function(self):
        f = quantize(np.zeros(16), d=8)
        assert f.eta == 4 and f.d == 8
        assert np.all(f.values == 0)

    def test_lower_boundary(self):
        f = quantize(np.full(8, -1.0), d=4)
        assert np.all(f.values == -8)

    def test_linear_ramp_matches_direct_formula(self):
        eta, d = 3, 5
        theta = np.array([x / 2**eta for x in range(2**eta)])
        f = quantize(theta, d=d)
        expected = [int(np.floor(2 ** (d - 1) * t)) for t in theta]
        assert list(f.values) == expected

    def test_out_of_range_sample(self):
        with pytest.raises(RangeError):
            quantize(np.array([0.0, 1.0]), d=4)

    def test_non_power_of_two(self):
        with pytest.raises(ShapeError):
            quantize(np.zeros(6), d=4)

    def test_width_guard(self):
        with pytest.raises(RangeError):
            quantize(np.zeros(2**4), d=60)

    def test_eta_limit(self, monkeypatch):
        monkeypatch.setattr(wht, "MAX_ETA", 3)
        assert quantize(np.zeros(2**3), d=4).eta == 3
        with pytest.raises(ScaleError, match="MAX_ETA = 3"):
            quantize(np.zeros(2**4), d=4)


class TestForward:
    def test_constant_concentrates_at_zero(self):
        f = SampledFunction(eta=4, d=6, values=np.full(16, 7))
        s = wht_forward(f)
        assert s.coeffs[0] == 16 * 7
        assert np.all(s.coeffs[1:] == 0)

    def test_single_character(self):
        eta, z0, c = 5, 0b10110, 9
        x = np.arange(1 << eta)
        signs = 1 - 2 * (np.bitwise_count(np.uint64(z0) & x.astype(np.uint64)) & 1).astype(np.int64)
        f = SampledFunction(eta=eta, d=6, values=c * signs)
        s = wht_forward(f)
        expected = np.zeros(1 << eta, dtype=np.int64)
        expected[z0] = c << eta
        assert np.array_equal(s.coeffs, expected)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(7)
        f = random_function(rng, eta=6, d=7)
        assert np.array_equal(wht_forward(f).coeffs, naive_wht(f.values))

    def test_coefficient_width(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_function(rng, eta=5, d=6)
            s = wht_forward(f)
            assert s.b == 11
            assert np.max(np.abs(s.coeffs)) <= 1 << (s.b - 1)


class TestInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for eta in (1, 4, 8, 12):
            f = random_function(rng, eta=eta, d=5)
            g = wht_inverse(wht_forward(f))
            assert all(gx == Fraction(int(fx)) for gx, fx in zip(g, f.values))

    def test_single_dc_coefficient(self):
        eta = 3
        coeffs = np.zeros(8, dtype=np.int64)
        coeffs[0] = 1 << eta
        from whqrom.wht import WalshSpectrum

        g = wht_inverse(WalshSpectrum(eta=eta, b=eta + 2, coeffs=coeffs))
        assert all(v == 1 for v in g)

    def test_full_truncation_reproduces_f(self):
        rng = np.random.default_rng(13)
        f = random_function(rng, eta=6, d=5)
        trunc = minimal_truncation(f, epsilon=1e-30)
        g = wht_inverse(trunc)
        assert all(gx == Fraction(int(fx)) for gx, fx in zip(g, f.values))


@settings(max_examples=40, deadline=None)
@given(
    eta=st.integers(min_value=0, max_value=8),
    d=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_involution_property(eta, d, seed):
    # forward applied twice returns 2**eta * f exactly
    rng = np.random.default_rng(seed)
    f = random_function(rng, eta, d)
    once = wht_forward(f).coeffs
    twice = naive_like_butterfly(once)
    assert np.array_equal(twice, np.asarray(f.values) << eta)


def naive_like_butterfly(coeffs):
    from whqrom.wht import _butterfly

    return _butterfly(coeffs)


@settings(max_examples=40, deadline=None)
@given(
    eta=st.integers(min_value=0, max_value=8),
    d=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_parseval_style_bound(eta, d, seed):
    rng = np.random.default_rng(seed)
    f = random_function(rng, eta, d)
    s = wht_forward(f)
    bound = (1 << eta) * max(1, int(np.max(np.abs(f.values))))
    assert int(np.max(np.abs(s.coeffs))) <= bound


class TestDiagError:
    def test_equal_inputs(self):
        f = SampledFunction(eta=3, d=5, values=np.arange(8))
        assert diag_error(f, list(f.values)) == 0.0

    def test_half_period_wraparound(self):
        d = 6
        f = SampledFunction(eta=2, d=d, values=np.zeros(4, dtype=np.int64))
        g = np.full(4, -(1 << (d - 1)))
        assert diag_error(f, g) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period_maximal(self):
        d = 6
        f = SampledFunction(eta=2, d=d, values=np.zeros(4, dtype=np.int64))
        g = np.full(4, -(1 << (d - 2)))
        assert diag_error(f, g) == pytest.approx(2.0, abs=1e-12)

    def test_length_mismatch(self):
        f = SampledFunction(eta=2, d=4, values=np.zeros(4, dtype=np.int64))
        with pytest.raises(ShapeError):
            diag_error(f, [0, 0, 0])

    def test_accepts_fractions(self):
        f = SampledFunction(eta=2, d=4, values=np.array([1, 2, 3, -4]))
        g = [Fraction(1, 4), Fraction(2), Fraction(3), Fraction(-4)]
        expected = 2 * abs(np.sin(2 * np.pi / 16 * 0.75))
        assert diag_error(f, g) == pytest.approx(expected, rel=1e-12)

    def test_explicit_width_overrides_period(self):
        f = SampledFunction(eta=1, d=4, values=np.array([4, 0]))
        g = [0, 0]
        # against d = 4 the gap of 4 is a quarter period (max distance);
        # against d = 5 it is an eighth
        assert diag_error(f, g) == pytest.approx(2.0, abs=1e-12)
        assert diag_error(f, g, d=5) == pytest.approx(
            2 * np.sin(2 * np.pi / 32 * 4), rel=1e-12
        )

    def test_bare_sequences_need_explicit_width(self):
        with pytest.raises(RangeError):
            diag_error([1, 2], [0, 0])
        assert diag_error([1, 2], [1, 2], d=4) == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), d=st.integers(min_value=2, max_value=8))
def test_diag_error_pseudometric(seed, d):
    rng = np.random.default_rng(seed)
    eta = 3
    f = random_function(rng, eta, d)
    a = list(f.values)
    b = list(rng.integers(-(1 << (d - 1)), 1 << (d - 1), size=1 << eta))
    c = list(rng.integers(-(1 << (d - 1)), 1 << (d - 1), size=1 << eta))
    d_ab = diag_error(f, b)
    d_ab_swapped = diag_error(SampledFunction(eta=eta, d=d, values=np.array(b)), a)
    assert d_ab == pytest.approx(d_ab_swapped, abs=1e-12)
    fa = SampledFunction(eta=eta, d=d, values=np.array(a))
    fb = SampledFunction(eta=eta, d=d, values=np.array(b))
    assert diag_error(fa, c) <= diag_error(fa, b) + diag_error(fb, c) + 1e-12


class TestMinimalTruncation:
    def test_constant_function(self):
        f = SampledFunction(eta=4, d=6, values=np.full(16, 5))
        trunc = minimal_truncation(f, epsilon=0.25)
        assert trunc.k == 1 and trunc.support == {0}

    def test_zero_function(self):
        f = SampledFunction(eta=4, d=6, values=np.zeros(16, dtype=np.int64))
        assert minimal_truncation(f, epsilon=0.25).k == 0

    def test_two_equal_characters_need_both(self):
        # f = m(-1)^<x,z1> + m(-1)^<x,z2>: either alone leaves error above
        # its own contribution, so the scan must take k = 2.
        eta, d, m = 4, 8, 3
        z1, z2 = 0b0011, 0b0101
        x = np.arange(1 << eta, dtype=np.uint64)

        def ch(z):
            return 1 - 2 * (np.bitwise_count(x & np.uint64(z)) & 1).astype(np.int64)

        f = SampledFunction(eta=eta, d=d, values=m * ch(z1) + m * ch(z2))
        eps_one = diag_error(f, m * ch(z1))
        trunc = minimal_truncation(f, epsilon=eps_one * 0.5)
        assert trunc.k == 2
        assert trunc.support == {z1, z2}

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(23)
        eta, d = 8, 8
        f = random_function(rng, eta, d)
        eps = 2.0**-10
        curve = truncation_error_curve(f)
        expected_k = int(np.nonzero(curve < eps)[0][0])
        assert minimal_truncation(f, eps).k == expected_k

    def test_result_error_below_epsilon_and_scan_consistent(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            eta = int(rng.integers(2, 8))
            d = int(rng.integers(3, 9))
            f = random_function(rng, eta, d)
            eps = float(2.0 ** -rng.integers(2, 9))
            trunc = minimal_truncation(f, eps)
            assert trunc.error(f) < eps
            if trunc.k > 0:
                shrunk = type(trunc)(base=trunc.base, k=trunc.k - 1, order=trunc.order)
                assert shrunk.error(f) >= eps

    def test_full_truncation_error_exactly_zero(self):
        rng = np.random.default_rng(31)
        f = random_function(rng, eta=5, d=6)
        trunc = minimal_truncation(f, epsilon=1e-300)
        assert trunc.error(f) == 0.0

    def test_k_equal_full_domain_error_exactly_zero(self):
        from whqrom.wht import TruncatedSpectrum

        rng = np.random.default_rng(33)
        f = random_function(rng, eta=6, d=5)
        trunc = minimal_truncation(f, epsilon=0.5)
        order = full_order(trunc.base.coeffs)
        full = TruncatedSpectrum(base=trunc.base, k=f.n, order=order)
        assert full.error(f) == 0.0

    def test_tie_break_smaller_mask_first(self):
        eta, d, m = 3, 6, 4
        x = np.arange(1 << eta, dtype=np.uint64)
        ch = lambda z: 1 - 2 * (np.bitwise_count(x & np.uint64(z)) & 1).astype(np.int64)
        f = SampledFunction(eta=eta, d=d, values=m * ch(0b110) + m * ch(0b011))
        trunc = minimal_truncation(f, epsilon=1e-30)
        assert trunc.order[0] == 0b011  # equal magnitude, smaller mask first

    def test_epsilon_validation(self):
        f = SampledFunction(eta=2, d=4, values=np.zeros(4, dtype=np.int64))
        with pytest.raises(RangeError):
            minimal_truncation(f, epsilon=0.0)


def _hard_table(kind, rng, eta, d):
    """Tables that stress the skip-ahead search of minimal_truncation."""
    n, half = 1 << eta, 1 << (d - 1)
    noise = rng.integers(-2, 3, size=n)
    if kind == "uniform":
        values = rng.integers(-half, half, size=n)
    elif kind == "quarter":
        # numerators near +/- 2**(b-2): as far from both pass arcs as possible
        values = rng.choice([-(half >> 1), half >> 1], size=n) + noise
    elif kind == "half":
        # numerators near the half-period arc, wrapping across -2**(b-1)
        values = rng.choice([-half, half - 1], size=n) + noise
    elif kind == "spikes":
        # a few quarter-height spikes: a flat spectrum the search crosses in
        # jumps of hundreds of terms, after the steps of an optional character
        values = noise * (d > 6)
        values[rng.integers(0, n, size=int(rng.integers(1, 4)))] += rng.choice([-1, 1]) * (half >> 1)
        x = np.arange(n, dtype=np.uint64)
        character = 1 - 2 * (np.bitwise_count(x & np.uint64(rng.integers(0, n))).astype(np.int64) & 1)
        values += int(rng.integers(0, 2)) * (half >> 2) * character
    else:  # "ties": equal-magnitude characters, broken only by the mask order
        x = np.arange(n, dtype=np.uint64)
        values = np.zeros(n, dtype=np.int64)
        m = int(rng.integers(1, max(2, half // 4)))
        for z in rng.integers(0, n, size=int(rng.integers(1, 5))):
            values += m * (1 - 2 * (np.bitwise_count(x & np.uint64(z)).astype(np.int64) & 1))
    return SampledFunction(eta=eta, d=d, values=np.clip(values, -half, half - 1))


@settings(max_examples=200, deadline=None)
@given(
    eta=st.integers(min_value=1, max_value=10),
    d=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
    kind=st.sampled_from(["uniform", "quarter", "half", "ties", "spikes"]),
    epsilon=st.one_of(
        st.integers(min_value=1, max_value=14).map(lambda j: 2.0**-j), st.just(1e-300)
    ),
)
def test_skip_search_matches_linear_scan(eta, d, seed, kind, epsilon):
    f = _hard_table(kind, np.random.default_rng(seed), eta, d)
    trunc = minimal_truncation(f, epsilon)
    curve = truncation_error_curve(f, upto=trunc.k)
    assert curve[trunc.k] < epsilon
    assert np.all(curve[: trunc.k] >= epsilon)
    assert trunc.order.dtype == np.int64 and not trunc.order.flags.writeable


@settings(max_examples=200, deadline=None)
@given(
    eta=st.integers(min_value=1, max_value=10),
    d=st.integers(min_value=2, max_value=33),
    seed=st.integers(min_value=0, max_value=2**31),
    kind=st.sampled_from(["smooth", "uniform", "quarter", "half", "ties", "spikes"]),
    epsilon=st.integers(min_value=2, max_value=14).map(lambda j: 2.0**-j),
)
def test_curve_at_k_is_the_truncation_error(eta, d, seed, kind, epsilon):
    # wht-analyze reports curve[k] as the error at the chosen k: the scan's
    # error must equal the reconstruction's bit for bit
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        x = np.arange(1 << eta) / (1 << eta)
        f = quantize(0.9 * np.cos(2 * np.pi * x + rng.uniform(0, 2 * np.pi)), d)
    else:
        f = _hard_table(kind, rng, eta, d)
    trunc = minimal_truncation(f, epsilon)
    assert truncation_error_curve(f, upto=trunc.k)[trunc.k] == trunc.error(f)


def test_skip_search_on_non_monotone_profiles():
    # every distinct error value of a non-monotone curve, used as epsilon
    # itself and just above it, must give the linear scan's first k
    rng = np.random.default_rng(47)
    checked = 0
    for kind in ("uniform", "quarter", "half", "ties"):
        for _ in range(4):
            f = _hard_table(kind, rng, int(rng.integers(3, 7)), int(rng.integers(3, 10)))
            curve = truncation_error_curve(f)
            if not np.any(np.diff(curve) > 0):
                continue
            checked += 1
            for err in np.unique(curve):
                for epsilon in (err, np.nextafter(err, np.inf)):
                    if epsilon > 0:
                        first = int(np.flatnonzero(curve < epsilon)[0])
                        assert minimal_truncation(f, epsilon).k == first
    assert checked >= 8


def test_skip_search_lands_on_both_sides_of_the_product_limit(monkeypatch):
    # a landing more than R = 32 eta terms ahead is a rebuild, a nearer one a
    # product: searches that switch between them in both orders still return
    # the linear scan's k
    jumps = []
    rebuild, advance = wht._rebuild, wht._IncrementalScan.advance

    def spy_rebuild(scan, spectrum, k):
        jumps.append((k - scan.k, True))
        rebuild(scan, spectrum, k)

    def spy_advance(scan, count=1):
        jumps.append((count, False))
        advance(scan, count)

    monkeypatch.setattr(wht, "_rebuild", spy_rebuild)
    monkeypatch.setattr(wht._IncrementalScan, "advance", spy_advance)
    rng = np.random.default_rng(61)
    up = down = 0
    for _ in range(24):
        eta, d = int(rng.integers(9, 11)), int(rng.integers(4, 13))
        f = _hard_table("spikes", rng, eta, d)
        curve = truncation_error_curve(f)
        for epsilon in (2.0**-4, 2.0**-10, 1e-300):
            jumps.clear()
            assert minimal_truncation(f, epsilon).k == int(np.flatnonzero(curve < epsilon)[0])
            limit = 32 * eta
            assert all((size > limit) == rebuilt for size, rebuilt in jumps)
            sizes = [size for size, _ in jumps]
            up += any(a <= limit < b for a, b in zip(sizes, sizes[1:]))
            down += any(a > limit >= b > 1 for a, b in zip(sizes, sizes[1:]))
    assert up and down


def test_epsilon_at_or_above_two():
    rng = np.random.default_rng(53)
    f = random_function(rng, eta=6, d=7)
    curve = truncation_error_curve(f)
    assert minimal_truncation(f, 2.5).k == 0
    assert minimal_truncation(f, 2.0).k == int(np.flatnonzero(curve < 2.0)[0])


@settings(max_examples=30, deadline=None)
@given(
    eta=st.integers(min_value=1, max_value=7),
    d=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_truncation_retains_largest_magnitudes(eta, d, seed, frac):
    rng = np.random.default_rng(seed)
    f = random_function(rng, eta, d)
    trunc = minimal_truncation(f, epsilon=1e-300)
    full = full_order(trunc.base.coeffs)
    assert np.array_equal(trunc.order, full[: len(trunc.order)])
    k = int(frac * len(full))
    clipped = type(trunc)(base=trunc.base, k=k, order=full)
    coeffs = np.abs(trunc.base.coeffs)
    retained = [coeffs[z] for z in clipped.order[:k]]
    dropped = [coeffs[z] for z in clipped.order[k:]]
    if retained and dropped:
        assert min(retained) >= max(dropped)


@settings(max_examples=300, deadline=None)
@given(
    eta=st.integers(min_value=0, max_value=11),
    levels=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=1, max_value=2100),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_order_prefix_equals_full_lexsort(eta, levels, count, seed):
    # few distinct magnitudes, zero among them, so the selection threshold
    # falls inside a long run of ties broken only by the mask
    n = 1 << eta
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, levels, size=n) * rng.choice([-1, 1], size=n)
    prefix = wht._truncation_order(coeffs, count)
    full = full_order(coeffs)
    assert len(prefix) >= min(count, n)
    assert np.array_equal(prefix, full[: len(prefix)])
    last = abs(coeffs[prefix[-1]])
    assert np.count_nonzero(np.abs(coeffs) >= last) == len(prefix)


@pytest.mark.parametrize("prefix", [1, 2])
def test_skip_search_doubles_a_short_prefix(monkeypatch, prefix):
    # a prefix of one or two masks makes nearly every landing pass its end;
    # the k must still be the linear scan's
    calls = []
    order = wht._truncation_order

    def spy(coeffs, count):
        calls.append(count)
        return order(coeffs, count)

    monkeypatch.setattr(wht, "_PREFIX", prefix)
    monkeypatch.setattr(wht, "_truncation_order", spy)
    rng = np.random.default_rng(67)
    doubled = 0
    for kind in ("uniform", "quarter", "ties", "spikes"):
        for _ in range(3):
            f = _hard_table(kind, rng, int(rng.integers(5, 10)), int(rng.integers(4, 12)))
            curve = truncation_error_curve(f)
            for epsilon in (2.0**-3, 2.0**-8, 1e-300):
                calls.clear()
                trunc = minimal_truncation(f, epsilon)
                assert trunc.k == int(np.flatnonzero(curve < epsilon)[0])
                assert trunc.k <= len(trunc.order)
                assert calls == sorted(calls)
                assert calls[:1] in ([], [min(2, np.count_nonzero(trunc.base.coeffs))])
                doubled += len(calls) > 1
    assert doubled >= 20


@pytest.mark.parametrize("family", ["harmonic", "morse"])
def test_search_peak_memory_at_eta_16(family):
    # in units of one 2**eta int64 array: coeffs, the scan's state and its
    # scratch, and at most two more (8 when the whole order was sorted)
    eta = 16
    grid = np.stack(synthetic.grid_coordinates(eta, 2), axis=-1)
    f = quantize(synthetic.make_pes(family, dims=2).func(grid), d=eta + 8)
    tracemalloc.start()
    try:
        trunc = minimal_truncation(f, 2.0**-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trunc.k > 0
    assert peak <= 5 * (8 << eta)


def full_array_error(num, period):
    """diag_error from the state 2**eta (f - g_k) mod 2**b, over every address."""
    half = period >> 1
    centered = np.where(num >= half, num - period, num)
    return float(2.0 * np.max(np.abs(np.sin(2.0 * np.pi / float(period) * centered))))


def _scan(eta, b, coeffs=None, order=None):
    f = SampledFunction(eta=eta, d=b - eta, values=np.zeros(1 << eta, dtype=np.int64))
    if coeffs is None:
        coeffs = np.zeros(1 << eta, dtype=np.int64)
    if order is None:
        order = np.arange(1 << eta, dtype=np.int64)
    return wht._IncrementalScan(f, coeffs, order)


@st.composite
def scan_states(draw):
    """States for b up to 62, packed on both sides of the quarter points P/4
    and 3P/4, or of a random r and its images P/2 - r, P/2 + r and P - r,
    which lie as far from a quarter point as r and so stress the float
    rounding that the error's window has to cover."""
    eta = draw(st.integers(min_value=0, max_value=6))
    b = draw(st.integers(min_value=max(3, eta + 1), max_value=62))
    period = 1 << b
    scan = _scan(eta, b)
    w = scan.window
    offsets = st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=w - 3, max_value=w + 3),
        st.integers(min_value=-w - 3, max_value=-w + 3),
        st.integers(min_value=-3 * w, max_value=3 * w),
    )
    if draw(st.booleans()):
        centres = [period >> 2, 3 * (period >> 2)]
    else:
        r = draw(st.integers(0, period - 1))
        centres = [r, (period >> 1) - r, (period >> 1) + r, period - r]
    point = st.one_of(
        st.sampled_from(centres).flatmap(lambda c: offsets.map(lambda o: c + o)),
        st.integers(min_value=0, max_value=period - 1),
    )
    values = draw(st.lists(point, min_size=1 << eta, max_size=1 << eta))
    scan.num = np.array([v % period for v in values], dtype=np.int64)
    return scan


@settings(max_examples=300, deadline=None)
@given(scan=scan_states())
def test_windowed_error_equals_full_array_formula(scan):
    assert scan.error() == full_array_error(scan.num, scan.period)
    half = scan.period >> 1
    assert scan.dist_min == min(abs(int(v) % half - (half >> 1)) for v in scan.num)


def test_windowed_error_where_float_rounding_reorders_addresses():
    # at large b an address and an image of it a few hundred units farther
    # from the quarter point can round to the larger |sin|: the window must
    # reach that image
    rng = np.random.default_rng(59)
    for _ in range(3000):
        b = int(rng.integers(40, 63))
        period = 1 << b
        r = int(rng.integers(0, period))
        images = [(period >> 1) - r, (period >> 1) + r, period - r]
        num = [r] + [int(rng.choice(images)) + int(rng.integers(-300, 301)) for _ in range(3)]
        scan = _scan(2, b)
        scan.num = np.array([v % period for v in num], dtype=np.int64)
        assert scan.error() == full_array_error(scan.num, period)


@settings(max_examples=300, deadline=None)
@given(
    eta=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_masked_advance_equals_mod_update(eta, data):
    b = data.draw(st.integers(min_value=eta + 1, max_value=62))
    period, half = 1 << b, 1 << (b - 1)
    near_top = st.integers(min_value=0, max_value=min(4, half)).map(lambda o: half - o)
    c = data.draw(st.one_of(st.integers(-half, half), near_top, near_top.map(lambda v: -v)))
    z = data.draw(st.integers(min_value=0, max_value=(1 << eta) - 1))
    coeffs = np.zeros(1 << eta, dtype=np.int64)
    coeffs[z] = c
    order = np.array([z] + [m for m in range(1 << eta) if m != z], dtype=np.int64)
    scan = _scan(eta, b, coeffs, order)
    num = data.draw(
        st.lists(st.integers(0, period - 1), min_size=1 << eta, max_size=1 << eta)
    )
    scan.num = np.array(num, dtype=np.int64)
    x = np.arange(1 << eta, dtype=np.uint64)
    signs = 1 - 2 * (np.bitwise_count(x & np.uint64(z)).astype(np.int64) & 1)
    expected = np.mod(scan.num - signs * c, period)
    scan.advance()
    assert scan.k == 1
    assert np.array_equal(scan.num, expected)


@settings(max_examples=300, deadline=None)
@given(
    eta=st.integers(min_value=0, max_value=10),
    data=st.data(),
)
def test_advance_by_count_equals_single_steps(eta, data):
    # one separable product over m coefficients against m single steps, bit
    # for bit; b above the limb width 52 - m.bit_length() takes two limbs
    n = 1 << eta
    b = data.draw(st.integers(min_value=eta + 1, max_value=62))
    period, half = 1 << b, 1 << (b - 1)
    m = data.draw(st.integers(min_value=1, max_value=n))
    start = data.draw(st.integers(min_value=0, max_value=n - m))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32)))
    coeffs = rng.integers(-half, half, size=n, endpoint=True)
    limb = 1 << (52 - m.bit_length())
    edges = [half, -half, half - 1, 1 - half] + [v for v in (limb - 1, limb, limb + 1) if v <= half]
    special = st.sampled_from(edges).flatmap(lambda v: st.sampled_from([v, -v]))
    for z, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), special), max_size=8)):
        coeffs[z] = v
    order = rng.permutation(n).astype(np.int64)
    num = rng.integers(0, period, size=n)
    product, steps = _scan(eta, b, coeffs, order), _scan(eta, b, coeffs, order)
    product.num, steps.num = num.copy(), num.copy()
    product.k = steps.k = start
    product.advance(m)
    for _ in range(m):
        steps.advance()
    assert product.k == steps.k == start + m
    assert product.num.dtype == np.int64
    assert np.array_equal(product.num, steps.num)


def copy_butterfly(values):
    """The radix-2 butterfly that copies both halves at every level."""
    a = np.array(values, dtype=np.int64)
    h = 1
    while h < a.shape[0]:
        a = a.reshape(-1, 2 * h)
        lo, hi = a[:, :h].copy(), a[:, h:].copy()
        a[:, :h] = lo + hi
        a[:, h:] = lo - hi
        a = a.reshape(-1)
        h *= 2
    return a


@settings(max_examples=60, deadline=None)
@given(
    eta=st.integers(min_value=0, max_value=12),
    bits=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_in_place_butterfly_equals_copy_and_hadamard(eta, bits, seed):
    from scipy.linalg import hadamard

    n = 1 << eta
    values = np.random.default_rng(seed).integers(-(1 << (bits - 1)), 1 << (bits - 1), size=n)
    before = values.copy()
    got = wht._butterfly(values)
    assert np.array_equal(values, before)
    assert np.array_equal(got, copy_butterfly(values))
    signs = hadamard(n, dtype=np.int8)
    rows = [block.astype(np.int64) @ values for block in np.array_split(signs, max(1, n // 256))]
    assert np.array_equal(got, np.concatenate(rows))


def radix2_butterfly(values):
    """The plain radix-2 loop: each level in place on pairs of h-long rows,
    with a half-length scratch for the differences."""
    a = np.array(values, dtype=np.int64)
    tmp = np.empty(a.shape[0] // 2, dtype=np.int64)
    h = 1
    while h < a.shape[0]:
        pairs = a.reshape(-1, 2, h)
        lo, hi, diff = pairs[:, 0], pairs[:, 1], tmp.reshape(-1, h)
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff
        h *= 2
    return a


INT64 = np.iinfo(np.int64)


@settings(max_examples=150, deadline=None)
@given(
    eta=st.integers(min_value=0, max_value=18),
    block_bits=st.sampled_from([wht._BLOCK_BITS, 1, 2, 3, 4, 7]),
    seed=st.integers(min_value=0, max_value=2**32),
    edges=st.lists(
        st.tuples(st.integers(min_value=0), st.sampled_from([INT64.min, INT64.max, -1, 0, 1])),
        max_size=6,
    ),
)
def test_blocked_butterfly_equals_radix2_loop(eta, block_bits, seed, edges):
    # full-range int64 values wrap on the first level; below eta 17 the
    # block holds eta - 1 levels, an odd count at every even eta, and the
    # small block sizes put odd stage counts on many blocks at once
    values = np.random.default_rng(seed).integers(INT64.min, INT64.max, size=1 << eta, endpoint=True)
    for i, v in edges:
        values[i % values.size] = v
    before = values.copy()
    with patch.object(wht, "_BLOCK_BITS", block_bits):
        got = wht._butterfly(values)
    assert got.dtype == np.int64
    assert np.array_equal(values, before)
    assert np.array_equal(got, radix2_butterfly(values))


@pytest.mark.parametrize("eta", [19, 20])
def test_blocked_butterfly_over_several_blocks(eta):
    rng = np.random.default_rng(eta)
    values = rng.integers(INT64.min, INT64.max, size=1 << eta, endpoint=True)
    values[rng.integers(0, 1 << eta, size=64)] = INT64.max
    before = values.copy()
    got = wht._butterfly(values)
    assert np.array_equal(values, before)
    assert np.array_equal(got, radix2_butterfly(values))
    # quantized tables do not wrap: forward twice is 2**eta times the table
    f = random_function(rng, eta, 62 - eta)
    assert np.array_equal(wht._butterfly(wht_forward(f).coeffs), f.values << eta)


@pytest.mark.parametrize("eta", [12, 16])
def test_butterfly_peak_memory(eta):
    # the copy and the half-length scratch, and a few KiB of views; the
    # radix-2 loop took 3.05 arrays at eta 12 and 1.88 at eta 16
    values = np.random.default_rng(eta).integers(-(1 << 40), 1 << 40, size=1 << eta)
    tracemalloc.start()
    try:
        wht._butterfly(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (8 << eta) + (16 << 10)


@pytest.mark.parametrize("family", ["harmonic", "morse"])
def test_rebuild_peak_memory_at_eta_16(family):
    # one copy of the spectrum, transformed in place with its scratch (2.88
    # arrays when the butterfly copied the masked spectrum and the table
    # scaled by 2**eta was a temporary)
    eta = 16
    grid = np.stack(synthetic.grid_coordinates(eta, 2), axis=-1)
    f = quantize(synthetic.make_pes(family, dims=2).func(grid), d=15)
    trunc = minimal_truncation(f, 2.0**-10)
    scan = wht._IncrementalScan(f, trunc.base.coeffs, trunc.order)
    for _ in range(trunc.k):
        scan.advance()
    expected = scan.num
    scan = wht._IncrementalScan(f, trunc.base.coeffs, trunc.order)
    tracemalloc.start()
    try:
        wht._rebuild(scan, trunc.base, trunc.k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.k == trunc.k
    assert np.array_equal(scan.num, expected)
    assert peak <= 1.5 * (8 << eta) + (64 << 10)


def test_curve_takes_the_search_spectrum():
    rng = np.random.default_rng(97)
    f = random_function(rng, 9, 12)
    trunc = minimal_truncation(f, 2.0**-8)
    upto = min(trunc.k + 16, f.n)
    own = truncation_error_curve(f, upto=upto)
    assert np.array_equal(truncation_error_curve(f, upto, spectrum=trunc.base), own)
    with pytest.raises(ShapeError, match="does not fit f"):
        truncation_error_curve(f, 4, spectrum=wht_forward(random_function(rng, 8, 12)))
    with pytest.raises(ShapeError, match="does not fit f"):
        truncation_error_curve(f, 4, spectrum=wht_forward(random_function(rng, 9, 13)))


@pytest.mark.parametrize("upto", [-1, 17, 20])
def test_curve_refuses_upto_outside_the_table(upto):
    # on 16 samples upto = 20 once ended in an IndexError and upto = -1 in
    # numpy's partition error
    f = random_function(np.random.default_rng(101), 4, 8)
    with pytest.raises(RangeError, match=rf"upto = {upto} outside \[0, 16\]"):
        truncation_error_curve(f, upto=upto)
    assert len(truncation_error_curve(f, upto=0)) == 1
    assert len(truncation_error_curve(f, upto=16)) == 17


class TestFileIngestion:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        data = rng.uniform(-1, 1, size=64)
        path = tmp_path / "theta.f64"
        path.write_bytes(data.astype("<f8").tobytes())
        assert np.array_equal(read_theta_binary(path), data)

    def test_csv_round_trip(self, tmp_path):
        data = np.array([0.5, -0.25, 0.125, -0.0625])
        path = tmp_path / "theta.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in data))
        assert np.allclose(read_theta_csv(path), data)

    def test_csv_and_binary_agree(self, tmp_path):
        rng = np.random.default_rng(43)
        data = rng.uniform(-1, 1, size=32)
        b = tmp_path / "t.f64"
        c = tmp_path / "t.csv"
        b.write_bytes(data.astype("<f8").tobytes())
        c.write_text("".join(f"{float(v)!r}\n" for v in data))
        fb = quantize(read_theta(b), d=10)
        fc = quantize(read_theta(c), d=10)
        assert np.array_equal(fb.values, fc.values)

    def test_csv_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5\nnot-a-number\n")
        with pytest.raises(ParseError, match=":2"):
            read_theta_csv(path)

    def test_csv_non_finite_sample_carries_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0.5\n0.25\nnan\n0.0\n")
        with pytest.raises(ParseError, match=":3: sample 'nan' is not finite"):
            read_theta_csv(path)

    def test_binary_non_finite_sample_carries_index(self, tmp_path):
        path = tmp_path / "inf.f64"
        path.write_bytes(np.array([0.5, 0.0, -np.inf, 0.1]).astype("<f8").tobytes())
        with pytest.raises(ParseError, match="sample 2 is not finite"):
            read_theta_binary(path)

    def test_binary_length_validation(self, tmp_path):
        path = tmp_path / "bad.f64"
        path.write_bytes(b"\x00" * 24)  # 3 floats, not a power of two
        with pytest.raises(ParseError):
            read_theta_binary(path)

    def test_oversized_binary_refused_before_reading(self, tmp_path, monkeypatch):
        path = tmp_path / "huge.f64"
        path.touch()
        os.truncate(path, 8 << (wht.MAX_ETA + 1))  # sparse: takes no disk space

        def spy(self):
            raise AssertionError(f"{self} was read")

        monkeypatch.setattr(Path, "read_bytes", spy)
        with pytest.raises(ScaleError, match="MAX_ETA"):
            read_theta_binary(path)

    def test_binary_limit_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wht, "MAX_ETA", 2)
        path = tmp_path / "t.f64"
        path.write_bytes(np.zeros(4).astype("<f8").tobytes())
        assert read_theta_binary(path).size == 4
        path.write_bytes(np.zeros(8).astype("<f8").tobytes())
        with pytest.raises(ScaleError, match="2\\*\\*MAX_ETA = 4 samples"):
            read_theta_binary(path)

    def test_csv_peak_memory_per_sample(self, tmp_path):
        n = 1 << 16
        path = tmp_path / "t.csv"
        data = np.random.default_rng(71).uniform(-1, 1, size=n)
        path.write_text("".join(f"{float(v)!r}\n" for v in data))
        tracemalloc.start()
        try:
            got = read_theta_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, data)
        assert peak <= 16 * n

    def test_csv_refused_at_the_first_line_past_the_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wht, "MAX_ETA", 2)
        path = tmp_path / "t.csv"
        path.write_text("0.5\n\n0.25\n0.0\n-0.5\n")
        assert read_theta_csv(path).size == 4
        path.write_text("0.5\n\n0.25\n0.0\n-0.5\n0.1\nnot-a-number\n")
        with pytest.raises(ScaleError, match=":6: more than 2\\*\\*MAX_ETA = 4 samples"):
            read_theta_csv(path)
