import numpy as np
import pytest

from whqrom.errors import ConfigError, RangeError, ScaleError
from whqrom.molham import discretization_bound_check
from whqrom.synthetic import (
    MAX_ETA,
    gaussian_wells,
    grid_coordinates,
    make_pes,
    morse_sum,
    separable_harmonic,
)
from whqrom.wht import quantize


class TestGrid:
    def test_even_split(self):
        qs = grid_coordinates(8, 2)
        assert len(qs) == 2
        assert qs[0].shape == (256,)
        assert set(np.unique(qs[0])) == {k / 16 for k in range(16)}

    def test_uneven_split(self):
        qs = grid_coordinates(7, 2)
        assert len(np.unique(qs[0])) == 16
        assert len(np.unique(qs[1])) == 8

    def test_bad_split(self):
        with pytest.raises(RangeError):
            grid_coordinates(2, 3)

    def test_eta_limit_checked_before_allocation(self):
        # 2**62 points could never be allocated: the guard must fire first
        for eta in (MAX_ETA + 1, 62):
            with pytest.raises(ScaleError, match="MAX_ETA"):
                grid_coordinates(eta, 2)


class TestGenerators:
    @pytest.mark.parametrize("name", ["harmonic", "morse", "wells"])
    def test_range_and_quantizable(self, name):
        pes = make_pes(name, dims=2)
        table = pes.sample(10)
        assert table.min() >= -1.0 and table.max() < 1.0
        quantize(table, d=12)  # should not raise

    def test_harmonic_exact_dyadic_quantization(self):
        pes = separable_harmonic(2)
        table = pes.sample(12)  # 6 bits per coordinate, d - 1 = 14 suffices
        scaled = table * 2**14
        assert np.array_equal(scaled, np.round(scaled))

    def test_gradient_bounds_hold_empirically(self):
        for pes in (separable_harmonic(2), morse_sum(2), gaussian_wells(2)):
            qs = np.stack(grid_coordinates(12, 2), axis=-1)
            vals = pes.func(qs)
            # finite-difference Lipschitz estimate along the first coordinate
            step = 1.0 / 64
            shifted = pes.func(qs + np.array([step, 0.0]))
            slope = np.max(np.abs(shifted - vals)) / step
            assert slope <= pes.grad_bound * 1.01

    def test_bound_feeds_discretization_theorem(self):
        pes = gaussian_wells(2, seed=5)
        measured, bound = discretization_bound_check(
            pes.func, dims=2, grad_bound=pes.grad_bound, m=3, m_prime=6
        )
        assert measured <= bound

    def test_wells_reproducible(self):
        a = gaussian_wells(3, seed=9).sample(9)
        b = gaussian_wells(3, seed=9).sample(9)
        assert np.array_equal(a, b)

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            make_pes("lennard-jones", dims=2)

    def test_parameter_validation(self):
        with pytest.raises(RangeError):
            separable_harmonic(2, curvature=5.0)
        with pytest.raises(RangeError):
            morse_sum(2, depth=-1.0)
        with pytest.raises(RangeError):
            gaussian_wells(2, wells=0)
