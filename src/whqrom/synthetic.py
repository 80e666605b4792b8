"""Bundled synthetic potential surfaces with documented gradient bounds.

Each generator returns a table sampled on the Boolean cube (eta bits split
evenly across dims coordinates, each coordinate a uniform grid on [0, 1))
together with a Lipschitz bound on the underlying continuous function, so
the discretization-error theorem applies directly.

The separable harmonic uses a power-of-two curvature and dyadic center, so
its fixed-point quantization is exact whenever d - 1 >= 2 m + 2 for the
per-coordinate bit width m; its Walsh spectrum is then supported on masks
of Hamming weight <= 2 within each coordinate block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, RangeError, ScaleError
from .wht import MAX_ETA  # the largest eta a synthetic table is sampled at

__all__ = [
    "SyntheticPes",
    "MAX_ETA",
    "check_grid",
    "grid_coordinates",
    "separable_harmonic",
    "morse_sum",
    "gaussian_wells",
    "make_pes",
    "PES_GENERATORS",
]


@dataclass(frozen=True)
class SyntheticPes:
    """A named continuous surface on [0,1]^dims plus its gradient bound."""

    name: str
    dims: int
    func: Callable[[np.ndarray], np.ndarray]
    grad_bound: float

    def sample(self, eta: int) -> np.ndarray:
        """Values on the 2**eta cube; coordinates in [0, 1) per dimension."""
        qs = grid_coordinates(eta, self.dims)
        return self.func(np.stack(qs, axis=-1))


def check_grid(eta: int, dims: int) -> None:
    """Refuse a split :func:`grid_coordinates` cannot make, allocating nothing."""
    if dims < 1 or eta < dims:
        raise RangeError(f"cannot split {eta} bits into {dims} coordinates")
    if eta > MAX_ETA:
        raise ScaleError(f"eta = {eta} exceeds the limit MAX_ETA = {MAX_ETA}")


def grid_coordinates(eta: int, dims: int) -> list[np.ndarray]:
    """Split eta bits into dims uniform coordinates on [0, 1).

    The first coordinates get the extra bits when eta % dims != 0; the
    lowest-order bits of the index feed the first coordinate.
    """
    check_grid(eta, dims)
    bits = [eta // dims + (1 if i < eta % dims else 0) for i in range(dims)]
    x = np.arange(1 << eta)
    out = []
    shift = 0
    for m in bits:
        out.append(((x >> shift) & ((1 << m) - 1)) / float(1 << m))
        shift += m
    return out


def separable_harmonic(dims: int, curvature: float = 1.0) -> SyntheticPes:
    """theta(q) = curvature * sum_i (q_i - 1/2)**2 - 1/2, in [-1/2, ...).

    Gradient bound: |grad| <= curvature * sqrt(dims).  With a power-of-two
    curvature the quantized table is exact for modest per-coordinate widths
    and the spectrum concentrates on within-coordinate masks of weight <= 2.
    """
    if curvature <= 0 or curvature > 2:
        raise RangeError("curvature must lie in (0, 2] to keep theta in [-1, 1)")

    def func(q: np.ndarray) -> np.ndarray:
        return curvature * np.sum((q - 0.5) ** 2, axis=-1) - 0.5

    return SyntheticPes(
        name="harmonic",
        dims=dims,
        func=func,
        grad_bound=curvature * math.sqrt(dims),
    )


def morse_sum(dims: int, depth: float = 0.4, steepness: float = 2.0, center: float = 0.25) -> SyntheticPes:
    """theta(q) = depth * sum_i (1 - exp(-a (q_i - q0)))**2 - 1/2.

    Gradient bound per coordinate: 2 * depth * a * e(e - 1) evaluated at the
    worst grid edge e = exp(a * q0) (the inner wall), times sqrt(dims)
    overall.
    """
    if depth <= 0 or steepness <= 0 or not 0 < center < 1:
        raise RangeError("morse parameters out of range")
    wall = math.exp(steepness * center)
    per_coord = 2.0 * depth * steepness * wall * max(wall - 1.0, 0.25)
    top = depth * (1.0 - math.exp(-steepness * center)) ** 2 * dims
    top = max(top, depth * (1.0 - math.exp(-steepness * (1 - center))) ** 2 * dims)
    if top - 0.5 >= 1.0:
        raise RangeError("morse surface exceeds [-1, 1); lower depth or steepness")

    def func(q: np.ndarray) -> np.ndarray:
        return depth * np.sum((1.0 - np.exp(-steepness * (q - center))) ** 2, axis=-1) - 0.5

    return SyntheticPes(
        name="morse",
        dims=dims,
        func=func,
        grad_bound=per_coord * math.sqrt(dims),
    )


def gaussian_wells(
    dims: int, wells: int = 3, depth: float = 0.3, width: float = 0.18, seed: int = 7
) -> SyntheticPes:
    """Coupled wells: theta(q) = 0.4 - sum_w depth_w exp(-|q - c_w|^2 / 2 s^2).

    Gradient bound: sum_w depth_w * exp(-1/2) / s (the radial maximum of a
    Gaussian's gradient), independent of dims.  Centers are drawn once from
    the seeded generator, so the surface is reproducible.
    """
    if wells < 1 or depth <= 0 or width <= 0:
        raise RangeError("well parameters out of range")
    if wells * depth > 1.3:
        raise RangeError("total well depth exceeds [-1, 1) headroom")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(wells, dims))
    depths = depth * rng.uniform(0.5, 1.0, size=wells)

    def func(q: np.ndarray) -> np.ndarray:
        acc = np.full(q.shape[:-1], 0.4)
        for c, a in zip(centers, depths):
            r2 = np.sum((q - c) ** 2, axis=-1)
            acc = acc - a * np.exp(-r2 / (2.0 * width * width))
        return acc

    bound = float(np.sum(depths)) * math.exp(-0.5) / width
    return SyntheticPes(name="wells", dims=dims, func=func, grad_bound=bound)


PES_GENERATORS = {
    "harmonic": separable_harmonic,
    "morse": morse_sum,
    "wells": gaussian_wells,
}


def make_pes(name: str, dims: int, **kwargs) -> SyntheticPes:
    if dims < 1:
        raise RangeError(f"a surface needs at least one dimension, got dims = {dims}")
    try:
        gen = PES_GENERATORS[name]
    except KeyError as exc:
        raise ConfigError(
            f"unknown synthetic PES {name!r}; choose from {sorted(PES_GENERATORS)}"
        ) from exc
    return gen(dims, **kwargs)
