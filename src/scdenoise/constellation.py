"""Digital modulation alphabets: BPSK and square M-QAM with Gray mapping.

Every scheme is normalized to unit average symbol energy, so the channel
SNR definition downstream takes P = 1 and is sample-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConstellationScheme",
    "build_bpsk",
    "build_square_qam",
    "modulate",
    "demodulate_hard",
]

_SUPPORTED_QAM = (4, 16, 64)


@dataclass(frozen=True)
class ConstellationScheme:
    """A modulation alphabet: M complex points plus a Gray bit mapping.

    `order` (M), `axis_levels` and `grid_index` are derived from `points`.
    `axis_levels` holds the sorted levels shared by the real and the
    imaginary axis, when the points are exactly the product grid of those
    levels with themselves (square QAM), and None otherwise (BPSK, any other
    point set). On a grid, `grid_index[i, j]` is the index of the point
    axis_levels[i] + 1j * axis_levels[j], whatever order the points are in.
    """

    points: np.ndarray  # complex128, shape (M,)
    bit_map: tuple[str, ...]  # length M, each log2(M) chars of '0'/'1'
    order: int = field(init=False)
    axis_levels: np.ndarray | None = field(
        init=False, repr=False, compare=False
    )
    grid_index: np.ndarray | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.complex128)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "order", points.size)
        # sets, not np.unique, whose first call imports numpy.ma (about 20 ms)
        re = sorted(set(points.real.tolist()))
        im = sorted(set(points.imag.tolist()))
        # distinct points whose parts come from the levels fill the grid iff
        # there are exactly |levels|^2 of them
        is_grid = re == im and len(set(points.tolist())) == points.size == len(re) ** 2
        levels = index = None
        if is_grid:
            levels = np.array(re)
            position = {level: i for i, level in enumerate(re)}
            index = np.empty((len(re), len(re)), dtype=np.intp)
            for m, p in enumerate(points.tolist()):
                index[position[p.real], position[p.imag]] = m
            levels.setflags(write=False)
            index.setflags(write=False)
        object.__setattr__(self, "axis_levels", levels)
        object.__setattr__(self, "grid_index", index)


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def build_bpsk() -> ConstellationScheme:
    """Antipodal +1/-1 alphabet; the simplest unit-power scheme."""
    points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    return ConstellationScheme(points=points, bit_map=("0", "1"))


def build_square_qam(order: int) -> ConstellationScheme:
    """Square M-QAM on the grid {+-1, +-3, ...}^2, scaled to unit average power.

    The bit mapping is Gray-coded independently per axis, so axis-adjacent
    points differ in exactly one bit.
    """
    if order not in _SUPPORTED_QAM:
        raise ValueError(f"unsupported QAM order {order}; expected one of {_SUPPORTED_QAM}")
    side = int(round(np.sqrt(order)))
    levels = np.arange(-(side - 1), side, 2, dtype=float)  # {-(L-1), ..., L-1}
    scale = 1.0 / np.sqrt(2.0 * np.mean(levels**2))  # unit average symbol energy
    bits_per_axis = int(np.log2(side))

    points = np.empty(order, dtype=np.complex128)
    bit_map = []
    for pi in range(side):
        for pq in range(side):
            m = pi * side + pq
            points[m] = scale * (levels[pi] + 1j * levels[pq])
            bi = format(_gray(pi), f"0{bits_per_axis}b")
            bq = format(_gray(pq), f"0{bits_per_axis}b")
            bit_map.append(bi + bq)
    return ConstellationScheme(points=points, bit_map=tuple(bit_map))


def modulate(indices: np.ndarray, scheme: ConstellationScheme) -> np.ndarray:
    """Map symbol indices to constellation points."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= scheme.order):
        raise ValueError("symbol index out of range")
    return scheme.points[indices]


def demodulate_hard(values: np.ndarray, scheme: ConstellationScheme) -> np.ndarray:
    """Nearest-point (minimum Euclidean distance) detection.

    On a grid (`scheme.axis_levels` set) the squared distance is a sum over
    the two axes, so each coordinate of the interleaved float64 view goes to
    the level l minimizing (x - l)^2 and `scheme.grid_index` maps the (re, im)
    level pair to the point index; no (..., M) distance array is made. A
    coordinate exactly between two levels goes to the lower level. On
    `build_square_qam`'s row-major order that is the lowest point index,
    which is what the M-point argmin gives. Any other point set (BPSK
    included) takes that argmin over the squared distances to all M points,
    ties going to the lowest index.
    """
    values = np.asarray(values, dtype=np.complex128)
    levels = scheme.axis_levels
    if levels is None:
        d = values[..., None] - scheme.points
        return np.argmin(d.real**2 + d.imag**2, axis=-1)
    x = np.ascontiguousarray(values).reshape(-1).view(np.float64)
    d2 = levels[:, None] - x
    d2 *= d2
    # argmin over axis 0 in whole-row passes (np.argmin along axis 0 runs
    # row by row over the transpose): k counts the levels before the first
    # minimum
    d2_min = d2.min(axis=0)
    k = np.zeros(x.size, dtype=np.intp)
    before = np.ones(x.size, dtype=bool)
    for row in d2[:-1]:
        before &= row > d2_min
        k += before
    return scheme.grid_index[k[0::2], k[1::2]].reshape(values.shape)
