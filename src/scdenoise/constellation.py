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

    The points must be the product grid of their distinct real and imaginary
    parts, each point once (BPSK is the 2 x 1 grid {-1, 1} x {0}); any other
    point set, such as QPSK rotated by 45 degrees, raises ValueError. Derived
    from `points`: `order` (M); `axis_levels`, the sorted (real, imaginary)
    levels, one shared array when both axes have the same levels (square
    QAM); and `grid_index[i, j]`, the index of the point
    axis_levels[0][i] + 1j * axis_levels[1][j].
    """

    points: np.ndarray  # complex128, shape (M,)
    bit_map: tuple[str, ...]  # length M, each log2(M) chars of '0'/'1'
    order: int = field(init=False)
    axis_levels: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )
    grid_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.complex128)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "order", points.size)
        # sets, not np.unique, whose first call imports numpy.ma (about 20 ms)
        re = sorted(set(points.real.tolist()))
        im = sorted(set(points.imag.tolist()))
        # distinct points whose parts come from the levels fill the grid iff
        # there are exactly |re| * |im| of them
        if not len(set(points.tolist())) == points.size == len(re) * len(im):
            raise ValueError(
                f"the {points.size} points are not the product grid of their "
                f"{len(re)} real and {len(im)} imaginary levels"
            )
        re_levels = np.array(re)
        im_levels = re_levels if im == re else np.array(im)
        index = np.empty((len(re), len(im)), dtype=np.intp)
        index[np.searchsorted(re_levels, points.real),
              np.searchsorted(im_levels, points.imag)] = np.arange(points.size)
        for array in (re_levels, im_levels, index):
            array.setflags(write=False)
        object.__setattr__(self, "axis_levels", (re_levels, im_levels))
        object.__setattr__(self, "grid_index", index)

    def per_axis(self, fn, z: np.ndarray) -> np.ndarray:
        """fn(x, levels) on every coordinate of the symbols z against its own
        axis' levels: 2 * z.size results, 1-D, in z's interleaved (re, im)
        order. When both axes share one level array, fn makes one call over
        the interleaved float64 view: on 2048 64-QAM symbols, BLAS pinned to
        1 thread, 135 us against 186 us for one call per axis in
        `oracle.posterior_mean`, and 119 against 205 us in `demodulate_hard`.
        """
        x = np.ascontiguousarray(z, dtype=np.complex128).reshape(-1).view(np.float64)
        re_levels, im_levels = self.axis_levels
        if re_levels is im_levels:
            return fn(x, re_levels)
        return np.stack([fn(x[0::2], re_levels), fn(x[1::2], im_levels)], axis=1).ravel()


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

    The squared distance to a grid point is a sum over the two axes, so each
    coordinate goes to the nearest level on its own axis and
    `scheme.grid_index` maps the level pair to the point index; no (..., M)
    distance array is made. A coordinate exactly between two levels goes to
    the lower one, on every scheme: BPSK detects Re z = 0 as the point -1.
    """
    values = np.asarray(values, dtype=np.complex128)
    k = scheme.per_axis(_nearest_level, values)
    return scheme.grid_index[k[0::2], k[1::2]].reshape(values.shape)


def _nearest_level(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Index of the level nearest each coordinate of x (1-D), ties to the lower."""
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
    return k
