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

    `order` (M) and `axis_levels` are derived from `points`. `axis_levels`
    holds the sorted levels shared by the real and the imaginary axis, when
    the points are exactly the product grid of those levels with themselves
    (square QAM), and None otherwise (BPSK, any other point set).
    """

    points: np.ndarray  # complex128, shape (M,)
    bit_map: tuple[str, ...]  # length M, each log2(M) chars of '0'/'1'
    order: int = field(init=False)
    axis_levels: np.ndarray | None = field(
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
        levels = np.array(re) if is_grid else None
        if levels is not None:
            levels.setflags(write=False)
        object.__setattr__(self, "axis_levels", levels)


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

    Ties are broken toward the lowest index, which argmin already guarantees.
    """
    values = np.asarray(values, dtype=np.complex128)
    d = values[..., None] - scheme.points
    d2 = d.real**2 + d.imag**2
    return np.argmin(d2, axis=-1)
