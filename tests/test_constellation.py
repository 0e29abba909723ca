"""Tests for the modulation alphabets."""

import numpy as np
import pytest

from scdenoise.constellation import (
    ConstellationScheme,
    build_bpsk,
    build_square_qam,
    demodulate_hard,
    modulate,
)


def test_bpsk_points_and_power():
    scheme = build_bpsk()
    assert scheme.order == 2
    np.testing.assert_allclose(scheme.points, [1.0 + 0.0j, -1.0 + 0.0j])
    assert np.mean(np.abs(scheme.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert scheme.bit_map == ("0", "1")
    # antipodal symmetry: the alphabet has zero mean
    assert np.mean(scheme.points) == pytest.approx(0.0, abs=1e-15)


def test_qam4_is_scaled_corner_grid():
    scheme = build_square_qam(4)
    expected = {(s1 + 1j * s2) / np.sqrt(2) for s1 in (-1, 1) for s2 in (-1, 1)}
    got = {complex(round(p.real, 12) + 1j * round(p.imag, 12)) for p in scheme.points}
    assert got == {complex(round(e.real, 12) + 1j * round(e.imag, 12)) for e in expected}
    assert np.mean(np.abs(scheme.points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_unit_average_power(order):
    scheme = build_square_qam(order)
    assert len(scheme.points) == order == scheme.order
    assert np.mean(np.abs(scheme.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    # all points distinct
    assert len(set(scheme.points.tolist())) == order


def test_qam64_scaling_constant():
    scheme = build_square_qam(64)
    # innermost level of the 8-level PAM grid, under unit-power normalization
    smallest = np.min(np.abs(scheme.points.real))
    assert smallest == pytest.approx(1.0 / np.sqrt(42.0), rel=1e-12)


@pytest.mark.parametrize("order", [16, 64])
def test_qam_gray_mapping_axis_adjacent(order):
    scheme = build_square_qam(order)
    side = int(round(np.sqrt(order)))
    spacing = 2.0 * np.min(np.abs(scheme.points.real))
    for a in range(order):
        for b in range(a + 1, order):
            d = scheme.points[a] - scheme.points[b]
            axis_adjacent = (
                abs(d.real) < 1e-9 and abs(abs(d.imag) - spacing) < 1e-9
            ) or (abs(d.imag) < 1e-9 and abs(abs(d.real) - spacing) < 1e-9)
            if axis_adjacent:
                diff_bits = sum(
                    x != y for x, y in zip(scheme.bit_map[a], scheme.bit_map[b])
                )
                assert diff_bits == 1, (a, b)
    assert all(len(bits) == 2 * int(np.log2(side)) for bits in scheme.bit_map)


def test_unsupported_orders_rejected():
    for order in (8, 32, 128, 3, 0):
        with pytest.raises(ValueError):
            build_square_qam(order)


def test_modulate_lookup():
    bpsk = build_bpsk()
    np.testing.assert_allclose(modulate([0, 1], bpsk), [1.0, -1.0])
    qam = build_square_qam(16)
    np.testing.assert_allclose(modulate([5, 5, 5], qam), np.repeat(qam.points[5], 3))
    assert modulate(np.array([], dtype=int), bpsk).shape == (0,)


def test_modulate_range_check():
    scheme = build_bpsk()
    with pytest.raises(ValueError):
        modulate([2], scheme)
    with pytest.raises(ValueError):
        modulate([-1], scheme)


@pytest.mark.parametrize("scheme", [build_bpsk(), build_square_qam(16), build_square_qam(64)])
def test_demodulate_roundtrip(scheme):
    idx = np.arange(scheme.order)
    assert np.array_equal(demodulate_hard(scheme.points, scheme), idx)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, scheme.order, size=500)
    # perturbations well inside half the minimum distance never flip a decision
    jitter = 0.01 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
    assert np.array_equal(demodulate_hard(scheme.points[idx] + jitter, scheme), idx)


def test_demodulate_nearest_and_tiebreak():
    scheme = build_bpsk()
    assert demodulate_hard(np.array([0.1 + 0j]), scheme)[0] == 0
    assert demodulate_hard(np.array([-0.1 + 0j]), scheme)[0] == 1
    # exactly equidistant: the lower level, -1, wins, as on every scheme
    assert demodulate_hard(np.array([0.0 + 0j]), scheme)[0] == 1
    # off the tie, per-axis detection is the nearest of all points
    rng = np.random.default_rng(2)
    values = 3.0 * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
    assert np.array_equal(demodulate_hard(values, scheme),
                          _nearest_of_all_points(values, scheme))


def _nearest_of_all_points(values, scheme):
    """The M-point reference: argmin of the squared distance to every point."""
    d = np.asarray(values, dtype=np.complex128)[..., None] - scheme.points
    return np.argmin(d.real**2 + d.imag**2, axis=-1)


def _permuted(scheme, seed):
    perm = np.random.default_rng(seed).permutation(scheme.order)
    return ConstellationScheme(points=scheme.points[perm],
                               bit_map=tuple(scheme.bit_map[m] for m in perm))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_grid_index_maps_level_pairs_to_points(order):
    for scheme in (build_square_qam(order), _permuted(build_square_qam(order), order)):
        re_levels, im_levels = scheme.axis_levels
        assert re_levels is im_levels  # square QAM: one shared array
        assert np.array_equal(scheme.points[scheme.grid_index],
                              re_levels[:, None] + 1j * im_levels)
    # BPSK is the 2 x 1 grid {-1, 1} x {0}
    bpsk = build_bpsk()
    np.testing.assert_array_equal(bpsk.axis_levels[0], [-1.0, 1.0])
    np.testing.assert_array_equal(bpsk.axis_levels[1], [0.0])
    np.testing.assert_array_equal(bpsk.grid_index, [[1], [0]])


def test_non_product_point_sets_rejected():
    qam4 = build_square_qam(4).points
    bad = {
        # QPSK rotated by 45 degrees puts its points on the axes
        "rotated": np.exp(0.25j * np.pi) * qam4,
        "duplicate": np.array([1.0, 1.0, -1.0, -1.0]),
        "three corners": qam4[:3],
    }
    for points in bad.values():
        with pytest.raises(ValueError, match="not the product grid"):
            ConstellationScheme(points=points, bit_map=("",) * points.size)
    # a rectangular grid is accepted, with its own levels per axis
    rect = _rect_grid()
    np.testing.assert_array_equal(rect.axis_levels[0], [-1.0, 1.0])
    np.testing.assert_array_equal(rect.axis_levels[1], [-1.0, 0.0, 2.0])
    assert np.array_equal(demodulate_hard(rect.points + 0.1, rect), np.arange(6))


def _rect_grid():
    """The 2 x 3 grid {-1, 1} x {-1, 0, 2}: each axis has its own levels."""
    return ConstellationScheme(points=np.array([-1, 1, -1 - 1j, 1 - 1j, -1 + 2j, 1 + 2j]),
                               bit_map=("",) * 6)


def _recording(fn):
    """fn, and the list of (x, levels) pairs it is called with."""
    calls = []

    def wrapped(x, levels):
        calls.append((x.copy(), levels))
        return fn(x, levels)

    return wrapped, calls


@pytest.mark.parametrize("order", [4, 16, 64])
def test_per_axis_one_call_on_shared_levels(order):
    scheme = build_square_qam(order)
    rng = np.random.default_rng(order)
    z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    fn, calls = _recording(lambda x, levels: x + 1.0)
    out = scheme.per_axis(fn, z)
    # one call on the whole interleaved view, against the shared levels
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], z.reshape(-1).view(np.float64))
    assert calls[0][1] is scheme.axis_levels[0]
    assert out.shape == (2 * z.size,) and out.dtype == np.float64
    np.testing.assert_array_equal(out.view(np.complex128).reshape(z.shape), z + (1 + 1j))


@pytest.mark.parametrize("name", ["bpsk", "rect"])
def test_per_axis_one_call_per_axis(name):
    scheme = build_bpsk() if name == "bpsk" else _rect_grid()
    z = np.random.default_rng(5).standard_normal((2, 4)) + 1j * np.arange(8).reshape(2, 4)
    # the number of levels marks which axis a result came from
    fn, calls = _recording(lambda x, levels: np.full(x.size, levels.size, dtype=np.intp))
    out = scheme.per_axis(fn, z)
    assert len(calls) == 2
    assert all(got is levels for (_, got), levels in zip(calls, scheme.axis_levels))
    assert np.array_equal(calls[0][0], z.real.ravel())
    assert np.array_equal(calls[1][0], z.imag.ravel())
    # interleaved (re, im) results, in fn's dtype
    assert out.dtype == np.intp
    assert np.array_equal(out, np.tile([level.size for level in scheme.axis_levels], z.size))
    mean = scheme.per_axis(lambda x, levels: x + levels.size, z)
    assert mean.dtype == np.float64
    np.testing.assert_array_equal(mean.view(np.complex128).reshape(z.shape),
                                  z + complex(*(level.size for level in scheme.axis_levels)))


def test_demodulate_rect_grid_matches_all_points():
    scheme = _rect_grid()
    rng = np.random.default_rng(6)
    values = 2.0 * (rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64)))
    assert np.array_equal(demodulate_hard(values, scheme), _nearest_of_all_points(values, scheme))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_demodulate_per_axis_matches_all_points(order):
    scheme = build_square_qam(order)
    levels = scheme.axis_levels[0]
    rng = np.random.default_rng(order)
    # every midpoint between adjacent levels with its two neighbouring floats,
    # so the exact ties (m - a)^2 == (m - b)^2 are among them wherever rounding
    # puts them; plus the levels themselves and +-0
    mids = (levels[1:] + levels[:-1]) / 2
    coords = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
                             levels, [0.0, -0.0]])
    ties = [(m - a) ** 2 == (m - b) ** 2
            for m in coords for a, b in zip(levels[:-1], levels[1:]) if a < m < b]
    assert sum(ties) >= levels.size - 1
    far = rng.uniform(30.0, 300.0, (2, 512)) * rng.choice([-1.0, 1.0], (2, 512))
    inputs = {
        "random": 1.5 * (rng.standard_normal((16, 128)) + 1j * rng.standard_normal((16, 128))),
        "midpoints": coords[:, None] + 1j * coords,
        # far outside the constellation, both coordinates, and one of them
        "far": far[0] + 1j * far[1],
        "far_one_axis": far[0] + 1j * rng.standard_normal(512),
        "scalar": np.complex128(0.3 - 0.2j),
        "empty": np.zeros((0, 3), dtype=np.complex128),
    }
    for name, values in inputs.items():
        got = demodulate_hard(values, scheme)
        assert got.shape == np.shape(values), name
        assert np.array_equal(got, _nearest_of_all_points(values, scheme)), name
    # off the ties, the detection does not depend on the order of the points
    permuted = _permuted(scheme, order + 1)
    for name in ("random", "far", "far_one_axis"):
        values = inputs[name]
        assert np.array_equal(demodulate_hard(values, permuted),
                              _nearest_of_all_points(values, permuted)), name
    # on the ties it goes to the lower level, whatever the order: 0 is exactly
    # halfway between the two middle levels on both axes
    k = levels.size // 2 - 1
    assert demodulate_hard(0j, permuted) == permuted.grid_index[k, k]
