"""Tests for the modulation alphabets."""

import numpy as np
import pytest

from scdenoise.constellation import (
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
    # exactly equidistant: lowest index wins
    assert demodulate_hard(np.array([0.0 + 0j]), scheme)[0] == 0
