"""Jitter, trajectory alignment and CDF reporting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csitrack.core import Trajectory
from csitrack.evaluation import (
    AlignedError,
    align,
    error_cdf,
    fit_rotation,
    jitter,
    rotation_matrix,
)


def traj(positions, timestamps=None):
    positions = np.asarray(positions, dtype=float)
    if timestamps is None:
        timestamps = np.arange(len(positions), dtype=float)
    return Trajectory(positions, np.asarray(timestamps, dtype=float))


class TestJitter:
    def test_identical_points_zero(self):
        points = traj([[0.3, -0.1]] * 5)
        assert jitter(points) == 0.0

    def test_alternating_millimeter_points(self):
        points = traj([[1e-3, 0.0], [-1e-3, 0.0]] * 10)
        assert jitter(points) == pytest.approx(1e-3, abs=1e-15)

    def test_translation_and_rotation_invariant(self):
        rng = np.random.default_rng(0)
        positions = rng.normal(size=(50, 2))
        base = jitter(traj(positions))
        moved = jitter(traj(positions + [3.0, -8.0]))
        rotated = jitter(traj(positions @ rotation_matrix(1.1).T))
        assert moved == pytest.approx(base, rel=1e-12)
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            jitter(traj([[0.0, 0.0]]))


class TestAlign:
    def wiggle(self, n=40, seed=1):
        rng = np.random.default_rng(seed)
        return traj(np.cumsum(rng.normal(0, 1e-3, size=(n, 2)), axis=0))

    def test_identical_trajectories_zero_error(self):
        truth = self.wiggle()
        result = align(truth, truth)
        np.testing.assert_allclose(result.errors, 0.0, atol=1e-12)
        assert result.rotation == pytest.approx(0.0, abs=1e-12)

    def test_rotation_recovered_exactly(self):
        truth = self.wiggle()
        angle = np.radians(30)
        rotated = traj(
            (truth.positions - truth.positions[0]) @ rotation_matrix(angle).T
            + truth.positions[0],
            truth.timestamps,
        )
        result = align(rotated, truth)
        np.testing.assert_allclose(result.errors, 0.0, atol=1e-12)
        assert result.rotation == pytest.approx(-angle, abs=1e-12)

    def test_scaling_is_not_compensated(self):
        truth = self.wiggle()
        doubled = traj(2.0 * truth.positions, truth.timestamps)
        result = align(doubled, truth)
        assert result.errors.max() > 1e-4

    @settings(max_examples=60, deadline=None)
    @given(angle=st.floats(-np.pi, np.pi),
           shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_rigid_motion_invariance(self, angle, shift):
        truth = self.wiggle()
        estimate = self.wiggle(seed=2)
        base = align(estimate, truth)
        moved = traj(
            estimate.positions @ rotation_matrix(angle).T + shift,
            estimate.timestamps,
        )
        result = align(moved, truth)
        np.testing.assert_allclose(result.errors, base.errors, atol=1e-9)

    def test_rotation_matrix_is_special_orthogonal(self):
        for angle in np.linspace(-np.pi, np.pi, 17):
            R = rotation_matrix(angle)
            np.testing.assert_allclose(R.T @ R, np.eye(2), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_resamples_truth_onto_estimate_timebase(self):
        # truth on a fine grid, estimate on a coarse late-starting grid
        t_fine = np.linspace(0.0, 1.0, 101)
        truth = traj(np.column_stack([t_fine, np.zeros_like(t_fine)]), t_fine)
        t_coarse = np.linspace(0.2, 1.0, 21)
        estimate = traj(np.column_stack([t_coarse, np.zeros_like(t_coarse)]), t_coarse)
        result = align(estimate, truth)
        np.testing.assert_allclose(result.errors, 0.0, atol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            align(traj([[0.0, 0.0]]), self.wiggle())

    def test_estimate_beyond_the_truth_is_rejected_not_clamped(self):
        # an estimate running 2 s past a 1 s truth used to read 0.5 m median
        # error against a truth clamped at its last point
        t_truth = np.linspace(0.0, 1.0, 11)
        truth = traj(np.column_stack([t_truth, np.zeros_like(t_truth)]), t_truth)
        t_late = np.linspace(0.0, 2.0, 21)
        late = traj(np.column_stack([t_late, np.zeros_like(t_late)]), t_late)
        with pytest.raises(ValueError, match="outside the truth"):
            align(late, truth)
        early = traj(late.positions, t_late - 1.0)
        with pytest.raises(ValueError, match="outside the truth"):
            align(early, truth)
        inside = traj(truth.positions, t_truth + np.r_[-5e-10, np.zeros(9), 5e-10])
        np.testing.assert_allclose(align(inside, truth).errors, 0.0, atol=1e-9)

    def test_fit_rotation_on_known_pair(self):
        rng = np.random.default_rng(3)
        source = rng.normal(size=(30, 2))
        target = source @ rotation_matrix(0.4).T
        assert fit_rotation(source, target) == pytest.approx(0.4, abs=1e-12)


class TestErrorCdf:
    def test_single_value(self):
        cdf = error_cdf([AlignedError(np.array([0.02]), 0.0)])
        np.testing.assert_array_equal(cdf.levels, [0.02])
        np.testing.assert_array_equal(cdf.fractions, [1.0])
        assert cdf.median == 0.02

    def test_four_values_quartiles(self):
        cdf = error_cdf([AlignedError(np.array([0.01, 0.02, 0.03, 0.04]), 0.0)])
        np.testing.assert_allclose(cdf.fractions, [0.25, 0.5, 0.75, 1.0])
        assert cdf.median == pytest.approx(0.025)

    def test_pools_across_results(self):
        cdf = error_cdf([
            AlignedError(np.array([0.01, 0.03]), 0.0),
            AlignedError(np.array([0.02, 0.04]), 0.1),
        ])
        np.testing.assert_array_equal(cdf.levels, [0.01, 0.02, 0.03, 0.04])

    def test_accepts_raw_arrays(self):
        cdf = error_cdf([np.array([1.0, 2.0])])
        assert cdf.median == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_cdf([])

    def test_negative_errors_rejected_by_type(self):
        with pytest.raises(ValueError):
            AlignedError(np.array([-0.1]), 0.0)

    def test_median_accessor(self):
        result = AlignedError(np.linspace(0, 1, 101), 0.0)
        assert result.median == pytest.approx(0.5)
