"""Steering-vector math and domain-type invariants."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from csitrack.core import (
    ArrayGeometry,
    CsiRecord,
    Displacement,
    PathSet,
    Trajectory,
    checked_records,
    circular_distance,
    resample_positions,
    steering_matrix,
    steering_vector,
)


class TestSteeringVector:
    def test_broadside_linear_array_is_all_ones(self):
        geometry = ArrayGeometry.linear(3, spacing=0.03, wavelength=0.06)
        np.testing.assert_allclose(steering_vector(geometry, np.pi / 2), np.ones(3), atol=1e-12)

    def test_endfire_linear_array_alternates_sign(self):
        geometry = ArrayGeometry.linear(3, spacing=0.03, wavelength=0.06)
        np.testing.assert_allclose(steering_vector(geometry, 0.0), [1, -1, 1], atol=1e-12)

    def test_circular_array_matches_scalar_evaluation(self):
        # independent per-antenna recomputation of the path-length projection
        geometry = ArrayGeometry.circular(3, spacing=0.026, wavelength=0.06)
        theta = 0.7
        positions = geometry.antenna_positions
        expected = []
        for q in range(3):
            dx = positions[q, 0] - positions[0, 0]
            dy = positions[q, 1] - positions[0, 1]
            projection = dx * math.cos(theta) + dy * math.sin(theta)
            expected.append(cmath.exp(-2j * math.pi * projection / 0.06))
        np.testing.assert_allclose(steering_vector(geometry, theta), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_modulus_and_reference_entry(self, seed):
        rng = np.random.default_rng(seed)
        geometry = ArrayGeometry(rng.uniform(-0.05, 0.05, (4, 2)))
        vector = steering_vector(geometry, rng.uniform(0, 2 * np.pi))
        np.testing.assert_allclose(np.abs(vector), 1.0, atol=1e-12)
        assert vector[0] == 1.0

    def test_reduces_to_uniform_linear_form_for_100_random_angles(self):
        spacing = 0.03
        geometry = ArrayGeometry.linear(3, spacing=spacing, wavelength=0.06)
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0, 2 * np.pi, 100):
            expected = np.exp(-2j * np.pi * spacing * np.cos(theta) * np.arange(3) / 0.06)
            np.testing.assert_allclose(steering_vector(geometry, theta), expected, atol=1e-12)

    def test_translation_of_whole_array_changes_nothing(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(-0.05, 0.05, (3, 2))
        theta = 1.234
        base = steering_vector(ArrayGeometry(positions), theta)
        moved = steering_vector(ArrayGeometry(positions + [1.7, -4.2]), theta)
        np.testing.assert_allclose(moved, base, atol=1e-12)

    def test_steering_matrix_stacks_vectors(self):
        geometry = ArrayGeometry.circular(3)
        thetas = [0.1, 1.1, 4.0]
        matrix = steering_matrix(geometry, thetas)
        for k, theta in enumerate(thetas):
            np.testing.assert_allclose(matrix[:, k], steering_vector(geometry, theta), atol=1e-14)


class TestAngles:
    def test_circular_distance_wraps(self):
        assert circular_distance(0.1, 2 * np.pi - 0.1) == pytest.approx(0.2, abs=1e-12)
        assert type(circular_distance(0.1, 0.3)) is float

    @settings(max_examples=300, deadline=None)
    @given(a=hnp.arrays(float, st.integers(1, 8), elements=st.one_of(
        st.floats(-1e6, 1e6), st.sampled_from([np.pi, -np.pi, 0.0, -0.0]),
        st.integers(-1000, 1000).map(lambda k: k * 2 * np.pi))), shift=st.floats(-1e6, 1e6))
    def test_circular_distance_is_the_magnitude_of_the_wrapped_difference(self, a, shift):
        # min(d, 2*pi - d) rounds to the same magnitude as d - 2*pi, so the two agree bit for bit
        for b in (np.zeros_like(a), np.full_like(a, shift), a[::-1], a + np.pi, a - 2 * np.pi):
            d = np.mod(a - b, 2 * np.pi)
            wrapped = np.abs(np.where(d > np.pi, d - 2 * np.pi, d))  # |a - b| wrapped into [0, pi]
            assert np.array_equal(circular_distance(a, b), wrapped)
            assert circular_distance(a[0], b[0]) == wrapped[0]


class TestGeometryValidation:
    def test_rejects_single_antenna(self):
        with pytest.raises(ValueError):
            ArrayGeometry([[0.0, 0.0]])

    def test_rejects_coincident_antennas(self):
        with pytest.raises(ValueError):
            ArrayGeometry([[0.0, 0.0], [0.0, 0.0]])

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(ValueError):
            ArrayGeometry([[0.0, 0.0], [0.01, 0.0]], wavelength=0.0)

    @pytest.mark.parametrize("positions, match", [
        (np.zeros((3, 3)), "must be an \\(M, 2\\) array"),
        (np.zeros(4), "must be an \\(M, 2\\) array"),
        ([[0.0, 0.0], [np.nan, 0.01]], "must be finite"),
    ])
    def test_rejects_malformed_positions(self, positions, match):
        with pytest.raises(ValueError, match=match):
            ArrayGeometry(positions)

    def test_circular_rejects_a_single_antenna(self):
        with pytest.raises(ValueError, match="need at least 2 antennas"):
            ArrayGeometry.circular(1)

    def test_circular_spacing_is_pairwise_for_three(self):
        geometry = ArrayGeometry.circular(3, spacing=0.026)
        positions = geometry.antenna_positions
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(positions[i] - positions[j]) == pytest.approx(0.026)


class TestGeometryEquality:
    def test_equal_geometries_compare_and_hash_equal(self):
        a = ArrayGeometry.circular(3)
        b = ArrayGeometry(a.antenna_positions.copy(), a.wavelength)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("other", [
        ArrayGeometry.circular(3, spacing=0.027),
        ArrayGeometry.circular(3, wavelength=0.05),
        ArrayGeometry.circular(4),
        ArrayGeometry.linear(3),
    ])
    def test_unequal_geometries_differ(self, other):
        geometry = ArrayGeometry.circular(3)
        assert geometry != other and not geometry == other
        assert len({geometry, other}) == 2

    def test_not_equal_to_other_types(self):
        geometry = ArrayGeometry.circular(3)
        assert geometry != geometry.antenna_positions.tolist()
        assert geometry != "circular"

    def test_positions_are_a_read_only_copy(self):
        positions = np.array([[0.0, 0.0], [0.03, 0.0]])
        geometry = ArrayGeometry(positions)
        positions[1, 0] = 0.05  # the caller's array stays theirs
        assert geometry.antenna_positions[1, 0] == 0.03
        with pytest.raises(ValueError):
            geometry.antenna_positions[1, 0] = 0.05


@st.composite
def record_columns(draw):
    """The four columns of checked_records for a drawn (N, M) CSI block, N >= 0."""
    block = draw(hnp.arrays(complex, st.tuples(st.integers(0, 6), st.integers(1, 4)),
                            elements=st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                                                        allow_infinity=False)))
    column = lambda items: st.lists(items, min_size=len(block), max_size=len(block))
    ap_ids = draw(column(st.text(min_size=1)))
    indices = draw(column(st.integers(-2**70, 2**70)
                          | st.integers(-2**63, 2**63 - 1).map(np.int64)))
    timestamps = draw(column(st.floats(allow_nan=False, allow_infinity=False)
                             | st.floats(-1e3, 1e3).map(np.float64)))
    return ap_ids, indices, timestamps, block


class TestDomainTypes:
    def test_csi_record_requires_vector(self):
        with pytest.raises(ValueError):
            CsiRecord("ap0", 0, 0.0, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)])
    def test_csi_record_rejects_non_finite_csi(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CsiRecord("ap0", 0, 0.0, np.array([1.0, bad, 1j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_records_reject_a_non_finite_timestamp(self, bad):
        with pytest.raises(ValueError, match="timestamp must be finite"):
            CsiRecord("ap0", 0, bad, np.ones(2))
        with pytest.raises(ValueError, match="timestamp must be finite"):
            checked_records(["a", "b"], [0, 1], [0.0, bad], np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [0.5, 5.0, True, "5", np.float64(5.0)])
    def test_records_reject_a_packet_index_that_is_not_an_integer(self, bad):
        # a trace holds what int() reads back: no fraction, float or bool
        with pytest.raises(ValueError, match="^packet_index must be an integer"):
            CsiRecord("ap0", bad, 0.0, np.ones(2))
        with pytest.raises(ValueError, match="^packet_index must be an integer"):
            checked_records(["a", "b"], [0, bad], [0.0, 1.0], np.ones((2, 2)))

    def test_records_take_negative_and_numpy_integer_indices(self):
        assert CsiRecord("ap0", -3, 0.0, np.ones(2)).packet_index == -3
        records = checked_records(["a", "b"], [np.int64(-3), 2**70], [0.0, 1.0], np.ones((2, 2)))
        assert [record.packet_index for record in records] == [-3, 2**70]

    @settings(max_examples=60, deadline=None)
    @given(columns=record_columns())
    @example(columns=([], [], [], np.ones((0, 3), dtype=complex)))
    def test_checked_records_equal_records_built_one_by_one(self, columns):
        records = checked_records(*columns)
        assert len(records) == len(columns[3])
        for record, *fields in zip(records, *columns):
            built = CsiRecord(*fields)
            assert type(record) is CsiRecord
            for name in CsiRecord.__slots__:
                mine, theirs = getattr(record, name), getattr(built, name)
                assert type(mine) is type(theirs), name
                if name == "csi":
                    assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
                    assert mine.tobytes() == theirs.tobytes()
                else:
                    assert repr(mine) == repr(theirs), name

    @pytest.mark.parametrize("block", [np.ones(3), np.ones((2, 0)), np.array([[1.0, np.nan]])])
    def test_checked_records_reject_what_a_record_rejects(self, block):
        with pytest.raises(ValueError):
            checked_records(["a"] * len(block), range(len(block)), [0.0] * len(block), block)

    def test_checked_records_need_one_field_of_each_kind_per_row(self):
        for short in range(4):  # each column in turn one row short
            columns = [["a", "b"], [0, 1], [0.0, 1.0], np.ones((2, 2))]
            columns[short] = columns[short][:1]
            with pytest.raises(ValueError, match="^need one ap_id, packet_index and timestamp"):
                checked_records(*columns)

    def test_displacement_requires_finite_2vector(self):
        with pytest.raises(ValueError):
            Displacement([1.0, np.nan])
        with pytest.raises(ValueError):
            Displacement([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("aods, wavelength, match", [
        ([0.5], 0.06, "one column per AoD"),
        ([0.5, 1.5, 2.5], 0.06, "one column per AoD"),
        ([0.5, 1.5], 0.0, "wavelength must be positive"),
        ([0.5, 1.5], np.inf, "wavelength must be positive"),
    ])
    def test_path_set_rejects_a_mismatched_matrix_or_wavelength(self, aods, wavelength, match):
        matrix = steering_matrix(ArrayGeometry.circular(3), [0.5, 1.5])
        with pytest.raises(ValueError, match=match):
            PathSet("ap0", aods, matrix, wavelength)

    @pytest.mark.parametrize("positions, timestamps, match", [
        (np.zeros((2, 3)), [0.0, 1.0], "must be an \\(N, 2\\) array"),
        (np.zeros((2, 2)), [0.0, 1.0, 2.0], "timestamps must match positions"),
        (np.zeros((2, 2)), [[0.0, 1.0]], "timestamps must match positions"),
        pytest.param([[0.0, 0.0], [np.nan, 0.0]], [0.0, 1.0], "must be finite", id="position-nan"),
        pytest.param([[0.0, 0.0], [0.0, np.inf]], [0.0, 1.0], "must be finite", id="position-inf"),
        pytest.param(np.zeros((2, 2)), [0.0, np.nan], "must be finite", id="timestamp-nan"),
        pytest.param(np.zeros((2, 2)), [0.0, np.inf], "must be finite", id="timestamp-inf"),
    ])
    def test_trajectory_rejects_malformed_arrays(self, positions, timestamps, match):
        with pytest.raises(ValueError, match=match):
            Trajectory(positions, np.array(timestamps))

    def test_trajectory_requires_increasing_timestamps(self):
        # equal, decreasing, and decreasing by more than the largest double
        for timestamps in ([0.0, 0.0], [1.0, 0.0], [1e308, -1e308], [0.0, 5.0, 5.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                Trajectory(np.zeros((len(timestamps), 2)), np.array(timestamps))
        # increasing by more than the largest double, with no overflow warning
        assert len(Trajectory(np.zeros((2, 2)), np.array([-1e308, 1e308]))) == 2

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 2)), np.zeros(0))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(times=hnp.arrays(float, st.integers(1, 40), elements=_FINITE, unique=True),
       positions=hnp.arrays(float, (40, 2), elements=_FINITE))
# neighbours whose difference overflows a double
@example(times=np.array([np.finfo(float).max, -9.97920155e+291]), positions=np.ones((40, 2)))
def test_resampling_at_its_own_timestamps_returns_its_positions(times, positions):
    # what lets align resample the truth without a branch for an equal timebase
    times, positions = np.sort(times), positions[:times.size]
    trajectory = Trajectory(positions, times)
    assert np.array_equal(resample_positions(trajectory, trajectory.timestamps), positions)
