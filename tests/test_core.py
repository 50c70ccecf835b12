import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgkit.core import (
    MAX_CLIPS,
    ClipTimeline,
    GroundTruthRecord,
    Interval,
    PredictionSet,
    Query,
    ScoredInterval,
    UnifiedLabel,
    _checked_array,
    _checked_number,
    boundary_of,
)

SETTINGS = dict(max_examples=200, deadline=None)


def make_label(f, d, s):
    return UnifiedLabel(np.asarray(f), np.asarray(d, dtype=float), np.asarray(s, dtype=float))


class TestClipTimeline:
    def test_timestamp_is_clip_center(self):
        tl = ClipTimeline(5, 2.0)
        assert tl.timestamp(3) == 7.0
        np.testing.assert_allclose(tl.timestamps(), [1.0, 3.0, 5.0, 7.0, 9.0])

    def test_from_duration_floors(self):
        assert ClipTimeline.from_duration(10.0, 2.0).num_clips == 5
        assert ClipTimeline.from_duration(11.9, 2.0).num_clips == 5
        assert ClipTimeline.from_duration(0.5, 2.0).num_clips == 1
        assert ClipTimeline.from_duration(30.96, 2.0).num_clips == 15  # docs/formats.md
        # 3 * 0.7 = 2.0999999999999996, and int(2.0999999999999996 / 0.7) is 2
        assert ClipTimeline.from_duration(3 * 0.7, 0.7).num_clips == 3
        assert ClipTimeline.from_duration(43 * 0.1, 0.1).num_clips == 43

    def test_duration_and_bounds(self):
        tl = ClipTimeline(4, 1.5)
        assert tl.duration == 6.0
        with pytest.raises(IndexError):
            tl.timestamp(4)
        with pytest.raises(IndexError):
            tl.timestamp(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClipTimeline(0, 2.0)
        with pytest.raises(ValueError):
            ClipTimeline(3, 0.0)
        with pytest.raises(ValueError, match="not a clip count"):
            ClipTimeline.from_duration(1e300, 1e-300)  # the ratio overflows to inf

    @given(
        num_clips=st.integers(1, 500),
        clip_len=st.floats(0.01, 100, allow_nan=False),
        frac=st.floats(0, 1, exclude_max=True),
    )
    @settings(**SETTINGS)
    def test_timestamp_formula(self, num_clips, clip_len, frac):
        tl = ClipTimeline(num_clips, clip_len)
        i = int(frac * num_clips)
        assert tl.timestamp(i) == (i + 0.5) * clip_len

    def test_clip_count_bound(self):
        assert ClipTimeline(MAX_CLIPS, 1.0).num_clips == MAX_CLIPS
        with pytest.raises(ValueError, match="exceed the limit"):
            ClipTimeline(MAX_CLIPS + 1, 1.0)
        with pytest.raises(ValueError, match="1000000000000 clips exceed the limit"):
            ClipTimeline.from_duration(1e12, 1.0)

    @given(duration=st.floats(0.01, 1e5), clip_len=st.floats(0.01, 100))
    @settings(**SETTINGS)
    def test_from_duration_never_empty(self, duration, clip_len):
        tl = ClipTimeline.from_duration(duration, clip_len)
        assert tl.num_clips >= 1
        assert tl.num_clips * clip_len <= max(duration, clip_len) + 1e-9

    @given(num_clips=st.integers(1, 10**5), clip_len=st.floats(1e-6, 1e6))
    @settings(**SETTINGS)
    def test_duration_gives_back_the_grid(self, num_clips, clip_len):
        tl = ClipTimeline(num_clips, clip_len)
        assert ClipTimeline.from_duration(tl.duration, tl.clip_len) == tl
        if num_clips > 1:
            below = math.nextafter(tl.duration, 0.0)
            assert ClipTimeline.from_duration(below, clip_len).num_clips == num_clips - 1


class TestInterval:
    def test_basics(self):
        iv = Interval(2.0, 6.0)
        assert iv.length == 4.0
        assert iv.center == 4.0

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(3.0, 2.0)
        Interval(3.0, 3.0)  # zero length is allowed

    def test_scored_interval(self):
        si = ScoredInterval(Interval(0, 1), 0.5)
        assert si.score == 0.5
        with pytest.raises(ValueError):
            ScoredInterval(Interval(0, 1), float("nan"))


class TestUnifiedLabel:
    def test_consistent_label_accepted(self):
        lab = make_label([1, 0], [[1, 2], [0, 0]], [0.5, 0.0])
        assert len(lab) == 2
        assert lab.foreground_indices.tolist() == [0]

    def test_num_clips_is_its_length(self):
        lab = make_label([1, 0, 0], [[1, 2], [0, 0], [0, 0]], [0.5, 0.0, 0.0])
        assert lab.num_clips == len(lab) == 3

    def test_background_must_be_blank(self):
        with pytest.raises(ValueError):
            make_label([0, 0], [[0, 0], [1, 0]], [0, 0])
        with pytest.raises(ValueError):
            make_label([0, 0], [[0, 0], [0, 0]], [0, 0.5])

    def test_foreground_needs_positive_saliency(self):
        with pytest.raises(ValueError):
            make_label([1], [[1, 1]], [0.0])

    def test_binary_foreground_enforced(self):
        with pytest.raises(ValueError):
            make_label([2], [[1, 1]], [1.0])

    def test_offsets_nonnegative(self):
        with pytest.raises(ValueError):
            make_label([1], [[-0.5, 1]], [1.0])

    def test_saliency_range(self):
        with pytest.raises(ValueError):
            make_label([1], [[1, 1]], [1.5])

    def test_arrays_frozen_and_copied(self):
        f = np.array([1, 0])
        lab = make_label(f, [[1, 1], [0, 0]], [1, 0])
        f[0] = 0  # caller's array stays independent
        assert lab.foreground[0] == 1
        with pytest.raises(ValueError):
            lab.foreground[0] = 0

    def test_equals(self):
        a = make_label([1, 0], [[1, 2], [0, 0]], [1, 0])
        b = make_label([1, 0], [[1, 2], [0, 0]], [1, 0])
        c = make_label([1, 0], [[1, 3], [0, 0]], [1, 0])
        assert a.equals(b)
        assert not a.equals(c)


class TestBoundaryOf:
    def test_reconstructs_interval(self):
        tl = ClipTimeline(5, 2.0)
        lab = make_label(
            [0, 1, 1, 0, 0],
            [[0, 0], [1, 3], [3, 1], [0, 0], [0, 0]],
            [0, 1, 1, 0, 0],
        )
        iv = boundary_of(tl, lab, 1)
        assert (iv.start, iv.end) == (2.0, 6.0)
        assert boundary_of(tl, lab, 2).start == 2.0

    def test_clamps_to_video(self):
        tl = ClipTimeline(2, 2.0)
        lab = make_label([1, 0], [[5, 9], [0, 0]], [1, 0])
        iv = boundary_of(tl, lab, 0)
        assert iv.start == 0.0
        assert iv.end == tl.duration

    def test_background_clip_rejected(self):
        tl = ClipTimeline(2, 2.0)
        lab = make_label([1, 0], [[1, 1], [0, 0]], [1, 0])
        with pytest.raises(ValueError):
            boundary_of(tl, lab, 1)


class TestPredictionSet:
    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            PredictionSet(np.zeros(3), np.zeros((2, 2)), np.zeros(3))

    def test_saliency_range(self):
        with pytest.raises(ValueError):
            PredictionSet(np.zeros(2), np.zeros((2, 2)), np.array([0.0, 1.5]))
        PredictionSet(np.zeros(2), np.zeros((2, 2)), np.array([-1.0, 1.0]))

    def test_offsets_may_be_any_real(self):
        PredictionSet(np.zeros(2), np.array([[-3.0, 2.0], [0.0, 0.0]]), np.zeros(2))


class TestCheckedArray:
    # each value as float64 was read before the helper: np.array(value, dtype=np.float64)
    @pytest.mark.parametrize("value", [
        [True, False], [0, 1], [0.5, 2**70], [2**63, 1], np.array([0.1, 3.0], dtype=np.float32),
        np.arange(3, dtype=np.int8), [np.float32(0.1), 0.2], (1.5, -0.0),
    ], ids=["bool", "int", "big_int", "uint64", "float32", "int8", "numpy_scalar", "tuple"])
    def test_numbers_convert_as_before(self, value):
        got = _checked_array("x", value, (None,))
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(value, dtype=np.float64).tobytes()

    def test_result_is_a_new_array(self):
        value = np.array([[1.0, 2.0]])
        got = _checked_array("x", value, (1, 2))
        assert got is not value and not np.shares_memory(got, value)

    @pytest.mark.parametrize("value", [
        ["0.5"], [0.5, "1"], [None, "0.5"], [b"1"], [[1.0, 2.0], [3.0]], [{"a": 1}], [1j],
        [10**400],
    ], ids=["string", "mixed_string", "object_string", "bytes", "ragged", "dict", "complex",
            "int_past_float"])
    def test_non_numbers_refused(self, value):
        with pytest.raises(ValueError, match=r"^x must be an array of numbers$"):
            _checked_array("x", value, (None,))

    @pytest.mark.parametrize("shape, value, message", [
        ((None, 2), np.zeros((3, 3)), "x must have shape (n, 2), got (3, 3)"),
        ((None, None), np.zeros((0, 4)), "x must have shape (n, m), got (0, 4)"),
        ((None, None, None), np.zeros(3), "x must have shape (n, m, k), got (3,)"),
        ((4,), np.zeros(4)[:, None], "x must have shape (4,), got (4, 1)"),
    ], ids=["free_and_fixed", "empty_axis", "ndim", "column"])
    def test_shape_message(self, shape, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _checked_array("x", value, shape)

    def test_stored_label_and_prediction_are_unchanged(self):
        lab = UnifiedLabel([True, False], [[1, 2], [0, 0]], np.array([0.5, 0.0], np.float32))
        assert lab.foreground.dtype == np.int8 and lab.foreground.tolist() == [1, 0]
        assert lab.offsets.tolist() == [[1.0, 2.0], [0.0, 0.0]]
        assert lab.saliency.tobytes() == np.array([np.float32(0.5), 0.0]).tobytes()
        pred = PredictionSet([2**70], [[0, -1]], [True])
        assert pred.foreground_logits.tolist() == [float(2**70)]
        assert pred.saliency.tolist() == [1.0]


class TestCheckedNumber:
    @pytest.mark.parametrize("value, kind, expected", [
        (3, float, 3.0), (0.25, float, 0.25), (np.float32(0.5), float, 0.5),
        (np.float64(-1.5), float, -1.5), (np.int64(4), float, 4.0), (7, int, 7),
        (np.int64(4), int, 4), (np.uint8(200), int, 200), (2**70, int, 2**70),
    ], ids=["int_as_float", "float", "float32", "float64", "int64_as_float", "int", "int64",
            "uint8", "big_int"])
    def test_python_value(self, value, kind, expected):
        got = _checked_number("x", value, kind)
        assert type(got) is kind and got == expected

    @pytest.mark.parametrize("value, kind, message", [
        ("0", float, "x must be a finite number, got '0'"),
        (True, float, "x must be a finite number, got True"),
        (np.bool_(False), float, "x must be a finite number, got False"),
        (math.inf, float, "x must be a finite number, got inf"),
        (np.float32("nan"), float, "x must be a finite number, got nan"),
        (10**400, float, f"x must be a finite number, got {10**400!r}"),
        (None, float, "x must be a finite number, got None"),
        (3.7, int, "x must be an integer, got 3.7"),
        (4.0, int, "x must be an integer, got 4.0"),
        (np.bool_(True), int, "x must be an integer, got True"),
        ("3", int, "x must be an integer, got '3'"),
    ], ids=["string", "bool", "numpy_bool", "inf", "numpy_nan", "int_past_float", "none",
            "fraction_as_int", "float_as_int", "numpy_bool_as_int", "string_as_int"])
    def test_refusal(self, value, kind, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _checked_number("x", value, kind)

    def test_numpy_scalars_construct(self):
        tl = ClipTimeline(np.int64(4), 1)
        assert (tl.num_clips, tl.clip_len) == (4, 1.0)
        assert type(tl.num_clips) is int and type(tl.clip_len) is float
        iv = Interval(np.float32(0.5), 1)
        assert (iv.start, iv.end) == (0.5, 1.0) and type(iv.start) is float
        si = ScoredInterval(iv, np.float64(0.25))
        assert type(si.score) is float and si.score == 0.25


class TestRecords:
    def test_query_kind_checked(self):
        Query("a storm hits", "sentence")
        with pytest.raises(ValueError):
            Query("x", "paragraph")

    def test_record_length_consistency(self):
        tl = ClipTimeline(3, 2.0)
        lab = make_label([1, 0], [[1, 1], [0, 0]], [1, 0])
        with pytest.raises(ValueError):
            GroundTruthRecord("v", tl, Query("q", "sentence"), lab, "interval")

    def test_source_kind_checked(self):
        tl = ClipTimeline(2, 2.0)
        lab = make_label([1, 0], [[1, 1], [0, 0]], [1, 0])
        with pytest.raises(ValueError):
            GroundTruthRecord("v", tl, Query("q", "sentence"), lab, "video")


def _label(n=2):
    return make_label([1] + [0] * (n - 1), [[1, 1]] + [[0, 0]] * (n - 1), [1] + [0] * (n - 1))


# input checks no other test reaches: the call, its exception type and its message
INPUT_CHECKS = {
    "interval_finite": (lambda: Interval(0.0, math.inf), ValueError,
                        "end must be a finite number, got inf"),
    "interval_string": (lambda: Interval("0", "2"), ValueError,
                        "start must be a finite number, got '0'"),
    "interval_order": (lambda: Interval(2, 1), ValueError, "interval start 2.0 exceeds end 1.0"),
    "scored_interval_tuple": (lambda: ScoredInterval((0, 1), 0.5), ValueError,
                              "interval must be an Interval, got (0, 1)"),
    "scored_interval_string": (lambda: ScoredInterval(Interval(0, 1), "0.5"), ValueError,
                               "score must be a finite number, got '0.5'"),
    "scored_interval_nan": (lambda: ScoredInterval(Interval(0, 1), math.nan), ValueError,
                            "score must be a finite number, got nan"),
    "timeline_bool_clips": (lambda: ClipTimeline(True, 1.0), ValueError,
                            "num_clips must be an integer, got True"),
    "timeline_float_clips": (lambda: ClipTimeline(4.0, 1.0), ValueError,
                             "num_clips must be an integer, got 4.0"),
    "timeline_no_clips": (lambda: ClipTimeline(0, 1.0), ValueError,
                          "num_clips must be >= 1, got 0"),
    "timeline_string_clip_len": (lambda: ClipTimeline(4, "1"), ValueError,
                                 "clip_len must be a finite number, got '1'"),
    "timeline_infinite_clip_len": (lambda: ClipTimeline(4, math.inf), ValueError,
                                   "clip_len must be a finite number, got inf"),
    "timeline_zero_clip_len": (lambda: ClipTimeline(4, 0), ValueError,
                               "clip_len must be positive, got 0.0"),
    "duration_string": (lambda: ClipTimeline.from_duration("8", 2.0), ValueError,
                        "duration must be a finite number, got '8'"),
    "duration_negative": (lambda: ClipTimeline.from_duration(-1, 2.0), ValueError,
                          "duration must be positive, got -1.0"),
    "label_ndim": (lambda: make_label(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)),
                   ValueError, "foreground must have shape (n,), got (2, 2)"),
    "label_finite": (lambda: make_label([1], [[math.nan, 1.0]], [1.0]), ValueError,
                     "offsets must be finite"),
    "label_empty": (lambda: UnifiedLabel([], np.zeros((0, 2)), []), ValueError,
                    "foreground must have shape (n,), got (0,)"),
    "label_ragged_offsets": (lambda: UnifiedLabel([1, 0], [[1.0, 1.0], [0.0]], [1.0, 0.0]),
                             ValueError, "offsets must be an array of numbers"),
    "boundary_index": (lambda: boundary_of(ClipTimeline(2, 1.0), _label(), 2), IndexError,
                       "clip index 2 out of range [0, 2)"),
    "query_text": (lambda: Query(""), ValueError, "query text must be non-empty, got ''"),
    "prediction_finite": (lambda: PredictionSet([math.inf], [[0.0, 0.0]], [0.0]), ValueError,
                          "foreground_logits must be finite"),
    "prediction_null": (lambda: PredictionSet([0.0], [[0.0, 0.0]], [None]), ValueError,
                        "saliency must be finite"),
    "prediction_string_entry": (lambda: PredictionSet([0.0], [[0.0, 0.0]], ["0.5"]), ValueError,
                                "saliency must be an array of numbers"),
    "prediction_dict_entry": (lambda: PredictionSet([0.0], [[0.0, 0.0]], [{"a": 1}]),
                              ValueError, "saliency must be an array of numbers"),
    "prediction_offsets_shape": (lambda: PredictionSet(np.zeros(12), 0.0, np.zeros(12)),
                                 ValueError, "offsets must have shape (12, 2), got ()"),
    "record_video_id": (lambda: GroundTruthRecord("", ClipTimeline(2, 1.0), Query("q"), _label(),
                                                  "interval"),
                        ValueError, "video_id must be non-empty, got ''"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error
