import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgkit.core import ClipTimeline, GroundingWarning, Interval
from tgkit.labels import (
    CurveAnnotation,
    PointAnnotation,
    bin_index,
    from_curve,
    from_intervals,
    from_points,
    intervals_of,
)

from oracles import (
    curve_foreground_oracle,
    interval_label_oracle,
    point_windows_oracle,
    runs_oracle,
)

SETTINGS = dict(max_examples=150, deadline=None)


class TestAnnotations:
    def test_points_sorted_and_deduped(self):
        ann = PointAnnotation((5.0, 1.0, 5.0))
        assert ann.timestamps == (1.0, 5.0)
        assert len(ann) == 2

    def test_points_validation(self):
        with pytest.raises(ValueError):
            PointAnnotation(())
        with pytest.raises(ValueError):
            PointAnnotation((-1.0,))
        with pytest.raises(ValueError):
            PointAnnotation((float("nan"),))

    def test_curve_validation(self):
        CurveAnnotation(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError):
            CurveAnnotation(np.array([0.0, 1.5]))
        with pytest.raises(ValueError):
            CurveAnnotation(np.array([[0.1, 0.2]]))


class TestFromIntervals:
    def test_worked_example(self):
        tl = ClipTimeline(5, 2.0)
        lab = from_intervals(tl, [Interval(2.0, 6.0)])
        assert lab.foreground.tolist() == [0, 1, 1, 0, 0]
        np.testing.assert_allclose(lab.offsets[1], [1.0, 3.0])
        np.testing.assert_allclose(lab.offsets[2], [3.0, 1.0])
        np.testing.assert_allclose(lab.saliency, [0, 1, 1, 0, 0])

    def test_overlap_takes_nearest_center(self):
        tl = ClipTimeline(6, 2.0)
        # clip 2 (t=5) sits in both; [4,12] has center 8, [0,6] has center 3
        lab = from_intervals(tl, [Interval(4.0, 12.0), Interval(0.0, 6.0)])
        np.testing.assert_allclose(lab.offsets[2], [5.0, 1.0])

    def test_tie_prefers_earlier_start(self):
        tl = ClipTimeline(4, 2.0)
        # equal center distance for clip 1 (t=3); the earlier-starting wins
        lab = from_intervals(tl, [Interval(2.0, 6.0), Interval(0.0, 8.0)])
        np.testing.assert_allclose(lab.offsets[1], [3.0, 5.0])

    def test_full_tie_prefers_earlier_input(self):
        tl = ClipTimeline(4, 2.0)
        lab = from_intervals(tl, [Interval(0.0, 8.0), Interval(0.0, 8.0)])
        np.testing.assert_allclose(lab.offsets[1], [3.0, 5.0])

    def test_out_of_range_interval_rejected(self):
        tl = ClipTimeline(4, 2.0)
        with pytest.raises(ValueError):
            from_intervals(tl, [Interval(0.0, 9.0)])

    def test_empty_and_uncovering_warn(self):
        tl = ClipTimeline(4, 2.0)
        with pytest.warns(GroundingWarning):
            lab = from_intervals(tl, [])
        assert not lab.foreground.any()
        with pytest.warns(GroundingWarning):
            # too narrow to contain any clip center
            lab = from_intervals(tl, [Interval(1.5, 2.5)])
        assert not lab.foreground.any()

    @given(
        num_clips=st.integers(2, 30),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_matches_oracle(self, num_clips, data):
        clip_len = data.draw(st.sampled_from((0.5, 1.0, 2.0)))
        tl = ClipTimeline(num_clips, clip_len)
        n_iv = data.draw(st.integers(1, 4))
        raw = []
        for _ in range(n_iv):
            a = data.draw(st.floats(0, tl.duration * 0.9))
            b = data.draw(st.floats(a, tl.duration))
            raw.append((a, b))
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("ignore", GroundingWarning)
            lab = from_intervals(tl, [Interval(a, b) for a, b in raw])
        f, d, s = interval_label_oracle(num_clips, clip_len, raw)
        assert lab.foreground.tolist() == f
        np.testing.assert_allclose(lab.offsets, d, atol=1e-12)
        np.testing.assert_allclose(lab.saliency, s, atol=1e-12)

    @given(data=st.data())
    @settings(max_examples=1000, deadline=None)
    def test_bitwise_equal_to_oracle(self, data):
        clip_len = data.draw(st.sampled_from((0.7, 1 / 3, 0.1, 0.3, 1.1, 2.0, 0.5, 3.7)))
        num_clips = data.draw(st.integers(1, 24))
        tl = ClipTimeline(num_clips, clip_len)
        # clip edges and centres as endpoints give zero-length, nested and equal-distance
        # intervals; 2 * num_clips * clip_len / 2 is exactly the grid's end
        edge = st.integers(0, 2 * num_clips).map(lambda k: k * clip_len / 2)
        point = st.one_of(edge, st.floats(0, tl.duration))
        raw = [tuple(sorted((data.draw(point), data.draw(point))))
               for _ in range(data.draw(st.integers(0, 6)))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GroundingWarning)
            lab = from_intervals(tl, [Interval(a, b) for a, b in raw])
        f, d, s = interval_label_oracle(num_clips, clip_len, raw)
        assert lab.foreground.tobytes() == np.array(f, dtype=np.int8).tobytes()
        assert lab.offsets.tobytes() == np.array(d, dtype=np.float64).reshape(-1, 2).tobytes()
        assert lab.saliency.tobytes() == np.array(s, dtype=np.float64).tobytes()

    def test_warnings_in_order(self):
        tl = ClipTimeline.from_duration(30.96, 2.0)  # grid end 30, last centre 29
        with pytest.warns(GroundingWarning) as caught:
            lab = from_intervals(tl, [Interval(30.5, 30.9), Interval(30.2, 30.96)], 30.96)
        assert [str(w.message) for w in caught] == [
            "interval [30.5, 30.9] passes the clip grid's end 30.0; clipped to it",
            "interval [30.2, 30.96] passes the clip grid's end 30.0; clipped to it",
            "no clip centre falls inside any interval; label is all background",
        ]
        assert not lab.foreground.any()
        with pytest.warns(GroundingWarning) as caught:
            from_intervals(tl, [])
        assert [str(w.message) for w in caught] == ["empty interval list; label is all background"]


class TestDeclaredDuration:
    """A declared duration past the grid's end (a trailing partial clip)."""

    def test_interval_to_declared_end_clipped_to_grid(self):
        tl = ClipTimeline.from_duration(30.96, 2.0)  # 15 clips, grid end 30
        with pytest.warns(GroundingWarning, match="clipped") as caught:
            lab = from_intervals(tl, [Interval(24.0, 30.96), Interval(2.0, 4.0)], 30.96)
        assert len(caught) == 1
        assert lab.foreground.tolist() == [0, 1] + [0] * 10 + [1, 1, 1]
        assert lab.offsets[14].tolist() == [5.0, 1.0]  # centre 29, interval [24, 30]

    def test_interval_past_declared_end_rejected(self):
        tl = ClipTimeline.from_duration(30.96, 2.0)
        with pytest.raises(ValueError, match=r"exceeds the video \[0, 30.96\]"):
            from_intervals(tl, [Interval(24.0, 31.0)], 30.96)

    def test_grid_end_is_the_limit_without_duration(self):
        tl = ClipTimeline.from_duration(30.96, 2.0)
        with pytest.raises(ValueError, match=r"exceeds the video \[0, 30.0\]"):
            from_intervals(tl, [Interval(24.0, 30.96)])

    def test_timestamps_clipped_one_warning_each(self):
        tl = ClipTimeline.from_duration(30.96, 2.0)
        with pytest.warns(GroundingWarning, match="clipped") as caught:
            labs = from_points(tl, PointAnnotation((10.0, 30.5, 30.9)), 30.96)
        assert len(caught) == 2
        assert len(labs) == 3
        assert labs[1].foreground.tolist() == labs[2].foreground.tolist()
        with pytest.raises(ValueError, match="exceeds the video duration 30.96"):
            from_points(tl, PointAnnotation((31.0,)), 30.96)


class TestFromCurve:
    def test_worked_example(self):
        tl = ClipTimeline(4, 2.0)
        lab = from_curve(tl, [0.20, 0.61, 0.63, 0.30])
        assert lab.foreground.tolist() == [0, 1, 1, 0]
        ivs = intervals_of(tl, lab)
        assert [(iv.start, iv.end) for iv in ivs] == [(2.0, 6.0)]
        np.testing.assert_allclose(lab.offsets[1], [1.0, 3.0])
        np.testing.assert_allclose(lab.saliency, [0, 0.61, 0.63, 0])

    def test_bin_boundaries_stable(self):
        # 0.30/0.05 is 5.999... in floats; the epsilon guard keeps bin 6
        np.testing.assert_array_equal(
            bin_index(np.array([0.30, 0.60, 0.15, 0.95])), [6, 12, 3, 19]
        )

    def test_all_equal_curve_marks_everything(self):
        tl = ClipTimeline(3, 2.0)
        lab = from_curve(tl, [0.4, 0.4, 0.4])
        assert lab.foreground.tolist() == [1, 1, 1]

    def test_zero_curve_keeps_saliency_positive(self):
        tl = ClipTimeline(2, 2.0)
        lab = from_curve(tl, [0.0, 0.0])
        assert lab.foreground.tolist() == [1, 1]
        assert (lab.saliency > 0).all()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            from_curve(ClipTimeline(3, 2.0), [0.1, 0.2])

    @given(
        values=st.lists(st.floats(0, 1), min_size=1, max_size=40),
        bin_width=st.sampled_from((0.05, 0.1, 0.25)),
    )
    @settings(**SETTINGS)
    def test_max_bin_membership(self, values, bin_width):
        tl = ClipTimeline(len(values), 2.0)
        lab = from_curve(tl, values, bin_width)
        assert lab.foreground.tolist() == curve_foreground_oracle(values, bin_width)
        assert lab.foreground.any()

    @given(values=st.lists(st.floats(0, 1), min_size=1, max_size=40))
    @settings(**SETTINGS)
    def test_runs_become_intervals(self, values):
        tl = ClipTimeline(len(values), 2.0)
        lab = from_curve(tl, values)
        ivs = intervals_of(tl, lab)
        runs = runs_oracle(lab.foreground.astype(bool))
        assert [(iv.start, iv.end) for iv in ivs] == [
            (first * 2.0, (last + 1) * 2.0) for first, last in runs
        ]


class TestFromPoints:
    def test_worked_example(self):
        tl = ClipTimeline(10, 2.0)
        labs = from_points(tl, PointAnnotation((2.0, 10.0)))
        plain = from_points(tl, [2.0, 10.0])  # a plain list of timestamps reads the same
        for a, b in zip(plain, labs, strict=True):
            for field in ("foreground", "offsets", "saliency"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert len(labs) == 2
        assert [(iv.start, iv.end) for iv in intervals_of(tl, labs[0])] == [(0.0, 6.0)]
        assert [(iv.start, iv.end) for iv in intervals_of(tl, labs[1])] == [(6.0, 14.0)]

    @pytest.mark.parametrize("points", [(2.0, 10.0), np.array([10.0, 2.0]), iter([2.0, 10.0, 2.0])],
                             ids=["tuple", "array", "iterator"])
    def test_plain_sequence_reads_as_an_annotation(self, points):
        tl = ClipTimeline(10, 2.0)
        want = [lab.foreground.tolist() for lab in from_points(tl, PointAnnotation((2.0, 10.0)))]
        assert [lab.foreground.tolist() for lab in from_points(tl, points)] == want

    def test_single_point_uses_double_clip_span(self):
        tl = ClipTimeline(10, 2.0)
        (lab,) = from_points(tl, PointAnnotation((9.0,)))
        # window [7, 11] contains clip centers 7, 9, 11
        assert lab.foreground.tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 0, 0]

    def test_window_clamped_to_video(self):
        tl = ClipTimeline(5, 2.0)
        (lab,) = from_points(tl, PointAnnotation((0.5,)))
        assert lab.foreground[0] == 1

    def test_point_beyond_duration_rejected(self):
        tl = ClipTimeline(5, 2.0)
        with pytest.raises(ValueError):
            from_points(tl, PointAnnotation((11.0,)))

    @given(
        stamps=st.lists(
            st.floats(0, 20), min_size=2, max_size=6, unique=True
        ),
    )
    @settings(**SETTINGS)
    def test_windows_match_oracle(self, stamps):
        tl = ClipTimeline(10, 2.0)
        labs = from_points(tl, PointAnnotation(tuple(stamps)))
        windows = point_windows_oracle(stamps, 2.0)
        assert len(labs) == len(windows)
        for lab, (lo, hi) in zip(labs, windows):
            lo = max(lo, 0.0)
            hi = min(hi, tl.duration)
            expected = [
                1 if lo <= tl.timestamp(i) <= hi else 0 for i in range(10)
            ]
            assert lab.foreground.tolist() == expected


class TestRoundTrip:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_clip_aligned_intervals_survive(self, data):
        num_clips = data.draw(st.integers(3, 40))
        clip_len = data.draw(st.sampled_from((0.5, 1.0, 2.0)))
        tl = ClipTimeline(num_clips, clip_len)
        # non-adjacent clip-aligned intervals: gaps of at least one clip
        edges = sorted(data.draw(st.sets(st.integers(0, num_clips), min_size=2, max_size=8)))
        ivs = []
        prev_end = -1
        for a, b in zip(edges[::2], edges[1::2]):
            if a > prev_end and b > a:
                ivs.append(Interval(a * clip_len, b * clip_len))
                prev_end = b
        if not ivs:
            return
        lab = from_intervals(tl, ivs)
        back = intervals_of(tl, lab)
        assert [(iv.start, iv.end) for iv in back] == [(iv.start, iv.end) for iv in ivs]


# input checks no other test reaches: the call, its exception type and its message
INPUT_CHECKS = {
    "curve_finite": (lambda: CurveAnnotation([0.5, np.nan]), ValueError, "curve must be finite"),
    "curve_string_entry": (lambda: CurveAnnotation(["0.5"]), ValueError,
                           "curve must be an array of numbers"),
    "curve_shape": (lambda: CurveAnnotation([[0.1, 0.2]]), ValueError,
                    "curve must have shape (n,), got (1, 2)"),
    "points_empty": (lambda: PointAnnotation(()), ValueError,
                     "timestamps must have shape (n,), got (0,)"),
    "points_string": (lambda: PointAnnotation(("3",)), ValueError,
                      "timestamps must be an array of numbers"),
    "points_negative": (lambda: PointAnnotation((-1.0,)), ValueError,
                        "timestamps must be non-negative"),
    "bin_width_zero": (lambda: bin_index([0.5], 0.0), ValueError,
                       "bin_width must lie in (0, 1], got 0.0"),
    "bin_width_above_one": (lambda: bin_index([0.5], 1.5), ValueError,
                            "bin_width must lie in (0, 1], got 1.5"),
    "bin_width_string": (lambda: bin_index([0.5], "0.1"), ValueError,
                         "bin_width must be a finite number, got '0.1'"),
    "bin_string_value": (lambda: bin_index(["0.5"]), ValueError,
                         "values must be an array of numbers"),
    "bin_nan_value": (lambda: bin_index([0.5, np.nan]), ValueError, "values must be finite"),
    "bin_shape": (lambda: bin_index(0.5), ValueError, "values must have shape (n,), got ()"),
    "interval_string_pair": (lambda: from_intervals(ClipTimeline(4, 1.0), [("0", "2")]),
                             ValueError, "start must be a finite number, got '0'"),
    "duration_string": (lambda: from_intervals(ClipTimeline(4, 1.0), [(0, 2)], duration="5"),
                        ValueError, "duration must be a finite number, got '5'"),
    "duration_nan": (lambda: from_points(ClipTimeline(4, 1.0), [1.0], duration=np.nan),
                     ValueError, "duration must be a finite number, got nan"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error
