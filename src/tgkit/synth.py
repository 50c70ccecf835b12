"""Synthetic corpora for tests and the runnable toy pipeline.

The generator keeps target moments clip-aligned and well separated so that a
perfectly fitted model decodes them exactly; that makes end-to-end runs easy
to grade without any learned components.
"""
from __future__ import annotations

import numpy as np

from .core import _AT_LEAST_1, ClipTimeline, Interval, Query, _at_least, _checked_number
from .formats import DatasetRecord, MatrixRecord
from .labels import from_intervals


def toy_corpus(
    num_videos: int = 3,
    num_clips: int = 40,
    clip_len: float = 2.0,
    seed: int = 0,
) -> list[DatasetRecord]:
    """Interval-annotated records with one clip-aligned moment per video.

    Moments span 3..6 clips and never touch the first or last clip, so the
    ground-truth interval set survives a label round trip unchanged.
    """
    num_videos = _checked_number("num_videos", num_videos, int, _AT_LEAST_1)
    num_clips = _checked_number("num_clips", num_clips, int, _at_least(10))
    rng = np.random.default_rng(seed)
    timeline = ClipTimeline(num_clips, clip_len)
    records = []
    for v in range(num_videos):
        width = int(rng.integers(3, 7))
        first = int(rng.integers(1, num_clips - width))
        moment = Interval(first * clip_len, (first + width) * clip_len)
        label = from_intervals(timeline, [moment])
        records.append(
            DatasetRecord(
                video_id=f"video{v:02d}",
                query_id="q0",
                duration=timeline.duration,
                clip_len=clip_len,
                query=Query(f"toy moment {v}", "sentence"),
                source_kind="interval",
                annotation=[moment],
                label=label,
            )
        )
    return records


def toy_similarity(
    num_videos: int = 2,
    num_clips: int = 24,
    num_concepts: int = 8,
    clip_len: float = 2.0,
    seed: int = 0,
) -> list[MatrixRecord]:
    """Clip-by-concept similarity matrices with planted high-scoring runs of 2..5 clips."""
    num_videos = _checked_number("num_videos", num_videos, int, _AT_LEAST_1)
    num_clips = _checked_number("num_clips", num_clips, int, _at_least(5))
    num_concepts = _checked_number("num_concepts", num_concepts, int, _AT_LEAST_1)
    rng = np.random.default_rng(seed)
    names = tuple(f"concept_{c:02d}" for c in range(num_concepts))
    records = []
    for v in range(num_videos):
        values = rng.uniform(-0.2, 0.2, size=(num_clips, num_concepts))
        for c in range(num_concepts):
            width = int(rng.integers(2, 6))
            first = int(rng.integers(0, num_clips - width + 1))
            values[first:first + width, c] += rng.uniform(0.5, 0.8)
        values = np.clip(values, -1.0, 1.0)
        records.append(MatrixRecord(f"video{v:02d}", clip_len, names, values))
    return records
