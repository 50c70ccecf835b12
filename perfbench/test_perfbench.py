"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""
import hashlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import stats  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    tree = [
        Span(0, "cli.fit", 0.0, 10.0, None),
        Span(1, "fit.overfit", 1.0, 4.0, 0),
        Span(2, "losses.fit", 2.0, 3.0, 1),
        Span(3, "formats.write", 5.0, 7.0, 0),
    ]
    assert self_times(tree) == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})


def test_self_time_counts_overlapping_and_overhanging_children_once():
    tree = [
        Span(0, "parent", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),  # overlaps a by 1
        Span(3, "c", 9.0, 12.0, 0),  # runs past the parent's end by 2
    ]
    assert self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_layer_totals():
    tracer = Tracer()

    def inner():
        return tracer.call("losses.fit", lambda: 7)

    assert tracer.call("cli.fit", lambda: tracer.call("fit.overfit", inner)) == 7
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["cli.fit"].parent is None
    assert by_name["fit.overfit"].parent == by_name["cli.fit"].id
    assert by_name["losses.fit"].parent == by_name["fit.overfit"].id
    assert len({s.id for s in tracer.spans}) == 3
    metrics = spans.layer_metrics(tracer)
    assert metrics["losses.eval_s"] == pytest.approx(by_name["losses.fit"].duration)
    assert metrics["fit.self_s"] == pytest.approx(
        by_name["fit.overfit"].duration - by_name["losses.fit"].duration
    )


def test_wrappers_restore_the_original_functions():
    import tgkit.cli
    import tgkit.decode
    import tgkit.fit

    before = {(t.module, t.attr): getattr(sys.modules[t.module], t.attr) for t in spans.TARGETS}
    with spans.install(Tracer()) as tracer:
        assert not tracer.missing
        assert tgkit.cli.read_dataset is not before[("tgkit.cli", "read_dataset")]
        assert tgkit.decode.nms_1d.__wrapped__ is before[("tgkit.decode", "nms_1d")]
    for (module, attr), original in before.items():
        assert getattr(sys.modules[module], attr) is original
    assert tgkit.fit._total_loss_arrays is before[("tgkit.fit", "_total_loss_arrays")]


def test_a_missing_target_is_reported_not_raised():
    tracer = Tracer()
    tracer.wrap("tgkit.cli", "no_such_function", "x.y")
    tracer.wrap("tgkit.no_such_module", "f", "x.y")
    assert tracer.missing == ["tgkit.cli.no_such_function", "tgkit.no_such_module.f"]
    assert spans.is_missing("decode.nms_s", ["tgkit.decode.nms_1d"])
    assert not spans.is_missing("decode.kts_s", ["tgkit.decode.nms_1d"])
    assert spans.is_missing("decode.nms_kept", ["tgkit.decode.nms_1d"])
    assert spans.is_missing("gradcheck.total_s", ["tgkit.cli.grad_check"])
    assert not spans.is_missing("gradcheck.total_s", ["tgkit.fit._total_loss_arrays"])


def _tree_digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


@pytest.mark.parametrize("workload", ["train", "long_videos"])
def test_generators_are_deterministic_for_a_fixed_seed(workload, tmp_path):
    from workloads import WORKLOADS

    digests = []
    plans = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        out = tmp_path / name
        out.mkdir()
        plans.append(WORKLOADS[workload](seed, out).to_obj())
        digests.append(_tree_digest(out))
    assert digests[0] == digests[1]
    assert plans[0] == plans[1]
    assert digests[0] != digests[2]


def test_high_percentile_needs_ten_samples_beyond_it():
    assert stats.high_percentile(range(19)) is None
    assert stats.high_percentile(range(1, 21)) == (50.0, 10.0)
    assert stats.high_percentile(range(1, 101)) == (90.0, 90.0)
    assert stats.high_percentile(range(1, 1001)) == (99.0, 990.0)
