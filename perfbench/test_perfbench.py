"""Tests of the benchmark itself: span arithmetic, loud failure on a missing
layer, and the names BENCHMARK.json declares.

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, Span, Target, TraceError  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(name, start, end, parent=None, phase="timed"):
    return Span(name, start, end, parent, None, None, phase)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    s = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 4.0, parent=0),  # overlaps a: covered once
        _span("c", 8.0, 12.0, parent=0),  # runs past the parent: clipped
        _span("grandchild", 1.5, 2.5, parent=1),  # counts for a, not root
    ]
    assert spans.self_times(s) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_recorder_nests_spans_and_layer_stats_use_self_time():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.file = "wb_000.wav"
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner() or inner())
    outer()
    assert [(sp.name, sp.parent, sp.file) for sp in rec.spans] == [
        ("outer", None, "wb_000.wav"), ("inner", 0, "wb_000.wav"), ("inner", 0, "wb_000.wav")]
    stats = spans.layer_stats(rec.spans, ["outer", "inner", "never"])
    # outer spans ticks 0..5, each inner one tick
    assert stats["outer"] == {"calls": 1, "ms_per_call": 5000.0, "ms_self": 3000.0}
    assert stats["inner"] == {"calls": 2, "ms_per_call": 1000.0, "ms_self": 1000.0}
    assert stats["never"] == {"calls": 0, "ms_per_call": 0.0, "ms_self": 0.0}


def test_recorder_keeps_the_exception_reason():
    class Degenerate(Exception):
        reason = "silent narrowband frame"

    def boom():
        raise Degenerate()

    rec = Recorder()
    with pytest.raises(Degenerate):
        rec.wrap("f", boom)()
    assert rec.spans[0].error == "silent narrowband frame"
    assert layers._slug(rec.spans[0].error) == "silent_narrowband_frame"


def test_expected_span_without_calls_fails_loudly():
    s = [_span("hinf.solve_dare", 0.0, 1.0)]
    spans.require_calls(s, ["hinf.solve_dare"])
    with pytest.raises(TraceError, match="sysid.prony_fit"):
        spans.require_calls(s, ["hinf.solve_dare", "sysid.prony_fit"])


def test_forbidden_span_in_timed_section_fails_loudly():
    setup_only = [_span("hinf.solve_dare", 0.0, 1.0, phase="setup")]
    spans.require_calls(setup_only, [], forbidden=["hinf.solve_dare"])
    with pytest.raises(TraceError, match="hinf.solve_dare"):
        spans.require_calls([_span("hinf.solve_dare", 0.0, 1.0)], [], forbidden=["hinf.solve_dare"])


def test_renamed_target_fails_loudly():
    with pytest.raises(TraceError, match="no_such_function"):
        with spans.instrument(Recorder(), [Target("x.y", "sdabe.hinf", "no_such_function")]):
            pass


def test_instrument_wraps_every_lookup_site_and_restores_it():
    import sdabe.features
    import sdabe.sysid

    original = sdabe.sysid.prony_fit
    assert sdabe.features.prony_fit is original
    rec = Recorder()
    with spans.instrument(rec, [Target("sysid.prony_fit", "sdabe.sysid", "prony_fit")]):
        assert sdabe.features.prony_fit is sdabe.sysid.prony_fit is not original
    assert sdabe.features.prony_fit is sdabe.sysid.prony_fit is original


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    assert not bad
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    import workloads

    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert set(per_layer) == set(layers.per_layer_values([], 0.0))
    for name in layers.SPAN_NAMES:
        assert per_layer[f"{name}.calls"] == "count"
        assert per_layer[f"{name}.ms_per_call"] == per_layer[f"{name}.ms_self"] == "ms"
    for wl in workloads.WORKLOADS.values():
        assert set(wl.expected) <= set(layers.SPAN_NAMES)
        assert set(wl.forbidden) <= set(layers.SPAN_NAMES)
