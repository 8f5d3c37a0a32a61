"""Span self-time arithmetic: per-layer self times add up to the root."""

import threading

import pytest

from spans import Span, Tracer, self_times


def _span(index, layer, start, end, parent):
    return Span(index, f"s{index}", layer, start, end, parent, None, 0)


def test_self_time_subtracts_direct_children():
    spans = [
        _span(0, "bench", 0.0, 10.0, None),
        _span(1, "graph", 1.0, 4.0, 0),
        _span(2, "core", 2.0, 3.0, 1),
        _span(3, "core", 5.0, 9.0, 0),
        _span(4, "service", 6.0, 6.5, 3),
    ]
    totals = self_times(spans, 0)
    assert totals["bench"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert totals["graph"] == pytest.approx(3.0 - 1.0)
    assert totals["core"] == pytest.approx(1.0 + 3.5)
    assert totals["service"] == pytest.approx(0.5)
    assert sum(totals.values()) == pytest.approx(10.0)


def test_self_times_only_cover_the_root_subtree():
    spans = [
        _span(0, "bench", 0.0, 1.0, None),
        _span(1, "core", 0.2, 0.4, 0),
        _span(2, "core", 5.0, 6.0, None),  # outside the window
    ]
    assert self_times(spans, 0) == pytest.approx({"bench": 0.8, "core": 0.2})


def test_recorded_spans_nest_and_add_up():
    tracer = Tracer(True)
    with tracer.span("root", "bench"):
        with tracer.span("outer", "graph", request=7):
            with tracer.span("inner", "core"):
                sum(range(1000))
        wrapped = tracer.wrap("call", "service", lambda x: x + 1)
        assert wrapped(1) == 2
    root, outer, inner, call = tracer.spans
    assert root.parent is None
    assert outer.parent == root.index and outer.request == 7
    assert inner.parent == outer.index
    assert call.parent == root.index
    totals = self_times(tracer.spans, root.index)
    assert sum(totals.values()) == pytest.approx(root.duration, abs=1e-12)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("root", "bench"):
        pass
    assert tracer.spans == []


def test_spans_on_other_threads_get_their_own_stack():
    tracer = Tracer(True)

    def work():
        with tracer.span("worker", "core"):
            pass

    with tracer.span("root", "bench"):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    worker = next(span for span in tracer.spans if span.name == "worker")
    assert worker.parent is None


def test_write_dumps_one_json_line_per_span(tmp_path):
    tracer = Tracer(True)
    with tracer.span("root", "bench", request=3):
        pass
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert '"request": 3' in lines[0]
