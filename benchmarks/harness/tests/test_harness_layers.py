"""Self time, restoration and span output of the layer tracer."""

import json

import pytest

import layers


class FakeClock:
    """A perf_counter stand-in that moves only when the code under test
    says how long its own work took."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter", fake)
    return fake


def test_self_time_of_a_nested_call_tree(clock):
    tracer = layers.Tracer()

    def leaf():
        clock.work(1.0)

    def middle():
        clock.work(2.0)
        wrapped_leaf()

    def outer():
        clock.work(4.0)
        wrapped_middle()
        wrapped_middle()
        wrapped_leaf()
        return "done"

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    wrapped_outer = tracer.wrap("outer", outer)

    assert wrapped_outer() == "done"
    self_s, calls = tracer.take()
    assert self_s == {"outer": 4.0, "middle": 4.0, "leaf": 3.0}
    assert calls == {"outer": 1, "middle": 2, "leaf": 3}
    assert sum(self_s.values()) == clock.now
    assert tracer.take() == ({}, {})


def test_a_raising_call_is_still_charged(clock):
    tracer = layers.Tracer()

    def fails():
        clock.work(0.5)
        raise ValueError("boom")

    wrapped = tracer.wrap("fails", fails)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.take() == ({"fails": 0.5}, {"fails": 1})


def _bound():
    return [vars(layers._owner(t))[t.attr] for t in layers.LAYERS]


def test_installed_wraps_every_target_and_restores_on_error():
    from repro.sim.resource import Resource

    before = _bound()
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with layers.installed(tracer):
            assert all(
                now is not then for now, then in zip(_bound(), before)
            )
            Resource().acquire(0, 3)
            raise RuntimeError("leave the block early")
    assert all(now is then for now, then in zip(_bound(), before))
    assert tracer.take()[1] == {"sim.resource.acquire": 1}


def test_spans_nest_and_write_as_chrome_trace(clock, tmp_path):
    tracer = layers.Tracer()
    with tracer.span("workload") as root:
        with tracer.span("cell", parent=root, seed=3):
            clock.work(0.25)
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    cell, workload = events
    assert cell["name"] == "cell" and cell["dur"] == 0.25e6
    assert cell["args"] == {"id": 2, "parent": 1, "seed": 3}
    assert workload["args"]["parent"] is None
    assert workload["ph"] == "X"
