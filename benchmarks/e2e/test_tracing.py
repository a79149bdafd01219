"""Tests of the benchmark's tracer (``pytest benchmarks/e2e -q``; not part
of the repository's tier-1 ``testpaths``)."""

import sys
import types

import pytest

from tracing import ATTR, NAME, OP_ID, PARENT_ID, Tracer, self_times, span_table


@pytest.fixture(autouse=True, scope="module")
def obs_trace():
    """Shadow ``benchmarks/conftest.py``'s profiler fixture: these tests run
    no ``repro`` code, so there is no BENCH_*.json worth writing."""
    yield


class FakeClock:
    """Every reading advances by one, so durations are exact integers."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def span(name, t0, t1, span_id, parent, attr=None):
    return [name, t0, t1, span_id, parent, 0, attr]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span("a.outer", 0.0, 10.0, 0, -1),
        span("b.child", 1.0, 4.0, 1, 0),
        span("c.grandchild", 2.0, 3.0, 2, 1),
        span("b.child", 5.0, 9.0, 3, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = span_table(spans)
    assert table["a.outer"] == {
        "calls": 1, "total_s": 10.0, "self_s": 3.0, "attr_sum": 0.0}
    assert table["b.child"]["calls"] == 2
    assert table["b.child"]["total_s"] == 7.0
    assert table["b.child"]["self_s"] == 6.0
    # self times partition the root's duration
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_span_table_sums_numeric_attrs_only():
    spans = [span("x.io", 0, 1, 0, -1, 100), span("x.io", 1, 2, 1, -1, 50),
             span("x.io", 2, 3, 2, -1, ("tensor", 8))]
    assert span_table(spans)["x.io"]["attr_sum"] == 150


def test_wrapped_calls_nest_and_carry_the_op_id():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap(lambda x: x + 1, "l.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "l.outer")
    tracer.set_op(7)
    assert outer(1) == 4
    (o, i) = tracer.spans
    assert (o[NAME], o[PARENT_ID], o[OP_ID]) == ("l.outer", -1, 7)
    assert (i[NAME], i[PARENT_ID], i[OP_ID]) == ("l.inner", 0, 7)
    # clock reads: outer t0=1, inner t0=2, inner t1=3, outer t1=4
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_same_name_nesting_is_recorded_once():
    tracer = Tracer(clock=FakeClock())

    def vcycle(level):
        return 0 if level == 2 else 1 + traced(level + 1)

    traced = tracer.wrap(vcycle, "mg.vcycle")
    assert traced(0) == 2
    assert [s[NAME] for s in tracer.spans] == ["mg.vcycle"]


def test_return_value_exception_and_attr_pass_through():
    tracer = Tracer(clock=FakeClock())
    marker = object()
    assert tracer.wrap(lambda: marker, "l.value")() is marker

    class Boom(Exception):
        pass

    err = Boom("unchanged")

    def explode():
        raise err

    with pytest.raises(Boom) as caught:
        tracer.wrap(explode, "l.raises")()
    assert caught.value is err
    raised = tracer.spans[-1]
    assert raised[NAME] == "l.raises" and raised[2] > raised[1]
    assert tracer._stack == []  # the failed span was closed

    sized = tracer.wrap(lambda path: path, "l.attr",
                        attr=lambda result, args: len(result) + len(args))
    assert sized("abc") == "abc"
    assert tracer.spans[-1][ATTR] == 4


def test_paused_records_nothing():
    tracer = Tracer(clock=FakeClock())
    fn = tracer.wrap(lambda: 1, "l.fn")
    with tracer.paused():
        assert fn() == 1
    assert tracer.spans == []
    fn()
    assert len(tracer.spans) == 1


def _fake_package():
    """``fakepkg.defs`` defines ``work``; ``fakepkg.user`` binds it by name
    (``from .defs import work``), as several repro callers do."""
    defs = types.ModuleType("fakepkg.defs")

    def work(x):
        return x * 3

    defs.work = work
    user = types.ModuleType("fakepkg.user")
    user.work = work
    user.call = lambda x: user.work(x)
    other = types.ModuleType("otherpkg")
    other.work = work
    mods = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.defs": defs,
            "fakepkg.user": user, "otherpkg": other}
    return mods, work


def test_install_function_patches_every_binding_by_identity(monkeypatch):
    mods, work = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    with Tracer(clock=FakeClock()) as tracer:
        assert tracer.install_function(work, "fake.work",
                                       prefix="fakepkg") == 2
        assert mods["fakepkg.defs"].work is not work
        assert mods["fakepkg.user"].work is mods["fakepkg.defs"].work
        assert mods["otherpkg"].work is work  # outside the prefix
        assert mods["fakepkg.user"].call(2) == 6
        assert [s[NAME] for s in tracer.spans] == ["fake.work"]
    # restored on exit, by identity
    assert mods["fakepkg.defs"].work is work
    assert mods["fakepkg.user"].work is work


def test_install_method_covers_overrides_and_restores():
    class Base:
        def apply(self, x):
            return x + 1

        def dot(self, x):
            return x

    class Override(Base):
        def apply(self, x):
            return x + 2

    class Inherits(Base):
        pass

    base_apply, override_apply = Base.__dict__["apply"], Override.__dict__["apply"]
    tracer = Tracer(clock=FakeClock())
    assert tracer.install_method(Base, "apply", "op.apply") == 2
    assert (Base().apply(1), Override().apply(1), Inherits().apply(1)) == (2, 3, 2)
    assert len(tracer.spans) == 3

    # a method the class only inherits is wrapped on that class alone
    tracer.install_method(Inherits, "dot", "op.dot")
    Inherits().dot(1)
    Base().dot(1)
    assert [s[NAME] for s in tracer.spans].count("op.dot") == 1

    tracer.restore()
    assert Base.__dict__["apply"] is base_apply
    assert Override.__dict__["apply"] is override_apply
    assert "dot" not in Inherits.__dict__
    assert Base().apply(1) == 2 and len(tracer.spans) == 4


def test_contract_lists_exactly_the_per_layer_metrics_the_code_emits():
    import json
    import os

    from layers import PER_LAYER

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    listed = {m["name"]: (m["unit"], m["better"])
              for m in contract["per_layer"]}
    assert listed == PER_LAYER
