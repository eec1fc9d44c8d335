import types

from perfbench.measure import tail
from perfbench.tracing import Tracer


def test_tail_keeps_ten_samples_above_it():
    assert tail(list(range(1, 101))) == (90, 90)
    assert tail(list(range(1, 201))) == (95, 190)
    assert tail([3.0, 1.0, 2.0]) == (50, 2.0)


def test_spans_record_self_time_and_restore_the_originals():
    owner = types.SimpleNamespace()
    owner.inner = lambda: sum(range(1000))
    owner.outer = lambda: owner.inner() + owner.inner()
    originals = (owner.inner, owner.outer)
    tracer = Tracer()
    with tracer:
        tracer.patch(owner, "inner", "dsl.inner")
        tracer.patch(owner, "outer", "loop.outer")
        tracer.patch(owner, "gone", "loop.gone")
        owner.outer()
    assert (owner.inner, owner.outer) == originals
    inner, outer = tracer.stats["dsl.inner"], tracer.stats["loop.outer"]
    assert (inner.count, outer.count, tracer.stats["loop.gone"].count) == (2, 1, 0)
    assert 0 < outer.self_time < outer.total
    assert abs(outer.total - outer.self_time - inner.total) < 1e-9
    assert tracer.edges[("loop.outer", "dsl.inner")][0] == 2


def test_errors_are_counted_and_raised():
    owner = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    tracer.patch(owner, "fail", "dsl.fail")
    try:
        owner.fail()
    except ZeroDivisionError:
        pass
    tracer.uninstall()
    assert tracer.stats["dsl.fail"].errors == 1
