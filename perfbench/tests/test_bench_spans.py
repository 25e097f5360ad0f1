import types

import pytest

import layers
import run
from spans import Tracer, covered_seconds, restore, self_times, wrap_leaf, wrap_span


def _span(id, parent, name, start, end, **counters):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end,
            "counters": counters}


# cli.import [0, 1]; cli.main [1, 10] holding a load [1, 2], a train [2, 5]
# and a base suite [5, 9] whose model queries take 1.5 s in 300 calls;
# 0.5 s of cli.main and 0.5 s before cli.import belong to no layer.
TRACE = {
    "spans": [
        _span(0, None, "cli.import", 0.5, 1.0),
        _span(1, None, "cli.main", 1.0, 10.0),
        _span(2, 1, "data.load", 1.0, 2.0, rows=100),
        _span(3, 1, "models.train", 2.0, 5.0, kind="mlp"),
        _span(4, 1, "generators.base", 5.0, 9.0, kind="random", samples=50, idi=5,
              budget_reached=1, invalid=0, repaired=0, failed=0),
    ],
    "leaves": [{"parent": 4, "name": "models.predict", "calls": 300, "seconds": 1.5,
                "rows": 600}],
    "missing": [],
}


def test_self_time_subtracts_child_spans_and_leaves():
    own = self_times(TRACE)
    assert own[1] == pytest.approx(9.0 - 1.0 - 3.0 - 4.0)
    assert own[4] == pytest.approx(4.0 - 1.5)
    assert own[3] == pytest.approx(3.0)
    assert layers.self_time_by_name(TRACE, own)["generators.base"] == pytest.approx(2.5)


def test_coverage_is_outermost_layer_spans_over_wall():
    assert covered_seconds(TRACE, root="cli.main") == pytest.approx(0.5 + 8.0)
    m = layers.layer_metrics(TRACE, wall_s=10.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["cli.span_coverage"] == pytest.approx(0.85)


def test_nested_spans_and_their_leaves_are_counted_once():
    trace = {"spans": [_span(0, None, "root", 0.0, 9.0), _span(1, 0, "a", 0.0, 4.0),
                       _span(2, 1, "b", 1.0, 2.0), _span(3, 0, "c", 5.0, 6.0),
                       _span(4, None, "d", 9.0, 9.5)],
             "leaves": [{"parent": 0, "name": "x", "calls": 1, "seconds": 0.25, "rows": 1},
                        {"parent": 2, "name": "x", "calls": 1, "seconds": 0.5, "rows": 1}]}
    assert covered_seconds(trace, root="root") == pytest.approx(4.0 + 1.0 + 0.5 + 0.25)


def test_layer_metrics_from_counters_and_leaves():
    m = layers.layer_metrics(TRACE, wall_s=10.0)
    assert m["data.load_rows"] == 100
    assert m["models.train_mlp_s"] == pytest.approx(3.0)
    assert m["models.train_logistic_s"] == 0
    assert m["models.rows_per_predict"] == pytest.approx(2.0)
    assert m["generators.base.random_s"] == pytest.approx(4.0)
    assert m["generators.idi_per_sample"] == pytest.approx(0.1)
    assert m["generators.repair_ratio"] == 0.0
    assert set(m) | {"demo.generate_s", "trace.overhead_s"} == {
        metric["name"] for metric in run.BENCHMARK["per_layer"]
    }


def test_tracer_wrappers_record_parent_ids_and_restore():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace(
        outer=lambda n: mod.inner(n) + mod.query([1, 2, 3]),
        inner=lambda n: n * 2,
        query=lambda rows: len(rows),
    )
    originals = (mod.outer, mod.inner, mod.query)
    undo = []
    wrap_span(tracer, mod, "outer", "layer.outer",
              lambda c, args, result: c.update(n=args["n"], result=result), undo)
    wrap_span(tracer, mod, "inner", "layer.inner", None, undo)
    wrap_leaf(tracer, mod, "query", "layer.query", lambda args: len(args[0]), undo)
    wrap_span(tracer, mod, "absent", "layer.absent", None, undo)

    assert mod.outer(4) == 11
    outer, inner = tracer.spans
    assert (outer["parent"], inner["parent"]) == (None, outer["id"])
    assert outer["counters"] == {"n": 4, "result": 11}
    leaf = tracer.to_dict()["leaves"][0]
    assert (leaf["parent"], leaf["calls"], leaf["rows"]) == (outer["id"], 1, 3)
    assert len(tracer.missing) == 1 and tracer.missing[0].endswith(".absent")

    restore(undo)
    assert (mod.outer, mod.inner, mod.query) == originals


def test_counter_the_program_cannot_fill_is_reported_not_raised():
    tracer = Tracer()
    mod = types.SimpleNamespace(run=lambda: 5)
    wrap_span(tracer, mod, "run", "layer.run", lambda c, args, result: result.ledger)
    assert mod.run() == 5
    assert "layer.run counters" in tracer.missing[0]
