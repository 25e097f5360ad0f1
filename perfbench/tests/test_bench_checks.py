import json
from pathlib import Path

import numpy as np
import pytest

import checks
import fairprobe.cli
import layers
import run
from fairprobe.generators import Pair
from fairprobe.models import ModelConfig, ModelUnderTest
from spans import Tracer, restore
from traced import check_pairs, install
from workloads import Workload

OUTPUTS = ("report.json", "report.csv", "timings.json")
CONFIG = {"budget": 10}


def _report(**run_fields) -> dict:
    doc = {"idi_count": 2, "sample_count": 10, "budget_reached": True, "spd": 0.1}
    doc.update(run_fields)
    return {"config": CONFIG, "cases": {"d/gender/lr/random": {"modes": {"base": {"runs": [doc]}}}}}


def _write(out, report_text: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_text)
    (out / "report.csv").write_text("case\n")
    (out / "timings.json").write_text("{}")


def test_clean_output_passes_with_counts(tmp_path):
    _write(tmp_path, json.dumps(_report()))
    summary, problems = checks.check_run(tmp_path, OUTPUTS, CONFIG)
    assert problems == []
    assert (summary["samples"], summary["idi"]) == (10, 2)


def test_missing_output_fails(tmp_path):
    _write(tmp_path, json.dumps(_report()))
    (tmp_path / "report.csv").unlink()
    _, problems = checks.check_run(tmp_path, OUTPUTS, CONFIG)
    assert problems and "missing" in problems[0]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_standard_json_constant_fails(tmp_path, constant):
    _write(tmp_path, json.dumps(_report()).replace('"spd": 0.1', f'"spd": {constant}'))
    _, problems = checks.check_run(tmp_path, OUTPUTS, CONFIG)
    assert problems and constant in problems[0]


@pytest.mark.parametrize(
    "fields, fragment",
    [({"idi_count": 11}, "idi_count 11"),
     ({"sample_count": 11, "idi_count": 0}, "sample_count 11"),
     ({"sample_count": 9}, "budget_reached")],
)
def test_suite_invariants_fail(tmp_path, fields, fragment):
    _write(tmp_path, json.dumps(_report(**fields)))
    _, problems = checks.check_run(tmp_path, OUTPUTS, CONFIG)
    assert any(fragment in p for p in problems)


def test_digest_ignores_timings_only(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, json.dumps(_report()))
    _write(b, json.dumps(_report()))
    (b / "timings.json").write_text('{"x": 1.5}')
    assert checks.check_run(a, OUTPUTS, CONFIG)[0] == checks.check_run(b, OUTPUTS, CONFIG)[0]
    (b / "report.csv").write_text("case\nother\n")
    assert checks.check_run(a, OUTPUTS, CONFIG)[0]["digest"] != checks.check_run(b, OUTPUTS, CONFIG)[0]["digest"]


def test_digest_mismatch_between_runs_fails(tmp_path, monkeypatch):
    """The second of two runs writes a different report: that run fails."""
    reports = iter([_report(), _report(idi_count=3)])

    def fake_timed(cmd, cwd, log, timeout, cpus):
        _write(cwd / "results", json.dumps(next(reports)))
        return 0, 0.0, 1.0, 10.0

    monkeypatch.setattr(run, "timed", fake_timed)
    workload = Workload("fake", OUTPUTS, build=None)
    bench = run.Bench(workload, tmp_path, CONFIG, deadline=float("inf"))
    assert bench.command() is not None
    assert bench.command() is None
    assert bench.attempted == 2
    assert len(bench.problems) == 1 and "digest" in bench.problems[0]


def test_non_strict_pair_fails_is_true_idi_check():
    # logistic model on feature 0 only: label 1 iff x0 >= 1
    model = ModelUnderTest(
        config=ModelConfig(kind="logistic"),
        input_width=3,
        weights=[np.array([[10.0], [0.0], [0.0]])],
        biases=[np.array([-5.0])],
    )
    strict = Pair(a=(0, 1, 1), b=(1, 1, 1))
    relaxed_only = Pair(a=(0, 1, 1), b=(1, 2, 1))  # differs outside the sensitive index
    same_label = Pair(a=(1, 1, 1), b=(2, 1, 1))

    class Suite:
        true_pairs = [strict, relaxed_only, same_label]

    assert check_pairs([(Suite, model, 0)]) == (3, 2)


def test_times_are_scaled_to_the_reference_pace(tmp_path, monkeypatch):
    def fake_timed(cmd, cwd, log, timeout, cpus):
        _write(cwd / "results", json.dumps(_report()))
        return 0, 5.0, 2.0, 10.0

    monkeypatch.setattr(run, "timed", fake_timed)
    windows = []
    bench = run.Bench(Workload("fake", OUTPUTS, build=None), tmp_path, CONFIG,
                      deadline=float("inf"),
                      speed=lambda start, wall: windows.append((start, wall)) or 0.5)
    result = bench.command()
    assert (result["raw_wall_s"], result["wall_s"]) == (2.0, 1.0)
    assert windows == [(5.0, 2.0)]


def test_pace_record_is_interpolated():
    records = [(10.0, 0, 0.0), (10.5, 100, 0.02), (11.0, 300, 0.06)]
    assert run.record_at(records, 10.25) == pytest.approx((50.0, 0.01))
    assert run.record_at(records, 10.75) == pytest.approx((200.0, 0.04))
    with pytest.raises(ValueError):
        run.record_at(records, 11.5)


def _trace(missing=(), covered_until=0.95, pairs_failed=0) -> dict:
    span = lambda id, parent, name, start, end: {  # noqa: E731
        "id": id, "parent": parent, "name": name, "start": start, "end": end, "counters": {}}
    return {"spans": [span(0, None, "cli.main", 0.0, 1.0),
                      span(1, 0, "data.load", 0.0, covered_until)],
            "leaves": [], "missing": list(missing), "pairs_checked": 4,
            "pairs_failed": pairs_failed, "post_main_s": 0.0}


def _traced_bench(tmp_path, monkeypatch, trace: dict) -> run.Bench:
    def fake_timed(cmd, cwd, log, timeout, cpus):
        _write(cwd / "results", json.dumps(_report()))
        Path(cmd[2]).write_text(json.dumps(trace))
        return 0, 0.0, 1.0, 10.0

    monkeypatch.setattr(run, "timed", fake_timed)
    return run.Bench(Workload("fake", OUTPUTS, build=None), tmp_path, CONFIG,
                     deadline=float("inf"))


def test_clean_trace_passes(tmp_path, monkeypatch):
    traced = _traced_bench(tmp_path, monkeypatch, _trace()).traced()
    assert traced["cli.span_coverage"] == pytest.approx(0.95)


@pytest.mark.parametrize(
    "trace, fragment",
    [(_trace(missing=["fairprobe.cli.discover_graph"]), "not traced"),
     (_trace(covered_until=0.5), "spans cover 0.500"),
     (_trace(pairs_failed=1), "fail is_true_idi")],
)
def test_untrustworthy_trace_fails_the_run(tmp_path, monkeypatch, trace, fragment):
    bench = _traced_bench(tmp_path, monkeypatch, trace)
    assert bench.traced() is None
    assert len(bench.problems) == 1 and fragment in bench.problems[0]


def test_layer_entry_point_the_program_lacks_fails_the_trace(monkeypatch):
    monkeypatch.delattr(fairprobe.cli, "discover_graph")
    tracer = Tracer()
    restore(install(tracer, []))
    trace = dict(tracer.to_dict(), pairs_checked=0, pairs_failed=0)
    problems = layers.trace_problems(trace, {"cli.span_coverage": 1.0})
    assert problems == ["not traced: fairprobe.cli.discover_graph"]


def test_per_layer_takes_medians_and_pairs_overhead_within_rounds():
    def round_(wall, traced_wall, train):
        return {"wall_s": wall, "traced": {"wall_s": traced_wall, "raw_wall_s": traced_wall,
                                           "trace": {}, "models.train_s": train}}

    rounds = [round_(10.0, 11.0, 1.0), round_(8.0, 8.5, 3.0), round_(12.0, 13.5, 2.0)]
    assert run.per_layer(rounds, demo_generate_s=0.25) == {
        "models.train_s": 2.0, "trace.overhead_s": 1.0, "demo.generate_s": 0.25}
