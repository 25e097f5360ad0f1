"""Per-layer metrics derived from one traced run.

Every `_s` metric is the inclusive time of that layer's calls: a generator
suite's time includes the model queries it makes, which `models.predict_s`
counts as well. `cli.self_s` is the process wall time no span covers, and
`cli.span_coverage` the share that spans do cover. The metric names and
units are declared once, in BENCHMARK.json.
"""

from __future__ import annotations

from spans import covered_seconds, duration

ROOT_SPAN = "cli.main"
KINDS = ("random", "sg_lite", "adf_lite")
MODES = {"base": "generators.base", "guided": "generators.guided"}
MIN_COVERAGE = 0.9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Span-derived metrics of one traced run whose process took `wall_s`."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, **match):
        return sum(
            duration(s) for s in named(name)
            if all(s["counters"].get(k) == v for k, v in match.items())
        )

    def counter(of, key):
        return sum(s["counters"].get(key, 0) for s in of)

    def leaf(name, field):
        return sum(l[field] for l in trace["leaves"] if l["name"] == name)

    def under_retrain(span):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"].startswith("retrain."):
                return True
            parent = by_id[parent]["parent"]
        return False

    suites = named("generators.base") + named("generators.guided")
    covered = covered_seconds(trace, root=ROOT_SPAN)
    m = {
        "data.load_s": total("data.load"),
        "data.load_rows": counter(named("data.load"), "rows"),
        "data.split_s": total("data.split"),
        "data.split_calls": len(named("data.split")),
        "models.train_s": total("models.train"),
        "models.train_calls": len(named("models.train")),
        "models.train_mlp_s": total("models.train", kind="mlp"),
        "models.train_logistic_s": total("models.train", kind="logistic"),
        "models.predict_calls": leaf("models.predict", "calls"),
        "models.predict_rows": leaf("models.predict", "rows"),
        "models.rows_per_predict": _ratio(
            leaf("models.predict", "rows"), leaf("models.predict", "calls")
        ),
        "models.predict_s": leaf("models.predict", "seconds"),
        "models.gradient_calls": leaf("models.gradient", "calls"),
        "models.gradient_s": leaf("models.gradient", "seconds"),
        "causal.discover_s": total("causal.discover"),
        "causal.discover_calls": len(named("causal.discover")),
        "causal.effect_s": total("causal.effect"),
        "causal.effect_calls": len(named("causal.effect")),
        "causal.correlation_s": total("causal.correlation"),
        "causal.no_direct_feature": counter(named("causal.direct"), "empty"),
        "generators.base_s": total("generators.base"),
        "generators.guided_s": total("generators.guided"),
    }
    for mode, span_name in MODES.items():
        for kind in KINDS:
            m[f"generators.{mode}.{kind}_s"] = total(span_name, kind=kind)
    samples = counter(suites, "samples")
    idi = counter(suites, "idi")
    invalid = counter(suites, "invalid")
    m.update({
        "generators.suites": len(suites),
        "generators.samples": samples,
        "generators.idi": idi,
        "generators.idi_per_sample": _ratio(idi, samples),
        "generators.budget_reached_ratio": _ratio(counter(suites, "budget_reached"), len(suites)),
        "generators.invalid_pairs": invalid,
        "generators.repair_ratio": _ratio(counter(suites, "repaired"), invalid),
        "generators.failed_samples": counter(suites, "failed"),
        "metrics.report_s": total("metrics.report"),
        "metrics.report_calls": len(named("metrics.report")),
        "stats.compare_s": total("stats.compare"),
        "stats.compare_calls": len(named("stats.compare")),
        "retrain.retest_s": total("retrain.retest"),
        "retrain.correct_s": total("retrain.correct"),
        "retrain.quality_s": total("retrain.quality"),
        "retrain.corrections": counter(named("retrain.correct"), "corrections"),
        "retrain.train_calls": sum(under_retrain(s) for s in named("models.train")),
        "cli.emit_s": total("cli.emit"),
        "cli.self_s": wall_s - covered,
        "cli.span_coverage": _ratio(covered, wall_s),
    })
    return m


def self_time_by_name(trace: dict, self_times: dict[int, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in trace["spans"]:
        out[s["name"]] = out.get(s["name"], 0.0) + self_times[s["id"]]
    return out


def trace_problems(trace: dict, values: dict[str, float]) -> list[str]:
    """Why a traced run's per-layer figures cannot be trusted, if they cannot:
    a layer entry point or counter the tracer could not find would read 0."""
    problems = [f"not traced: {what}" for what in trace["missing"]]
    if trace["pairs_failed"]:
        problems.append(f"{trace['pairs_failed']} of {trace['pairs_checked']} "
                        "counted pairs fail is_true_idi")
    if values["cli.span_coverage"] < MIN_COVERAGE:
        problems.append(f"spans cover {values['cli.span_coverage']:.3f} of the traced "
                        f"wall time, below {MIN_COVERAGE}")
    return problems
