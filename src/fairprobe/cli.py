"""Experiment orchestration and command-line interface.

Drives the full testing procedure from a JSON config: ingest and split the
data, train the models under test, rank the non-sensitive features (causal or
correlation selector), generate suites with and without guidance, compute the
fairness metrics, compare the modes statistically, and write machine-readable
reports. Wall-clock timings go to a separate file so the canonical report is
byte-identical across repeated runs of the same config.

Each stage runs once at the level where its inputs change: one split and one
causal graph per run index, one selection per sensitive feature, one training
per model, and the suites per generator. `analyze` and `retrain` report run
index 0 of that same pipeline.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import reduce
from operator import getitem
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .causal import (
    DEFAULT_EDGE_THRESHOLD,
    CausalEffect,
    bootstrap_effect,
    direct_features,
    discover_graph,
    select_causal_feature,
    select_correlation_feature,
)
from .data import Dataset, Schema, load_csv, read_json_object, split_train_test, subsample
from .errors import ConfigInvalid, DegenerateColumn, FairprobeError, NoDirectFeature
from .generators import GeneratorSpec, PairLedger, _TestIndex, run_base_generator, run_causalft
from .metrics import FairnessReport, GroupRule, build_report
from .models import ModelConfig, ModelUnderTest, train
from .retrain import correct_pairs, model_quality, retrain_and_retest
from .stats import compare

log = logging.getLogger(__name__)

REPORT_VERSION = 1
OUTPUT_DIR_ENV = "FAIRPROBE_OUT"

SELECTOR_CAUSAL = "causal"
SELECTOR_CORRELATION = "correlation"
SELECTOR_NONE = "none"

# the report's metrics, the ones compared between modes, and the ledger counters
_METRICS = tuple(f.name for f in fields(FairnessReport))
_COMPARED = ("idi_ratio", "eod", "spd")
_LEDGER = tuple(f.name for f in fields(PairLedger))


@dataclass
class ExperimentConfig:
    dataset: str
    schema: str
    sensitive: list[str]
    models: list[dict]
    generators: list[dict]
    selector: str = SELECTOR_CAUSAL
    budget: int = 10000
    runs: int = 10
    k_percent: float = 100.0
    m: int = 100
    bootstrap_repeats: int = 20
    seed: int = 0
    train_fraction: float = 0.7
    output_dir: str = "results"
    group_rules: dict = field(default_factory=dict)
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD
    retrain_budget: int | None = None
    run_retrain: bool = False

    def validate(self) -> None:
        hints = get_type_hints(ExperimentConfig)
        for f in fields(self):
            value, hint = getattr(self, f.name), hints[f.name]
            allowed = get_args(hint) if isinstance(hint, UnionType) else (get_origin(hint) or hint,)
            allowed += (int,) if float in allowed else ()  # JSON may write 100.0 as 100
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                raise ConfigInvalid(f"config key {f.name!r} must be {f.type}, got {value!r}")
        for name, ok, rule in (
            ("budget", self.budget >= 1, ">= 1"),
            ("retrain_budget", self.retrain_budget is None or self.retrain_budget >= 1, ">= 1"),
            ("runs", self.runs >= 1, ">= 1"),
            ("m", self.m >= 1, ">= 1"),
            ("bootstrap_repeats", self.bootstrap_repeats >= 1, ">= 1"),
            ("k_percent", 0.0 < self.k_percent <= 100.0, "in (0, 100]"),
            ("train_fraction", 0.0 < self.train_fraction <= 1.0, "in (0, 1]"),
        ):
            if not ok:
                raise ConfigInvalid(f"config key {name!r} must be {rule}, got {getattr(self, name)!r}")
        if self.selector not in (SELECTOR_CAUSAL, SELECTOR_CORRELATION, SELECTOR_NONE):
            raise ConfigInvalid(f"unknown selector {self.selector!r}")
        for doc in self.models:
            _config_entry(ModelConfig, doc, "model")
        for doc in self.generators:
            _config_entry(GeneratorSpec, doc, "generator")
        for feature, doc in self.group_rules.items():
            _config_entry(GroupRule, doc, f"{feature} group rule", feature=feature)
        # a name is part of the case key: a repeated one would pool two cases' runs
        for key, names in (
            ("sensitive", self.sensitive),
            ("models", [_case_name(doc, "model") for doc in self.models]),
            ("generators", [_case_name(doc, "generator") for doc in self.generators]),
        ):
            if not names:
                raise ConfigInvalid(f"config key {key!r} needs at least one entry")
            if not all(isinstance(name, str) for name in names):
                raise ConfigInvalid(f"config key {key!r} needs string names, got {names!r}")
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise ConfigInvalid(f"config key {key!r} repeats the name {repeated[0]!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        doc = read_json_object(path, "config", ConfigInvalid)
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {', '.join(unknown)}")
        try:
            cfg = cls(**doc)
        except TypeError as exc:  # a required key is missing
            raise ConfigInvalid(str(exc)) from None
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        """The fields that shape the report, as embedded in it: the output
        and retrain settings leave report.json unchanged."""
        doc = asdict(self)
        for name in ("output_dir", "retrain_budget", "run_retrain"):
            del doc[name]
        return doc


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit seed from the base seed plus contextual parts."""
    text = ":".join([str(base), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _case_name(doc: dict, fallback: str) -> str:
    return doc.get("name", doc.get("kind", fallback))


def _config_entry(cls, doc, what: str, **fixed):
    """`cls` built from one config entry.

    The entry's keys are the fields of `cls` not given in `fixed`, plus an
    optional `name` that labels it in reports; list values become tuples.
    An entry that is not an object, lacks a required key, has unknown keys,
    or holds a value `cls` refuses raises ConfigInvalid.
    """
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{what} entry must be a JSON object, got {doc!r}")
    label = f"{what} {_case_name(doc, '?')!r}"
    keys = [f for f in fields(cls) if f.name not in fixed]
    problems = [
        f"missing key: {f.name}"
        for f in keys
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING
    ]
    unknown = sorted(set(doc) - {f.name for f in keys} - {"name"})
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    if problems:
        raise ConfigInvalid(f"{label}: {'; '.join(problems)}")
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items() if k != "name"}
    try:
        return cls(**params, **fixed)
    except (TypeError, ValueError) as exc:  # a value of the wrong type or out of range
        raise ConfigInvalid(f"{label}: {exc}") from None


def _group_rule(config: ExperimentConfig, dataset: Dataset, feature: str) -> GroupRule:
    doc = config.group_rules.get(feature)
    if doc is None:
        return GroupRule.default_for(dataset, feature)
    return _config_entry(GroupRule, doc, f"{feature} group rule", feature=feature)


def _load(config: ExperimentConfig) -> Dataset:
    """The configured dataset. A group rule for a feature the schema lacks
    raises ConfigInvalid, and one for a feature that is not sensitive is
    unused and logged. A label with one class, or a sensitive feature with one
    value, cannot be tested and raises DegenerateColumn."""
    schema = Schema.from_json(config.schema)
    for name in config.group_rules:
        if name not in schema.feature_names:
            raise ConfigInvalid(f"config key 'group_rules' names {name!r}, not a schema feature")
        if name not in config.sensitive:
            log.warning("group rule for %r unused: not a sensitive feature", name)
    dataset = load_csv(config.dataset, schema)
    columns = {schema.label_name: dataset.labels}
    columns.update((name, dataset.rows[:, schema.index(name)]) for name in config.sensitive)
    for name, column in columns.items():
        if column.min() == column.max():
            raise DegenerateColumn(
                f"column {name!r} of {config.dataset} holds one value only: "
                "the label needs two classes and a sensitive feature two values"
            )
    return dataset


class _RunState:
    """What one run index shares across every case.

    The split and, for the causal selector, the graph are made on
    construction. Each model and each sensitive feature's selection is
    computed on first use and then reused: by every case of the run, and at
    run index 0 by `analyze` and `retrain`.
    """

    def __init__(self, config: ExperimentConfig, dataset: Dataset, run_idx: int):
        self.config = config
        self.dataset = dataset
        self.seed = derive_seed(config.seed, "run", run_idx)
        self.train, self.test = split_train_test(dataset, config.train_fraction, self.seed)
        self.analysis_data = self.train
        self.graph = None
        if config.selector == SELECTOR_CAUSAL:
            self.analysis_data = subsample(
                self.train, config.k_percent, derive_seed(self.seed, "k")
            )
            # the fit ignores the sensitive feature beyond checking its name
            self.graph = discover_graph(
                self.analysis_data,
                config.sensitive[0],
                seed=self.seed,
                edge_threshold=config.edge_threshold,
            )
        self._models: dict[int, tuple[ModelConfig, ModelUnderTest]] = {}
        self._selections: dict[str, tuple] = {}

    def model(self, index: int) -> tuple[ModelConfig, ModelUnderTest]:
        """The index-th configured model, trained on this run's split."""
        if index not in self._models:
            entry = _config_entry(ModelConfig, self.config.models[index], "model")
            cfg = replace(entry, seed=self.seed)
            self._models[index] = (cfg, train(self.train, cfg))
        return self._models[index]

    def selection(self, sensitive: str) -> tuple[str | None, dict, list[CausalEffect]]:
        """The guidance feature for the sensitive feature per the configured
        selector, on this run's graph: (feature name or None, analysis detail
        dict, causal effects)."""
        if sensitive in self._selections:
            return self._selections[sensitive]
        config = self.config
        detail: dict = {"selector": config.selector}
        picked, effects = None, []
        if config.selector == SELECTOR_CORRELATION:
            picked = select_correlation_feature(self.train, sensitive)
            detail["selected"] = picked
        elif config.selector == SELECTOR_CAUSAL:
            data = self.analysis_data
            direct = direct_features(self.graph, sensitive, self.graph.label)
            effects = [
                bootstrap_effect(
                    self.graph,
                    data,
                    sensitive,
                    candidate,
                    m=min(config.m, data.n_rows),
                    repeats=config.bootstrap_repeats,
                    seed=derive_seed(self.seed, "effect", sensitive, candidate),
                )
                for candidate in direct
            ]
            detail["direct_features"] = list(direct)
            detail["effects"] = {e.feature: e.effect for e in effects}
            try:
                picked = select_causal_feature(effects, order=data.schema.feature_names)
            except NoDirectFeature:
                pass
            detail["selected"] = picked
        self._selections[sensitive] = (picked, detail, effects)
        return self._selections[sensitive]


def _suite_summary(suite, model: ModelUnderTest, test_data: Dataset, rule: GroupRule) -> dict:
    doc = asdict(build_report(suite, model, test_data, rule))
    doc["ledger"] = asdict(suite.ledger)
    doc["used_fallback"] = suite.used_fallback
    doc["budget_reached"] = suite.budget_reached
    return doc


def _aggregate(values: list) -> dict:
    clean = [v for v in values if v is not None]
    if not clean:
        return {"mean": None, "std": None}
    mean = sum(clean) / len(clean)
    var = sum((v - mean) ** 2 for v in clean) / len(clean)
    return {"mean": mean, "std": math.sqrt(var)}


def _mode_block(run_docs: list[dict]) -> dict:
    block: dict = {"runs": run_docs}
    for metric in _METRICS:
        block[metric] = _aggregate([doc[metric] for doc in run_docs])
    block["ledger_means"] = {
        key: _aggregate([doc["ledger"][key] for doc in run_docs])["mean"] for key in _LEDGER
    }
    block["fallback_runs"] = sum(1 for doc in run_docs if doc["used_fallback"])
    return block


def _compare_modes(runs_a: list[dict], runs_b: list[dict]) -> dict:
    """Per metric, compare a against b over the runs that have a value, or
    None when either side has fewer than two."""
    out = {}
    for metric in _COMPARED:
        a = [doc[metric] for doc in runs_a if doc[metric] is not None]
        b = [doc[metric] for doc in runs_b if doc[metric] is not None]
        out[metric] = asdict(compare(a, b)) if len(a) >= 2 and len(b) >= 2 else None
    return out


@contextmanager
def _timed(totals: dict, key: str):
    t0 = time.perf_counter()
    yield
    totals[key] = totals.get(key, 0.0) + time.perf_counter() - t0


def _run_pipeline(config: ExperimentConfig) -> tuple[dict, dict, _RunState]:
    """Every sensitive feature x model x generator case, over all run indices.

    Returns (report document, timings document, run index 0's state).
    """
    config.validate()
    dataset = _load(config)
    schema = dataset.schema
    dataset_name = Path(config.dataset).stem
    generators = [
        (_case_name(doc, "generator"), _config_entry(GeneratorSpec, doc, "generator"))
        for doc in config.generators
    ]

    cases: dict[str, dict] = {}
    timings: dict = {"generation_s": {}}
    first = None
    for run_idx in range(config.runs):
        with _timed(timings, "prepare_s"):
            run = _RunState(config, dataset, run_idx)
        first = first or run
        for sensitive in config.sensitive:
            s_idx = schema.index(sensitive)
            rule = _group_rule(config, dataset, sensitive)
            with _timed(timings, "analysis_s"):
                guide, detail, _ = run.selection(sensitive)
            c_idx = schema.index(guide) if guide is not None else None
            for m_idx, model_doc in enumerate(config.models):
                with _timed(timings, "train_s"):
                    _, model = run.model(m_idx)
                # shared by this model's suites of the sensitive feature, then released
                index = _TestIndex(run.test, model, s_idx)
                for gen_name, spec in generators:
                    case_key = f"{dataset_name}/{sensitive}/{_case_name(model_doc, 'model')}/{gen_name}"
                    case = cases.setdefault(case_key, {"base": [], "causalft": [], "analysis": []})
                    case["analysis"].append(detail)
                    seed = derive_seed(config.seed, case_key, run_idx)
                    with _timed(timings["generation_s"], case_key):
                        suite = run_base_generator(
                            spec, model, run.test, s_idx, config.budget,
                            derive_seed(seed, "base"), domains=dataset.domains, index=index,
                        )
                        case["base"].append(_suite_summary(suite, model, run.test, rule))
                        if config.selector != SELECTOR_NONE:
                            suite = run_causalft(
                                spec, model, run.test, s_idx, c_idx, config.budget,
                                derive_seed(seed, "guided"), domains=dataset.domains,
                                index=index,
                            )
                            case["causalft"].append(_suite_summary(suite, model, run.test, rule))

    report: dict = {
        "report_version": REPORT_VERSION,
        "config": config.to_dict(),
        "cases": {},
    }
    for case_key, case in cases.items():
        doc: dict = {"analysis": case["analysis"], "modes": {"base": _mode_block(case["base"])}}
        if case["causalft"]:
            doc["modes"]["causalft"] = _mode_block(case["causalft"])
            doc["comparisons"] = _compare_modes(case["causalft"], case["base"])
        report["cases"][case_key] = doc
    return report, timings, first


def run_experiment(config: ExperimentConfig) -> tuple[dict, dict]:
    """Execute every sensitive feature x model x generator case.

    Returns (report document, timings document). The report carries per-run
    metrics and ledgers, per-mode aggregates, and guided-vs-base comparisons.
    """
    report, timings, _ = _run_pipeline(config)
    return report, timings


def _csv_cells() -> list[tuple[str, tuple]]:
    """report.csv's columns after case, mode and runs: (header, key path to
    the cell in a mode block). Every metric has its mean, and the compared
    ones their std too; the ledger counters have their means."""
    cells = []
    for metric in _METRICS:
        cells.append((f"{metric}_mean", (metric, "mean")))
        if metric in _COMPARED:
            cells.append((f"{metric}_std", (metric, "std")))
    cells += [(f"{key}_mean", ("ledger_means", key)) for key in _LEDGER]
    return cells + [("fallback_runs", ("fallback_runs",))]


_CSV_CELLS = _csv_cells()


def _json_text(doc) -> str:
    """Strict JSON: a NaN or infinity raises instead of being written."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: Path, doc) -> None:
    path.write_text(_json_text(doc), encoding="utf-8")


def emit_report(report: dict, out_dir: str | Path, timings: dict | None = None) -> dict:
    """Write report.json plus a flat report.csv; timings go to timings.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report)
    with (out / "report.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "mode", "runs", *(header for header, _ in _CSV_CELLS)])
        for case_key in sorted(report["cases"]):
            case = report["cases"][case_key]
            for mode in sorted(case["modes"]):
                block = case["modes"][mode]
                cells = [reduce(getitem, path, block) for _, path in _CSV_CELLS]
                writer.writerow([case_key, mode, len(block["runs"]), *cells])
    if timings is not None:
        _write_json(out / "timings.json", timings)
    return {
        "report_json": str(out / "report.json"),
        "report_csv": str(out / "report.csv"),
    }


def _resolve_out(config_dir: str, override: str | None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(config_dir)


def cmd_test(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    report, timings, first = _run_pipeline(config)
    out = _resolve_out(config.output_dir, args.out)
    paths = emit_report(report, out, timings)
    if config.run_retrain:
        for sensitive in config.sensitive:
            target = out / f"retrain_{sensitive}.json"
            _write_json(target, _retrain_case(first, sensitive))
            paths[f"retrain_{sensitive}"] = str(target)
    print(json.dumps(paths, indent=2))
    return 0


def cmd_analyze(args) -> int:
    # analysis is causal whatever selector the config names
    config = replace(ExperimentConfig.from_json(args.config), selector=SELECTOR_CAUSAL)
    run = _RunState(config, _load(config), 0)
    out = _resolve_out(config.output_dir, args.out)
    out.mkdir(parents=True, exist_ok=True)

    doc: dict = {}
    for sensitive in config.sensitive:
        run.graph.write_edges(out / f"graph_{sensitive}.csv")
        _, detail, effects = run.selection(sensitive)
        doc[sensitive] = {
            "direct_features": detail["direct_features"],
            "effects": {
                e.feature: {"median": e.effect, "repeats": list(e.raw_repeats)}
                for e in effects
            },
            "correlation_pick": select_correlation_feature(run.train, sensitive),
            "selected": detail["selected"],
        }
    _write_json(out / "analyze.json", doc)
    print(json.dumps({"analyze_json": str(out / "analyze.json")}, indent=2))
    return 0


@contextmanager
def _report_keys(path: str):
    """A missing or malformed part of the report read from `path` raises ConfigInvalid."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        what = f"{type(exc).__name__}: {exc}"
        raise ConfigInvalid(f"report file {path} is not a report ({what})") from None


def _report_runs(path: str) -> dict:
    """{case: {mode: the runs' compared metrics}} of a report file."""
    doc = read_json_object(path, "report", ConfigInvalid)
    with _report_keys(path):
        return {
            case: {
                mode: [{m: run[m] for m in _COMPARED} for run in block["runs"]]
                for mode, block in body["modes"].items()
            }
            for case, body in doc["cases"].items()
        }


def cmd_compare(args) -> int:
    runs_a, runs_b = _report_runs(args.report_a), _report_runs(args.report_b)
    out_doc = {
        case: {
            mode: _compare_modes(runs_a[case][mode], runs_b[case][mode])
            for mode in sorted(set(runs_a[case]) & set(runs_b[case]))
        }
        for case in sorted(set(runs_a) & set(runs_b))
    }
    if args.out:
        _write_json(Path(args.out), out_doc)
    else:
        sys.stdout.write(_json_text(out_doc))
    return 0


def _retrain_case(run: _RunState, sensitive: str) -> dict:
    """Correct the discovered pairs of one sensitive feature, retrain, and
    re-test, on the run's split with its first model, its selection for that
    feature, and the first configured generator."""
    config, dataset = run.config, run.dataset
    s_idx = dataset.schema.index(sensitive)
    rule = _group_rule(config, dataset, sensitive)
    spec = _config_entry(GeneratorSpec, config.generators[0], "generator")
    model_cfg, model = run.model(0)
    guide, detail, _ = run.selection(sensitive)
    c_idx = dataset.schema.index(guide) if guide is not None else None

    seed = derive_seed(run.seed, "retrain", sensitive)
    index = _TestIndex(run.test, model, s_idx)  # shared by the corrections and the re-test
    suite = run_causalft(
        spec, model, run.test, s_idx, c_idx, config.budget,
        derive_seed(seed, "corrections"), domains=dataset.domains, index=index,
    )
    corrections = correct_pairs(suite, model, run.test)
    before, after, retrained = retrain_and_retest(
        model_cfg,
        run.train,
        corrections,
        run.test,
        s_idx,
        c_idx,
        spec,
        config.retrain_budget or config.budget,
        config.runs,
        derive_seed(seed, "retest"),
        rule,
        old_model=model,
        domains=dataset.domains,
        index=index,
    )
    return {
        "sensitive": sensitive,
        "selected_feature": guide,
        "corrections": len(corrections),
        "before": [asdict(r) for r in before],
        "after": [asdict(r) for r in after],
        "quality_before": model_quality(model, run.test),
        "quality_after": model_quality(retrained, run.test),
        "analysis": detail,
    }


def cmd_retrain(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    out = _resolve_out(config.output_dir, args.out)
    out.mkdir(parents=True, exist_ok=True)
    sensitive = args.sensitive or config.sensitive[0]
    doc = _retrain_case(_RunState(config, _load(config), 0), sensitive)
    _write_json(out / "retrain.json", doc)
    print(json.dumps({"retrain_json": str(out / "retrain.json")}, indent=2))
    return 0


def cmd_report(args) -> int:
    report = read_json_object(args.results, "report", ConfigInvalid)
    with _report_keys(args.results):
        paths = emit_report(report, args.out or ".")
    print(json.dumps(paths, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairprobe",
        description="Causally guided fairness testing for tabular classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the full experiment pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("analyze", help="causal graph, effects, and feature selection only")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="statistics over two report files")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("retrain", help="correct discovered pairs, retrain, and re-test")
    p.add_argument("--config", required=True)
    p.add_argument("--sensitive", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_retrain)

    p = sub.add_parser("report", help="re-emit report files from a saved report.json")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FairprobeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
