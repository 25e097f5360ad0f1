"""Output checks for one fairprobe run; any problem found fails the run."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path: Path):
    """Parse a JSON file, rejecting NaN, Infinity and -Infinity."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def suite_problems(doc: dict, budget: int, where: str) -> list[str]:
    """`idi_count <= sample_count <= budget`, and `sample_count == budget`
    when the suite says it reached its budget."""
    idi, samples = doc["idi_count"], doc["sample_count"]
    out = []
    if not 0 <= idi <= samples <= budget:
        out.append(f"{where}: idi_count {idi}, sample_count {samples}, budget {budget}")
    if doc.get("budget_reached") and samples != budget:
        out.append(f"{where}: budget_reached with sample_count {samples} != {budget}")
    return out


def digest(out_dir: Path, files) -> str:
    """sha256 over the named result files, in the order given."""
    h = hashlib.sha256()
    for name in files:
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def check_run(out_dir: Path, outputs, config: dict) -> tuple[dict, list[str]]:
    """Check one finished run's outputs.

    Returns ({"digest", "samples", "idi"}, problems). `samples` and `idi` sum
    over every suite in the run's reports; `digest` covers every output but
    timings.json, which holds wall-clock numbers.
    """
    missing = [name for name in outputs if not (out_dir / name).is_file()]
    if missing:
        return {}, [f"missing outputs: {missing}"]
    docs, problems = {}, []
    for name in outputs:
        if name.endswith(".json"):
            try:
                docs[name] = strict_json(out_dir / name)
            except ValueError as exc:
                problems.append(f"{name}: {exc}")
    if problems:
        return {}, problems

    suites = []  # (where, report doc, budget)
    for case_key, case in docs["report.json"]["cases"].items():
        for mode, block in case["modes"].items():
            for i, run in enumerate(block["runs"]):
                suites.append((f"{case_key}/{mode}/run{i}", run, config["budget"]))
    for name, doc in docs.items():
        if name.startswith("retrain_"):
            budget = config.get("retrain_budget") or config["budget"]
            for side in ("before", "after"):
                for i, run in enumerate(doc[side]):
                    suites.append((f"{name}/{side}/run{i}", run, budget))
    for where, run, budget in suites:
        problems += suite_problems(run, budget, where)

    summary = {
        "digest": digest(out_dir, [n for n in outputs if n != "timings.json"]),
        "samples": sum(run["sample_count"] for _, run, _ in suites),
        "idi": sum(run["idi_count"] for _, run, _ in suites),
    }
    return summary, problems
