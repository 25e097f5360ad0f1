"""Workload builders: each writes a CSV, a schema and a config from a seed.

Every input comes from ``fairprobe.demo`` at the workload seed; nothing is
committed. Configs name their files relative to the workload directory, so
``report.json`` (which embeds the config) has the same bytes wherever the
workload is built, and its digest can be compared across checkouts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fairprobe.demo import FEATURES, LABEL, generate_demo_dataset, write_demo_schema

CSV_NAME = "data.csv"
SCHEMA_NAME = "schema.json"
CONFIG_NAME = "config.json"

LOGISTIC = {"name": "logistic", "kind": "logistic", "epochs": 40,
            "learning_rate": 0.05, "l2": 0.0001}
MLP = {"name": "mlp", "kind": "mlp", "hidden_sizes": [64, 32], "epochs": 30,
       "learning_rate": 0.001, "l2": 0.0001}
RANDOM = {"name": "random", "kind": "random"}
SG_LITE = {"name": "sg_lite", "kind": "sg_lite"}
ADF_LITE = {"name": "adf_lite", "kind": "adf_lite", "local_steps": 8, "step_size": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    outputs: tuple[str, ...]  # files `fairprobe test` must write
    build: Callable[[Path, int], dict]  # (directory, seed) -> config


def _write_inputs(out: Path, seed: int, n_rows: int, n_families: int = 40) -> None:
    dataset = generate_demo_dataset(n_rows=n_rows, seed=seed, n_families=n_families)
    with (out / CSV_NAME).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(FEATURES) + [LABEL])
        writer.writerows(
            [*map(int, row), int(label)] for row, label in zip(dataset.rows, dataset.labels)
        )
    write_demo_schema(out / SCHEMA_NAME)


def _config(seed: int, **fields) -> dict:
    doc = {
        "dataset": CSV_NAME,
        "schema": SCHEMA_NAME,
        "k_percent": 100,
        "m": 100,
        "bootstrap_repeats": 20,
        "seed": seed,
        "train_fraction": 0.7,
        "output_dir": "results",
        "group_rules": {"age": {"kind": "range", "range": [25, 40]}},
    }
    doc.update(fields)
    return doc


def build_demo_pipeline(out: Path, seed: int) -> dict:
    """The bundled demo config (scripts/make_demo_data.py) with one run index:
    every layer, and the split, training and graph fit repeated per case."""
    _write_inputs(out, seed, n_rows=8000)
    return _config(
        seed,
        sensitive=["gender", "race", "age"],
        models=[LOGISTIC, MLP],
        generators=[RANDOM, ADF_LITE],
        selector="causal",
        budget=2000,
        runs=1,
    )


def build_generate_10k(out: Path, seed: int) -> dict:
    """Generation at the paper's budget of 10,000 on 200-family data, so the
    guided suites reach their budget; the correlation selector bypasses
    causal discovery, and the retrain loop runs beside testing."""
    _write_inputs(out, seed, n_rows=8000, n_families=200)
    return _config(
        seed,
        sensitive=["gender"],
        models=[LOGISTIC],
        generators=[RANDOM, SG_LITE, ADF_LITE],
        selector="correlation",
        budget=10000,
        runs=2,
        run_retrain=True,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo_pipeline", ("report.json", "report.csv", "timings.json"),
                 build_demo_pipeline),
        Workload("generate_10k",
                 ("report.json", "report.csv", "timings.json", "retrain_gender.json"),
                 build_generate_10k),
    )
}


def build(name: str, out: Path, seed: int) -> Path:
    """Write the workload's inputs and config under `out`; return the config path."""
    out.mkdir(parents=True, exist_ok=True)
    config = WORKLOADS[name].build(out, seed)
    path = out / CONFIG_NAME
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path
