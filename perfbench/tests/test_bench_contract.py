import pytest

import run
import workloads
from fairprobe import Schema, load_csv
from fairprobe.cli import ExperimentConfig

def test_benchmark_json_matches_the_code():
    assert set(run.BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"}
    assert [w["name"] for w in run.BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in run.BENCHMARK["end_to_end"]} == set(run.end_to_end([]))
    bounds = {m["name"]: m["bound"] for m in run.BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_inputs_are_valid_and_seeded(tmp_path, name):
    config_path = workloads.build(name, tmp_path / "a", seed=3)
    config = ExperimentConfig.from_json(config_path)
    data = load_csv(tmp_path / "a" / config.dataset, Schema.from_json(tmp_path / "a" / config.schema))
    assert data.n_rows == 8000

    workloads.build(name, tmp_path / "b", seed=3)
    workloads.build(name, tmp_path / "c", seed=4)
    for fname in (workloads.CSV_NAME, workloads.CONFIG_NAME):
        same = (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
        assert same
    assert (tmp_path / "a" / "data.csv").read_bytes() != (tmp_path / "c" / "data.csv").read_bytes()
