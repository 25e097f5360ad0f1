import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import fairprobe.cli as cli
import fairprobe.generators as generators
from fairprobe.cli import (
    ExperimentConfig,
    derive_seed,
    emit_report,
    main,
    run_experiment,
)
from fairprobe.demo import write_demo_csv, write_demo_schema
from fairprobe.errors import ConfigInvalid


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    write_demo_csv(root / "demo.csv", n_rows=2500, seed=7)
    write_demo_schema(root / "schema.json")
    return root


def small_config(root, out_dir, **overrides):
    doc = {
        "dataset": str(root / "demo.csv"),
        "schema": str(root / "schema.json"),
        "sensitive": ["gender"],
        "models": [
            {"name": "logistic", "kind": "logistic", "epochs": 25,
             "learning_rate": 0.05, "l2": 0.0001}
        ],
        "generators": [{"name": "random", "kind": "random"}],
        "selector": "causal",
        "budget": 200,
        "runs": 2,
        "bootstrap_repeats": 5,
        "seed": 3,
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    path = root / f"config_{abs(hash(frozenset(overrides)))}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestConfig:
    def test_round_trip(self, demo_files, tmp_path):
        path = small_config(demo_files, tmp_path)
        config = ExperimentConfig.from_json(path)
        assert config.budget == 200 and config.runs == 2
        assert config.selector == "causal"

    def test_validation(self, demo_files, tmp_path):
        for overrides in (
            {"budget": -1},
            {"runs": 0},
            {"k_percent": 0},
            {"k_percent": 120},
            {"selector": "magic"},
            {"sensitive": []},
            {"generators": []},
        ):
            path = small_config(demo_files, tmp_path, **overrides)
            with pytest.raises(ValueError):
                ExperimentConfig.from_json(path)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, "case", 0) == derive_seed(1, "case", 0)
        assert derive_seed(1, "case", 0) != derive_seed(1, "case", 1)
        assert derive_seed(1, "a") != derive_seed(2, "a")


@pytest.fixture(scope="module")
def result(demo_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    config = ExperimentConfig.from_json(small_config(demo_files, out))
    report, timings = run_experiment(config)
    return config, report, timings, out


class TestRunExperiment:
    def test_report_fields_populated(self, result):
        _, report, _, _ = result
        assert report["report_version"] == 1
        assert len(report["cases"]) == 1
        case = next(iter(report["cases"].values()))
        assert set(case["modes"]) == {"base", "causalft"}
        for mode in case["modes"].values():
            assert len(mode["runs"]) == 2
            assert mode["idi_ratio"]["mean"] is not None
            assert mode["spd"]["mean"] is not None
        assert set(case["comparisons"]) == {"idi_ratio", "eod", "spd"}

    def test_single_run_stddev_zero_not_omitted(self, demo_files, tmp_path):
        config = ExperimentConfig.from_json(
            small_config(demo_files, tmp_path, runs=1, budget=150)
        )
        report, _ = run_experiment(config)
        case = next(iter(report["cases"].values()))
        assert case["modes"]["base"]["idi_ratio"]["std"] == 0.0

    def test_csv_mirrors_json(self, result):
        _, report, timings, out = result
        emit_report(report, out, timings)
        with (out / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        case_count = len(report["cases"])
        mode_count = len(next(iter(report["cases"].values()))["modes"])
        assert len(rows) == case_count * mode_count
        assert list(rows[0]) == [
            "case", "mode", "runs",
            "idi_ratio_mean", "idi_ratio_std", "eod_mean", "eod_std", "spd_mean", "spd_std",
            "idi_count_mean", "sample_count_mean",
            "pairs_without_relaxation_mean", "pairs_with_relaxation_mean",
            "invalid_pairs_mean", "repaired_pairs_mean", "failed_samples_mean",
            "fallback_runs",
        ]
        doc = json.loads((out / "report.json").read_text())
        for row in rows:
            block = doc["cases"][row["case"]]["modes"][row["mode"]]
            assert int(row["runs"]) == len(block["runs"])
            assert int(row["fallback_runs"]) == block["fallback_runs"]
            for column, cell in row.items():
                if column.endswith(("_mean", "_std")):
                    name, stat = column.rsplit("_", 1)
                    expected = block[name][stat] if name in block else block["ledger_means"][name]
                    assert cell == ("" if expected is None else repr(expected)), column

    def test_timings_separate_file(self, result):
        _, report, timings, out = result
        emit_report(report, out, timings)
        assert (out / "timings.json").exists()
        assert "timings" not in json.dumps(report)

    def test_identical_config_byte_identical_reports(self, demo_files, tmp_path):
        config = ExperimentConfig.from_json(
            small_config(demo_files, tmp_path, budget=120, runs=2)
        )
        r1, _ = run_experiment(config)
        r2, _ = run_experiment(config)
        a = json.dumps(r1, indent=2, sort_keys=True)
        b = json.dumps(r2, indent=2, sort_keys=True)
        assert a == b

    def test_k_percent_subsample(self, demo_files, tmp_path):
        config = ExperimentConfig.from_json(
            small_config(demo_files, tmp_path, k_percent=50, budget=150, runs=1)
        )
        report, _ = run_experiment(config)
        case = next(iter(report["cases"].values()))
        assert case["analysis"][0]["selector"] == "causal"
        assert "selected" in case["analysis"][0]

    def test_correlation_selector(self, demo_files, tmp_path):
        config = ExperimentConfig.from_json(
            small_config(demo_files, tmp_path, selector="correlation", budget=150, runs=1)
        )
        report, _ = run_experiment(config)
        case = next(iter(report["cases"].values()))
        assert case["analysis"][0]["selected"] is not None

    def test_selector_none_base_only(self, demo_files, tmp_path):
        config = ExperimentConfig.from_json(
            small_config(demo_files, tmp_path, selector="none", budget=150, runs=1)
        )
        report, _ = run_experiment(config)
        case = next(iter(report["cases"].values()))
        assert set(case["modes"]) == {"base"}


class TestCommands:
    def test_test_and_report_commands(self, demo_files, tmp_path, capsys):
        out = tmp_path / "results"
        config_path = small_config(demo_files, tmp_path, budget=150, runs=1)
        assert main(["test", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "report.json").exists() and (out / "report.csv").exists()

        re_out = tmp_path / "reemit"
        code = main(
            ["report", "--results", str(out / "report.json"), "--out", str(re_out)]
        )
        assert code == 0
        assert (re_out / "report.csv").read_text() == (out / "report.csv").read_text()

    def test_analyze_command(self, demo_files, tmp_path):
        out = tmp_path / "analysis"
        config_path = small_config(demo_files, tmp_path)
        assert main(["analyze", "--config", str(config_path), "--out", str(out)]) == 0
        doc = json.loads((out / "analyze.json").read_text())
        assert "gender" in doc
        assert (out / "graph_gender.csv").exists()

    def test_compare_command(self, demo_files, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config_path = small_config(demo_files, tmp_path, budget=150, runs=2)
        main(["test", "--config", str(config_path), "--out", str(out_a)])
        config_path2 = small_config(demo_files, tmp_path, budget=150, runs=2, seed=9)
        main(["test", "--config", str(config_path2), "--out", str(out_b)])
        target = tmp_path / "cmp.json"
        code = main(
            [
                "compare",
                "--report-a", str(out_a / "report.json"),
                "--report-b", str(out_b / "report.json"),
                "--out", str(target),
            ]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        case = next(iter(doc.values()))
        assert "base" in case and "idi_ratio" in case["base"]

    def test_retrain_command(self, demo_files, tmp_path):
        out = tmp_path / "retrain"
        config_path = small_config(
            demo_files, tmp_path, budget=400, runs=2, retrain_budget=200
        )
        assert main(["retrain", "--config", str(config_path), "--out", str(out)]) == 0
        doc = json.loads((out / "retrain.json").read_text())
        assert len(doc["before"]) == 2 and len(doc["after"]) == 2
        assert doc["corrections"] >= 0
        assert "accuracy" in doc["quality_before"]

    def test_run_retrain_flag_in_test_command(self, demo_files, tmp_path):
        out = tmp_path / "with_retrain"
        config_path = small_config(
            demo_files, tmp_path, budget=300, runs=2, retrain_budget=150,
            run_retrain=True,
        )
        assert main(["test", "--config", str(config_path), "--out", str(out)]) == 0
        doc = json.loads((out / "retrain_gender.json").read_text())
        assert len(doc["before"]) == 2 and len(doc["after"]) == 2

    def test_env_output_override(self, demo_files, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("FAIRPROBE_OUT", str(env_out))
        config_path = small_config(demo_files, tmp_path, budget=120, runs=1)
        assert main(["test", "--config", str(config_path)]) == 0
        assert (env_out / "report.json").exists()

    def test_cli_error_reporting(self, demo_files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "dataset": str(tmp_path / "missing.csv"),
                    "schema": str(demo_files / "schema.json"),
                    "sensitive": ["gender"],
                    "models": [{"kind": "logistic"}],
                    "generators": [{"kind": "random"}],
                }
            )
        )
        assert main(["test", "--config", str(bad)]) == 1
        assert str(tmp_path / "missing.csv") in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestConfigErrors:
    """A malformed config exits 1 with a message, not a traceback."""

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"budgett": 5}, "budgett"),
            ({"runs": 0}, "runs"),
            ({"generators": [{"name": "g", "kind": "genetic"}]}, "genetic"),
            ({"models": [{"name": "lr", "epochs": 5}]}, "kind"),
            ({"models": [{"name": "lr", "kind": "logistic", "epoch": 5}]}, "epoch"),
            ({"models": [{"name": "lr", "kind": "logistic", "hidden_sizes": [4]}]}, "hidden"),
            ({"models": [{"name": "lr", "kind": "logistic", "epochs": "5"}]}, "'lr'"),
            ({"models": ["logistic"]}, "JSON object"),
            ({"generators": ["random"]}, "JSON object"),
            ({"generators": [{"name": "g", "kind": "random", "steps": 3, "size": 2}]},
             "unknown keys: size, steps"),
            ({"group_rules": {"gender": {"kind": "range"}}}, "lo <= hi"),
            ({"group_rules": {"gender": {"kind": "range", "range": [5, 1]}}}, "lo <= hi"),
            ({"group_rules": {"gender": "range"}}, "JSON object"),
            ({"group_rules": {"gender": {"kind": "bogus", "alpha_values": [1]}}}, "bogus"),
            ({"group_rules": {"gender": {"alpha_values": [1]}}}, "missing key: kind"),
            ({"group_rules": ["gender"]}, "group_rules"),
            ({"budget": "10"}, "'budget'"),
            ({"models": 5}, "'models'"),
            ({"group_rules": {"age": {"kind": "range", "range": ["a", "b"]}}}, "numbers"),
            ({"group_rules": {"gender": {"kind": "binary-value", "alpha_values": "ab"}}},
             "numbers"),
            ({"m": 0}, "'m'"),
            ({"bootstrap_repeats": 0}, "'bootstrap_repeats'"),
            ({"train_fraction": 1.5}, "'train_fraction'"),
            ({"retrain_budget": -5, "run_retrain": True}, "'retrain_budget'"),
            ({"budget": 0}, "config key 'budget' must be >= 1, got 0"),
            ({"retrain_budget": 0, "run_retrain": True},
             "config key 'retrain_budget' must be >= 1, got 0"),
            ({"sensitive": ["gender", "gender"]}, "'sensitive' repeats the name 'gender'"),
            ({"generators": [{"kind": "random"}, {"kind": "random"}]},
             "'generators' repeats the name 'random'"),
            ({"models": [{"name": "m", "kind": "logistic"},
                         {"name": "m", "kind": "mlp", "hidden_sizes": [4]}]},
             "'models' repeats the name 'm'"),
            ({"sensitive": [["gender"]]}, "'sensitive' needs string names"),
            ({"generators": [{"name": ["g"], "kind": "random"}]},
             "'generators' needs string names"),
            ({"models": []}, "'models' needs at least one entry"),
        ],
        ids=[
            "unknown_key",
            "zero_runs",
            "unknown_generator_kind",
            "model_without_kind",
            "misspelt_model_key",
            "logistic_with_hidden_sizes",
            "model_value_of_wrong_type",
            "model_not_an_object",
            "generator_not_an_object",
            "generator_with_two_unknown_keys",
            "range_rule_without_range",
            "range_rule_with_lo_above_hi",
            "group_rule_not_an_object",
            "unknown_group_rule_kind",
            "group_rule_without_kind",
            "group_rules_not_an_object",
            "budget_of_wrong_type",
            "models_of_wrong_type",
            "range_of_strings",
            "alpha_values_a_string",
            "zero_m",
            "zero_bootstrap_repeats",
            "train_fraction_above_one",
            "negative_retrain_budget",
            "zero_budget",
            "zero_retrain_budget",
            "repeated_sensitive_feature",
            "two_unnamed_generators_of_one_kind",
            "two_models_with_one_name",
            "sensitive_feature_not_a_string",
            "generator_name_not_a_string",
            "no_models",
        ],
    )
    def test_exit_code_one(self, demo_files, tmp_path, capsys, overrides, named):
        path = small_config(demo_files, tmp_path, **overrides)
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_json(path)
        assert main(["test", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, constant",
        [
            ({"models": [{"name": "lr", "kind": "logistic", "l2": float("inf")}]}, "Infinity"),
            ({"models": [{"name": "lr", "kind": "logistic", "l2": float("-inf")}]}, "-Infinity"),
            ({"edge_threshold": float("nan")}, "NaN"),
        ],
        ids=["infinity", "minus_infinity", "nan"],
    )
    def test_non_finite_constant_exits_one_before_any_work(
        self, demo_files, tmp_path, capsys, overrides, constant
    ):
        """json.dumps writes NaN and the infinities as bare constants, which
        strict JSON does not allow: the config is refused before training,
        so no output file is written."""
        path = small_config(demo_files, tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["test", "--config", str(path), "--out", str(out)]) == 1
        assert f"config file {path} holds {constant}," in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["test", "analyze", "retrain"])
    def test_group_rule_for_a_feature_not_in_the_schema_exits_one(
        self, demo_files, tmp_path, capsys, command
    ):
        rules = {"agee": {"kind": "range", "range": [25, 40]}}
        path = small_config(demo_files, tmp_path, sensitive=["age"], group_rules=rules)
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "'agee'" in capsys.readouterr().err

    def test_group_rule_for_a_feature_not_sensitive_is_logged(self, demo_files, tmp_path, caplog):
        rules = {"age": {"kind": "range", "range": [25, 40]}}
        config = ExperimentConfig.from_json(small_config(demo_files, tmp_path, group_rules=rules))
        cli._load(config)
        assert "group rule for 'age' unused" in caplog.text

    @pytest.mark.parametrize("command", ["test", "analyze", "retrain"])
    @pytest.mark.parametrize("column", ["income", "race"])
    def test_untestable_column_exits_one(self, tmp_path, capsys, column, command):
        """A label with one class, or a sensitive feature with one value,
        cannot be tested: the run exits 1 and names the column."""
        write_demo_csv(tmp_path / "demo.csv", n_rows=600, seed=3)
        write_demo_schema(tmp_path / "schema.json")
        with (tmp_path / "demo.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row[column] = "0"
        with (tmp_path / "demo.csv").open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        path = small_config(tmp_path, tmp_path / "out", sensitive=["gender", "race"])
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"'{column}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "broken", ["missing_schema", "schema_not_json", "schema_without_label", "missing_config"]
    )
    def test_unreadable_input_file_exits_one(self, demo_files, tmp_path, capsys, broken):
        schema = tmp_path / "schema.json"
        if broken == "schema_not_json":
            schema.write_text("{not json", encoding="utf-8")
        elif broken == "schema_without_label":
            schema.write_text('{"features": {"age": "integer"}}', encoding="utf-8")
        path = small_config(demo_files, tmp_path, schema=str(schema))
        if broken == "missing_config":
            path = tmp_path / "absent.json"
        named = path if broken == "missing_config" else schema
        assert main(["test", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert str(named) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "report"])
    def test_unreadable_report_exits_one(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.json"
        not_json = tmp_path / "report.json"
        not_json.write_text("{not json", encoding="utf-8")
        if command == "compare":
            argv = ["compare", "--report-a", str(missing), "--report-b", str(not_json)]
            named = missing
        else:
            argv = ["report", "--results", str(not_json), "--out", str(tmp_path / "out")]
            named = not_json
        assert main(argv) == 1
        assert str(named) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "report"])
    @pytest.mark.parametrize(
        "doc, named", [("{}", "'cases'"), ('{"cases": {"x": []}}', "TypeError")],
        ids=["empty", "case_not_an_object"],
    )
    def test_object_that_is_not_a_report_exits_one(self, tmp_path, capsys, command, doc, named):
        path = tmp_path / "bad.json"
        path.write_text(doc, encoding="utf-8")
        if command == "compare":
            argv = ["compare", "--report-a", str(path), "--report-b", str(path)]
        else:
            argv = ["report", "--results", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and named in err


class TestSharedPipeline:
    def test_each_stage_runs_once_where_its_inputs_change(
        self, demo_files, tmp_path, monkeypatch
    ):
        calls = Counter()

        def count(name):
            fn = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)

        for name in ("load_csv", "split_train_test", "discover_graph", "train"):
            count(name)
        path = small_config(
            demo_files, tmp_path,
            sensitive=["gender", "race"],
            models=[
                {"name": "logistic", "kind": "logistic", "epochs": 10},
                {"name": "mlp", "kind": "mlp", "hidden_sizes": [4], "epochs": 2},
            ],
            generators=[{"name": "random", "kind": "random"},
                        {"name": "sg_lite", "kind": "sg_lite"}],
            runs=2, budget=60, retrain_budget=30, run_retrain=True,
        )
        out = tmp_path / "out"
        assert main(["test", "--config", str(path), "--out", str(out)]) == 0
        # 2 run indices: 2 splits and graphs; 2 models per run index: 4 trainings;
        # the retrain reuses run index 0 instead of loading the data again
        assert calls == {"load_csv": 1, "split_train_test": 2, "discover_graph": 2, "train": 4}
        report = json.loads((out / "report.json").read_text())
        assert len(report["cases"]) == 8
        assert (out / "retrain_gender.json").exists() and (out / "retrain_race.json").exists()

    def test_one_test_index_per_model_and_sensitive_feature(
        self, demo_files, tmp_path, monkeypatch
    ):
        builds = []
        build = generators._TestIndex.__init__

        def counted(index, *args):
            builds.append(1)
            build(index, *args)

        monkeypatch.setattr(generators._TestIndex, "__init__", counted)
        path = small_config(
            demo_files, tmp_path,
            models=[
                {"name": "logistic", "kind": "logistic", "epochs": 10},
                {"name": "mlp", "kind": "mlp", "hidden_sizes": [4], "epochs": 2},
            ],
            generators=[{"name": "random", "kind": "random"},
                        {"name": "sg_lite", "kind": "sg_lite"}],
            runs=2, budget=60, run_retrain=True,
        )
        assert main(["test", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        # 2 run indices x 2 models share their index across generators and
        # modes; the retrain builds one for the first model, shared by its
        # corrections suite and its 2 re-test runs, and one for the retrained
        # model's 2 re-test runs
        assert len(builds) == 2 * 2 + 1 + 1

    def test_analyze_matches_test_run_zero(self, demo_files, tmp_path):
        path = small_config(
            demo_files, tmp_path, sensitive=["gender", "age"], runs=1, budget=60
        )
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        analyzed = json.loads((out / "analyze.json").read_text())
        report, _ = run_experiment(ExperimentConfig.from_json(path))
        assert any(doc["direct_features"] for doc in analyzed.values())
        for case_key, case in report["cases"].items():
            entry = case["analysis"][0]
            doc = analyzed[case_key.split("/")[1]]
            assert doc["direct_features"] == entry["direct_features"]
            assert doc["selected"] == entry["selected"]
            assert {f: e["median"] for f, e in doc["effects"].items()} == entry["effects"]


class TestPipelineBytes:
    """The whole pipeline, pinned by the sha256 of every output `test` and
    `analyze` write except timings.json: MLP training, causal discovery and
    effects, every generator kind in both modes, report building and the
    retrain. A change meant to keep report bytes must keep these; one that
    changes them on purpose updates the pins."""

    DIGESTS = {
        "test/report.json": "bd8eea05e0ba9470bb2d43afd2b62443c7f50f5658ab29306193a5401915e6b4",
        "test/report.csv": "f357ed44c98a6b83a236f3753132e8c423a03f871cd4a76422318f0bf267f58e",
        "test/retrain_gender.json": "116ccdfaacd20ed7649f5bc1a0e621c360f88bed10aedd0a88e20c4fe6c3765d",
        "test/retrain_race.json": "2b6772a3cf0e1bab31c8773ec1c8f733b7eaf731303e2c10547997afd561b8b8",
        "test/retrain_age.json": "9e41bd3c75a2b9937d0acc3e46b9aeca9d01c386e9ba0276db8b2a2dd8d16d83",
        "analyze/analyze.json": "247ddc80c51551b4c73a3b72c24c65e8f7cb53a555d814b57d6a9512ccb8f10f",
        "analyze/graph_gender.csv": "1cee4eebb5331af2855569a5d9ef0f971264710071e5549c6389dcca749b9f00",
        "analyze/graph_race.csv": "1cee4eebb5331af2855569a5d9ef0f971264710071e5549c6389dcca749b9f00",
        "analyze/graph_age.csv": "1cee4eebb5331af2855569a5d9ef0f971264710071e5549c6389dcca749b9f00",
    }

    def test_output_digests(self, tmp_path, monkeypatch):
        # relative paths: report.json embeds the config's dataset and schema paths
        monkeypatch.chdir(tmp_path)
        write_demo_csv("demo.csv", n_rows=1500, seed=7)
        write_demo_schema("schema.json")
        doc = {
            "dataset": "demo.csv",
            "schema": "schema.json",
            "sensitive": ["gender", "race", "age"],
            "models": [
                {"name": "logistic", "kind": "logistic", "epochs": 25,
                 "learning_rate": 0.05, "l2": 0.0001},
                {"name": "mlp", "kind": "mlp", "hidden_sizes": [8], "epochs": 5,
                 "learning_rate": 0.01},
            ],
            "generators": [{"kind": "random"}, {"kind": "sg_lite"}, {"kind": "adf_lite"}],
            "selector": "causal",
            "budget": 200,
            "runs": 2,
            "m": 50,
            "bootstrap_repeats": 5,
            "seed": 1,
            "group_rules": {"age": {"kind": "range", "range": [25, 40]}},
            "retrain_budget": 100,
            "run_retrain": True,
        }
        Path("config.json").write_text(json.dumps(doc), encoding="utf-8")
        for command in ("test", "analyze"):
            assert main([command, "--config", "config.json", "--out", command]) == 0
        written = sorted(
            str(path.relative_to(tmp_path)) for path in tmp_path.glob("*/*")
            if path.name != "timings.json"
        )
        assert written == sorted(self.DIGESTS)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in written
        }
        assert digests == self.DIGESTS


class TestStrictJson:
    def test_single_group_rule_writes_null_spd(self, demo_files, tmp_path):
        out = tmp_path / "strict"
        path = small_config(
            demo_files, tmp_path, budget=120,
            group_rules={"gender": {"kind": "range", "range": [100, 200]}},
        )
        assert main(["test", "--config", str(path), "--out", str(out)]) == 0
        json.loads((out / "timings.json").read_text(), parse_constant=reject_constant)
        doc = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
        base = next(iter(doc["cases"].values()))["modes"]["base"]
        assert [run["spd"] for run in base["runs"]] == [None, None]
        assert base["spd"] == {"mean": None, "std": None}

    def test_nan_refused_not_written(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report({"cases": {}, "value": float("nan")}, tmp_path)


class TestTraceContract:
    """perfbench/traced.py wraps the layer entry points by module attribute
    and reads their `spec`, `model`, `sensitive` and `config` arguments; a
    moved target or a renamed parameter shows here, not only as the traced
    benchmark's failure."""

    def test_traced_run_reaches_every_target_and_counts_true_pairs(
        self, demo_files, tmp_path, monkeypatch
    ):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans
        import traced

        path = small_config(
            demo_files, tmp_path, budget=100, run_retrain=True,
            generators=[{"name": "adf_lite", "kind": "adf_lite"}],
        )
        tracer, suites = spans.Tracer(), []
        undo = traced.install(tracer, suites)
        try:
            code = main(["test", "--config", str(path), "--out", str(tmp_path / "out")])
        finally:
            spans.restore(undo)
        assert code == 0
        assert tracer.missing == []
        doc = tracer.to_dict()
        called = {s["name"] for s in doc["spans"]} | {leaf["name"] for leaf in doc["leaves"]}
        # the causal selector never ranks by correlation
        assert called == {
            "data.load", "data.split", "models.train", "causal.discover", "causal.direct",
            "causal.effect", "causal.select", "generators.base", "generators.guided",
            "metrics.report", "stats.compare", "retrain.case", "retrain.correct",
            "retrain.retest", "retrain.quality", "cli.emit", "models.predict",
            "models.gradient",
        }
        assert suites
        checked, failed = traced.check_pairs(suites)
        assert checked > 0 and failed == 0
