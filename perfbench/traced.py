"""Run one fairprobe command with its layer calls traced.

Usage: python perfbench/traced.py TRACE_JSON -- <fairprobe arguments>

Wraps, from outside the program, the public functions that fairprobe.cli,
fairprobe.retrain and fairprobe.generators call into each layer, runs the
command, then restores the originals and checks every counted pair of every
generated suite against the strict IDI definition. Spans and the check
result are written to TRACE_JSON once, after the command has finished;
`post_main_s` is the time spent after the command, which the caller
subtracts from the process wall time.
"""

import json
import sys
import time

from spans import Tracer, restore, wrap_leaf, wrap_span


def _rows(args) -> int:
    shape = getattr(args[1], "shape", None)
    return int(shape[0]) if shape is not None and len(shape) > 1 else 1


def install(tracer: Tracer, suites: list) -> list:
    """Wrap every layer entry point; return the undo list for `restore`."""
    import fairprobe.cli as cli
    import fairprobe.generators as generators
    import fairprobe.models as models
    import fairprobe.retrain as retrain

    def count_rows(c, args, result):
        c["rows"] = result.n_rows

    def count_kind(c, args, result):
        c["kind"] = args["config"].kind

    def count_direct(c, args, result):
        c["empty"] = int(not result)

    def count_corrections(c, args, result):
        c["corrections"] = len(result)

    def count_suite(c, args, suite):
        ledger = suite.ledger
        c.update(
            kind=args["spec"].kind,
            samples=len(suite.unique_samples),
            idi=len(suite.idi_samples),
            budget_reached=int(suite.budget_reached),
            invalid=ledger.invalid_pairs,
            repaired=ledger.repaired_pairs,
            failed=ledger.failed_samples,
        )
        suites.append((suite, args["model"], args["sensitive"]))

    undo: list = []
    spans = [
        (cli, "load_csv", "data.load", count_rows),
        (cli, "split_train_test", "data.split", None),
        (cli, "train", "models.train", count_kind),
        (retrain, "train", "models.train", count_kind),
        (cli, "discover_graph", "causal.discover", None),
        (cli, "direct_features", "causal.direct", count_direct),
        (cli, "bootstrap_effect", "causal.effect", None),
        (cli, "select_causal_feature", "causal.select", None),
        (cli, "select_correlation_feature", "causal.correlation", None),
        (cli, "run_base_generator", "generators.base", count_suite),
        (cli, "run_causalft", "generators.guided", count_suite),
        (retrain, "run_causalft", "generators.guided", count_suite),
        (cli, "build_report", "metrics.report", None),
        (retrain, "build_report", "metrics.report", None),
        (cli, "compare", "stats.compare", None),
        (cli, "_retrain_case", "retrain.case", None),
        (cli, "correct_pairs", "retrain.correct", count_corrections),
        (cli, "retrain_and_retest", "retrain.retest", None),
        (cli, "model_quality", "retrain.quality", None),
        (cli, "emit_report", "cli.emit", None),
    ]
    for owner, attr, name, count in spans:
        wrap_span(tracer, owner, attr, name, count, undo)
    wrap_leaf(tracer, models.ModelUnderTest, "predict_batch", "models.predict", _rows, undo)
    wrap_leaf(tracer, generators, "input_gradient", "models.gradient", None, undo)
    return undo


def check_pairs(suites: list) -> tuple[int, int]:
    """(pairs checked, pairs that fail the strict IDI definition)."""
    from fairprobe.generators import is_true_idi

    checked = failed = 0
    for suite, model, sensitive in suites:
        for pair in suite.true_pairs:
            checked += 1
            failed += not is_true_idi(pair, model, sensitive)
    return checked, failed


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_JSON -- <fairprobe arguments>")
    tracer = Tracer()
    with tracer.span("cli.import"):
        import fairprobe.cli
    suites: list = []
    undo = install(tracer, suites)
    with tracer.span("cli.main"):
        code = fairprobe.cli.main(argv)
    t_post = time.perf_counter()
    restore(undo)
    checked, failed = check_pairs(suites)
    doc = tracer.to_dict()
    doc.update(
        exit_code=code,
        pairs_checked=checked,
        pairs_failed=failed,
        post_main_s=time.perf_counter() - t_post,
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
