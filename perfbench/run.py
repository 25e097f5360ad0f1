"""fairprobe benchmark: time `fairprobe test` end to end and by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (perfbench/workloads.py) and starts
the pace probe (perfbench/pace.py) on the core every timed process is pinned
to. Then, until S seconds have passed and at least MIN_RUNS rounds are done,
it runs rounds of SETUP_REPEATS set-up probes (each a fresh process that
imports fairprobe and loads the schema and CSV) and one fresh `fairprobe test`
process; with --trace 1, one traced run (perfbench/traced.py) follows in the
same round. Runs go one at a time, a closed loop with one client, and every
child uses one BLAS/OpenMP thread. Every run's outputs are checked
(perfbench/checks.py).

Times are reported at reference pace: a time measured while the pace probe
did u units of work per second of its own work is multiplied by
u / REF_UNITS_PER_S, so a spell in which the core runs slower does not read
as a slower program. A set-up probe is too short for a steady pace reading
and takes the pace of the command after it. Raw seconds are printed beside
them.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1). The
exit code is 1 when any check failed and 2 when the program's source is
missing.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
import spans
from summary import describe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_RUNS = 3
SETUP_REPEATS = 3  # a set-up takes 0.2-0.3 s; one per round reads too noisily
HARD_LIMIT_S = 170.0  # a run must end within 180 s, set-up included
# about pace.py's units per second on a 2-vCPU Xeon (Sapphire Rapids) KVM
# guest while fairprobe runs beside it; only the scale of reported times
# depends on it
REF_UNITS_PER_S = 6000.0
PACE_POLL_S = 0.01
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLI_CODE = "import sys; from fairprobe.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import sys; from fairprobe import Schema, load_csv; "
    "load_csv(sys.argv[2], Schema.from_json(sys.argv[1]))"
)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"  # absent in a checkout without git metadata
    commit = head.read_text().strip() if head.is_file() else None
    if commit and commit.startswith("ref: "):
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        commit = ref.read_text().strip() if ref.is_file() else commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "threads": THREAD_ENV,
    }


def spawn(cmd: list[str], cwd: Path, cpus: set[int] | None, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    return subprocess.Popen(cmd, cwd=cwd, env=env, preexec_fn=pin, **kwargs)


def timed(cmd: list[str], cwd: Path, log: Path, timeout: float,
          cpus: set[int] | None = None) -> tuple[int, float, float, float]:
    """Run cmd to completion; (exit code, start time, wall seconds, peak RSS
    in MiB). The child is killed after `timeout` seconds."""
    with log.open("w") as err:
        start = time.perf_counter()
        proc = spawn(cmd, cwd, cpus, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss / 1024.0


def record_at(records: list[tuple[float, int, float]], t: float) -> tuple[float, float]:
    """(units done, seconds spent on them) by the pace probe at time t,
    interpolated linearly between its records (sorted by time)."""
    i = bisect.bisect_left(records, (t,))
    if i == 0 or i == len(records):
        raise ValueError(f"time {t:.3f} is outside the pace record")
    (t0, u0, b0), (t1, u1, b1) = records[i - 1], records[i]
    f = (t - t0) / (t1 - t0)
    return u0 + (u1 - u0) * f, b0 + (b1 - b0) * f


class Pace:
    """The running pace probe and its record."""

    def __init__(self, work: Path, cpus: set[int] | None):
        self.path = work / "pace.txt"
        self.proc = spawn([sys.executable, str(BENCH / "pace.py"), str(self.path)],
                          work, cpus, stdout=subprocess.DEVNULL)
        try:
            self.records()  # wait for its first record
        except BaseException:
            self.stop()
            raise

    def records(self, after: float = 0.0) -> list[tuple[float, int, float]]:
        """Every record so far, once one is later than `after`."""
        give_up = time.perf_counter() + 10.0
        while True:
            text = self.path.read_text() if self.path.is_file() else ""
            lines = text.splitlines()[: text.count("\n")]  # complete lines only
            records = [(float(t), int(u), float(b)) for t, u, b in map(str.split, lines)]
            if records and records[-1][0] > after:
                return records
            if self.proc.poll() is not None or time.perf_counter() > give_up:
                raise RuntimeError(f"pace probe stopped recording (exit {self.proc.poll()})")
            time.sleep(PACE_POLL_S)

    def speed(self, start: float, wall: float) -> float:
        """The pace over [start, start + wall] relative to the reference pace."""
        records = self.records(after=start + wall)
        (u0, b0), (u1, b1) = record_at(records, start), record_at(records, start + wall)
        return (u1 - u0) / (b1 - b0) / REF_UNITS_PER_S

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()


class Bench:
    def __init__(self, workload, work: Path, config: dict, deadline: float,
                 speed=lambda start, wall: 1.0, cpus: set[int] | None = None):
        self.workload = workload
        self.work = work
        self.config = config
        self.hard_deadline = deadline
        self.speed = speed
        self.cpus = cpus
        self.attempted = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def remaining(self) -> float:
        return self.hard_deadline - time.perf_counter()

    def fail(self, what: str, log: Path | None = None) -> None:
        self.problems.append(what)
        tail = log.read_text(errors="replace")[-2000:] if log and log.is_file() else ""
        print(f"FAILED: {what}\n{tail}", file=sys.stderr)

    def setup_probe(self) -> float | None:
        """Median raw seconds of SETUP_REPEATS set-up probes; their windows are
        too short for a steady pace, so the caller scales them by the next
        command's."""
        walls = []
        for _ in range(SETUP_REPEATS):
            self.attempted += 1
            log = self.work / "setup.log"
            code, _, wall, _ = timed(
                [sys.executable, "-c", SETUP_CODE, "schema.json", "data.csv"],
                self.work, log, self.remaining(), self.cpus,
            )
            if code != 0:
                self.fail(f"set-up probe exited {code}", log)
                return None
            walls.append(wall)
        return statistics.median(walls)

    def command(self, traced_to: Path | None = None) -> dict | None:
        """One fresh fairprobe process; its measurements, or None on failure."""
        self.attempted += 1
        out = self.work / "results"
        shutil.rmtree(out, ignore_errors=True)
        args = ["test", "--config", "config.json", "--out", "results"]
        if traced_to is None:
            cmd = [sys.executable, "-c", CLI_CODE, *args]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(traced_to), "--", *args]
        log = self.work / "command.log"
        code, start, wall, rss = timed(cmd, self.work, log, self.remaining(), self.cpus)
        if code != 0:
            self.fail(f"fairprobe test exited {code}", log)
            return None
        summary, problems = checks.check_run(out, self.workload.outputs, self.config)
        if not problems:
            self.digest = self.digest or summary["digest"]
            if summary["digest"] != self.digest:
                problems = [f"digest {summary['digest']} differs from {self.digest}"]
        if problems:
            self.fail("; ".join(problems), log)
            return None
        return dict(summary, start=start, raw_wall_s=wall, peak_rss_mb=rss,
                    wall_s=wall * self.speed(start, wall))

    def traced(self) -> dict | None:
        """One traced run: its per-layer metrics and `wall_s`, times at
        reference pace, and the trace itself; None when a check fails. The
        traced process spends `post_main_s` after the command checking pairs;
        that time is not the command's."""
        path = self.work / "trace.json"
        run = self.command(traced_to=path)
        if run is None:
            return None
        trace = json.loads(path.read_text(encoding="utf-8"))
        wall = run["raw_wall_s"] - trace["post_main_s"]
        values = layers.layer_metrics(trace, wall)
        problems = layers.trace_problems(trace, values)
        if problems:
            self.fail("; ".join(problems))
            return None
        speed = self.speed(run["start"], wall)
        values = {k: v * speed if k.endswith("_s") else v for k, v in values.items()}
        return dict(values, trace=trace, raw_wall_s=wall, wall_s=wall * speed)


def end_to_end(rounds: list[dict]) -> dict[str, list[float]]:
    """Per end-to-end metric, its value in every round."""
    return {
        "wall_s": [r["wall_s"] for r in rounds],
        "setup_s": [r["setup_s"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "samples_per_s": [r["samples"] / r["wall_s"] for r in rounds],
        "idi_per_s": [r["idi"] / r["wall_s"] for r in rounds],
    }


def per_layer(rounds: list[dict], demo_generate_s: float) -> dict[str, float]:
    """Per-layer metrics: each the median over the rounds' traced runs.
    `trace.overhead_s` is the traced minus the untraced wall time of the
    same round, both at reference pace; `demo.generate_s`, the input build
    before the pace probe starts, is raw seconds."""
    traced = [r["traced"] for r in rounds]
    values = {name: statistics.median(t[name] for t in traced) for name in traced[0]
              if name not in ("trace", "raw_wall_s", "wall_s")}
    values["trace.overhead_s"] = statistics.median(
        r["traced"]["wall_s"] - r["wall_s"] for r in rounds
    )
    values["demo.generate_s"] = demo_generate_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairprobe" / "cli.py").is_file():
        print(f"error: no fairprobe source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    t_begin = time.perf_counter()
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    pace = None
    try:
        env = environment()
        env["loadavg_before"] = os.getloadavg()
        t0 = time.perf_counter()
        config_path = workloads.build(workload.name, work, args.seed)
        demo_generate_s = time.perf_counter() - t0
        config = json.loads(config_path.read_text(encoding="utf-8"))
        core = {min(os.sched_getaffinity(0))}
        pace = Pace(work, core)
        bench = Bench(workload, work, config, t_begin + HARD_LIMIT_S, pace.speed, core)

        deadline = time.perf_counter() + args.seconds
        rounds, round_s = [], []
        while bench.remaining() > 0:
            t_round = time.perf_counter()
            setup = bench.setup_probe()
            run = setup and bench.command()
            traced = run and (bench.traced() if args.trace else {})
            if traced is None:
                break
            speed = run["wall_s"] / run["raw_wall_s"]
            rounds.append(dict(run, setup_s=setup * speed, raw_setup_s=setup, traced=traced))
            round_s.append(time.perf_counter() - t_round)
            now = time.perf_counter()
            if len(rounds) >= MIN_RUNS and now + statistics.median(round_s) > deadline:
                break
        env["loadavg_after"] = os.getloadavg()
    finally:
        if pace is not None:
            pace.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()

    failed = len(bench.problems)
    series = end_to_end(rounds)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"digest {bench.digest}")
    print("raw wall_s " + " ".join(f"{r['raw_wall_s']:.4f}" for r in rounds))
    print("pace       " + " ".join(f"{r['wall_s'] / r['raw_wall_s']:.4f}" for r in rounds))
    print(describe("raw wall_s", "s", [r["raw_wall_s"] for r in rounds]))
    print(describe("raw setup_s", "s", [r["raw_setup_s"] for r in rounds]))
    for m in BENCHMARK["end_to_end"]:
        print(describe(m["name"], m["unit"], series[m["name"]]))
    print(f"{'error_rate':<16} {failed / bench.attempted:.6g} ratio  ({failed} of {bench.attempted} runs)")

    if failed or len(rounds) < MIN_RUNS:
        if len(rounds) < MIN_RUNS:
            print(f"only {len(rounds)} of {MIN_RUNS} rounds finished in time", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted,
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    if args.trace:
        values = per_layer(rounds, demo_generate_s)
        declared = BENCHMARK["per_layer"]
        first = rounds[0]["traced"]
        print(f"traced raw wall_s {first['raw_wall_s']:.6g} s; "
              f"pairs checked {first['trace']['pairs_checked']}")
        for m in declared:
            print(f"  {m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
        print("self time by span, first traced run:")
        own = layers.self_time_by_name(first["trace"], spans.self_times(first["trace"]))
        for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<32} {seconds:.6g} s")
    else:
        declared = BENCHMARK["end_to_end"]
        values = {name: statistics.median(vals) for name, vals in series.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": True, "attempted": bench.attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
