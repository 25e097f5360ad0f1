"""Run the benchmark over several seeds and summarise it as a baseline file.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each seed, every workload runs once untraced, workloads taking turns so
that a slow spell of the machine does not fall on one workload only. Then
each workload runs once traced (at the first seed). Per workload and
end-to-end metric the file holds the median, the quartiles and their
distance as a share of the median (`spread`), the report digest per seed,
the error rate, and the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, str]:
    """(result line, environment line, report digest) of one benchmark run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    digest = next((line[7:] for line in lines if line.startswith("digest ")), None)
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} "
          f"correct {result['correct']} in {elapsed:.1f} s", file=sys.stderr, flush=True)
    return result, env, digest


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    values: dict[str, dict[str, list]] = {w: {} for w in names}
    counts = {w: [0, 0] for w in names}  # attempted, failed
    digests: dict[str, dict[int, str]] = {w: {} for w in names}
    env = {}
    for seed in args.seeds:
        for workload in names:
            result, env, digests[workload][seed] = run_once(workload, seed, seconds, 0)
            counts[workload][0] += result["attempted"]
            counts[workload][1] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    doc = {"seeds": [args.seeds[0], args.seeds[-1]], "run_seconds": seconds,
           "environment": env, "workloads": {}}
    for workload, metrics in values.items():
        summary = {}
        for name, vals in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": vals}
        entry = doc["workloads"][workload] = {"end_to_end": summary,
                                              "digests": digests[workload]}
        traced, _, _ = run_once(workload, args.seeds[0], seconds, 1)
        counts[workload][0] += traced["attempted"]
        counts[workload][1] += traced["failed"]
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        attempted, failed = counts[workload]
        entry["error_rate"] = failed / attempted

    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for workload, entry in doc["workloads"].items():
        print(f"{workload}: error_rate {entry['error_rate']:.4g}")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<32} median {s['median']:.6g} {units[name]}  "
                  f"spread {s['spread']:.3f}  n={len(s['values'])}")
        for name, value in entry["per_layer"].items():
            print(f"  {name:<32} {value:.6g} {units[name]}")
    return 0 if all(failed == 0 for _, failed in counts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
