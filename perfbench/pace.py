"""Pace probe: how fast the core runs while the benchmark times a command on it.

Usage: python3 perfbench/pace.py OUT_FILE

The benchmark starts this on the core its timed commands run on and stops it
at the end. In short bursts, BURST_UNITS units at a time and about SLEEP_S
apart (under 5% of the core), it does one fixed unit of work: small-batch
network queries and dict updates, the kinds of work fairprobe does, with
numpy only and never with fairprobe's own code, so a change to the program
does not change the probe. After each burst it appends
`<time.perf_counter()> <units done> <seconds spent on them>` to OUT_FILE.

Why: the 2-vCPU VM this benchmark was made on runs 20-50% slower or faster
for seconds to minutes at a time, and mostly one core at a time. A probe on
the other core tracked the timed command poorly; one sharing its core, in
bursts short enough that the scheduler does not cut them, tracked it well.
`Pace.speed` in run.py turns the record into the core's speed over a
command's window.
"""

import sys
import time

import numpy as np

BURST_UNITS = 8
SLEEP_S = 0.03
WIDTH, HIDDEN = 11, (64, 32)


def main() -> None:
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(WIDTH, HIDDEN[0]))
    w2 = rng.normal(size=HIDDEN)
    query = rng.integers(0, 10, (4, WIDTH)).astype(float)
    seen: dict = {}
    clock = time.perf_counter
    units, busy = 0, 0.0
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        while True:
            start = clock()
            for _ in range(BURST_UNITS):
                for i in range(32):
                    h = np.maximum(query @ w1, 0.0) @ w2
                    seen[(i, int(h[0, 0]) & 7)] = units
                units += 1
            end = clock()
            busy += end - start
            out.write(f"{end:.6f} {units} {busy:.6f}\n")
            out.flush()
            time.sleep(SLEEP_S)


if __name__ == "__main__":
    main()
