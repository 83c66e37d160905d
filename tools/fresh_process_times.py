"""Fresh-process wall times of the import and of each CLI mode.

Usage:
    python tools/fresh_process_times.py NAME=CHECKOUT [NAME=CHECKOUT ...]
        [--runs 7] [--out times.json]

Each CHECKOUT is a source tree of this repository; its ``src`` goes on
the child's PYTHONPATH.  A sample is the wall time, from spawn to exit,
of one new interpreter that either imports ``eternalprofile.cli`` or
runs one CLI mode (solve, classify, verify, asymptotics) on one of the
four reference cases.  Every sample round runs each checkout once per
measurement, in an order that alternates between rounds, so that a
change in the machine's speed falls on every checkout alike.  The
result is the median and quartiles per measurement and checkout, in
seconds, printed and optionally written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CASES = [(2.0, 0.5, 1), (2.0, 0.5, 3), (1.5, 0.5, 2), (1.2, 0.3, 1)]
MODES = ["solve", "classify", "verify", "asymptotics"]
#: classify needs an exponent; this one lies below beta* of every case
CLASSIFY_BETA = 0.1


def measurements(tmp: Path):
    """(name, argv) of every timed child."""
    yield "import eternalprofile.cli", ["-c", "import eternalprofile.cli"]
    for mode in MODES:
        for m, q, N in CASES:
            cfg = tmp / f"{mode}-{m}-{q}-{N}.cfg"
            extra = f"beta = {CLASSIFY_BETA}\n" if mode == "classify" else ""
            cfg.write_text(f"m = {m}\nq = {q}\nN = {N}\n{extra}")
            yield (f"{mode} ({m:g}, {q:g}, {N})",
                   ["-m", "eternalprofile.cli", mode, "--config", str(cfg),
                    "--out", str(tmp / "out")])


def wall(argv, src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def summary(samples):
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "n": len(samples)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="NAME=CHECKOUT")
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = dict(arg.split("=", 1) for arg in args.checkouts)
    srcs = {name: Path(path).resolve() / "src" for name, path in trees.items()}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, child in measurements(Path(tmp)):
            samples = {tree: [] for tree in srcs}
            order = list(srcs)
            for _ in range(args.runs):
                for tree in order:
                    samples[tree].append(wall(child, srcs[tree]))
                order.reverse()
            results[name] = {tree: summary(s) for tree, s in samples.items()}
            print(name, "  ".join(f"{tree} {results[name][tree]['median']:.3f} s"
                                  for tree in srcs), flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
