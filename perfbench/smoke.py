"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. A tiny run (one operation) of every workload, untraced and traced,
   completes, passes its checks and yields every metric of
   BENCHMARK.json with its unit; the untraced run spawns its set-up
   probes, and every end-to-end value is finite.
2. The critical-line gate rejects a solve checked against a wrong oracle
   value, and accepts it against the right one.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run


def main() -> int:
    run.import_package()
    import eternalprofile
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        if w["why"] != workloads.WORKLOADS[w["name"]].why:
            failures.append(f"{w['name']}: BENCHMARK.json and workloads.py "
                            "give different rationales")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            result, _ = run.run_workload(w["name"], seed=0, seconds=1, trace=trace,
                                         max_ops=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{w['name']} trace={trace}: metrics {sorted(got)} "
                                f"differ from {sorted(want)}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"]:
                failures.append(f"{w['name']} trace={trace}: a check failed")
            if not trace:
                for k, v in result["metrics"].items():
                    if not (isinstance(v["value"], (int, float))
                            and math.isfinite(v["value"])):
                        failures.append(f"{w['name']}: {k} is {v['value']!r}")
            print(f"tiny run {w['name']} trace={trace}: "
                  f"{len(got)} metrics, correct={result['correct']}", flush=True)

    q, N = 0.6, 2
    exact = workloads.critical_exact(q, N)
    result = eternalprofile.solve(eternalprofile.make_params(2.0 - q, q, N))
    if not workloads.gate_solve(result, exact).ok:
        failures.append("the gate rejects a correct critical-line solve")
    wrong = dataclasses.replace(exact, beta=exact.beta * (1.0 + 1e-6))
    if workloads.gate_solve(result, wrong).ok:
        failures.append("the gate accepts a wrong oracle beta*")
    wrong = dataclasses.replace(exact, xi0=exact.xi0 * (1.0 + 1e-3))
    if workloads.gate_solve(result, wrong).ok:
        failures.append("the gate accepts a wrong oracle xi0")

    for f in failures:
        print("FAIL:", f)
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
