"""Run-to-run spread of the benchmark, as the acceptance rule measures it.

    python3 perfbench/spread.py --workloads cli discrete-exact --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workloads cli --seeds 7 --repeat-trace

For each workload, runs ``run.py`` once per seed (one at a time) and prints,
for every end-to-end metric, the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), against the
metric's bound from BENCHMARK.json.  ``--repeat-trace`` instead makes two
traced runs of each seed and reports every work counter that differs.
Results are appended to ``.perfbench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("count", "bytes")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--repeat-trace", action="store_true")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workloads:
        if args.repeat_trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for seed in args.seeds:
                a, b = (run(workload, seed, seconds, 1) for _ in range(2))
                differ = {n: (a["metrics"][n]["value"], b["metrics"][n]["value"])
                          for n in a["metrics"] if units[n] in COUNTS
                          and a["metrics"][n]["value"] != b["metrics"][n]["value"]}
                print(f"{workload} seed {seed}: counters that differ between two traced runs: "
                      f"{differ or 'none'}")
                with log.open("a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "repeat_trace": [a, b], "differ": differ}) + "\n")
            continue
        results = []
        for seed in args.seeds:
            res = run(workload, seed, seconds, 0)
            results.append(res)
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "result": res}) + "\n")
        print(f"{workload}: {len(results)} runs, correct {sum(r['correct'] for r in results)}, "
              f"failed checks {sum(r['failed'] for r in results)}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, rel = spread(vals) if len(vals) > 1 else (vals[0], 0.0)
            flag = "ok" if rel < m["bound"] / 3 else ("within bound" if rel <= m["bound"] else "OVER")
            print(f"  {m['name']:22s} median {med:14.6g} {m['unit']:8s} iqr/median {rel:7.3f}"
                  f"  bound {m['bound']:.2f}  {flag}")


if __name__ == "__main__":
    main()
