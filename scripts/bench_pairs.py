#!/usr/bin/env python3
"""Alternated benchmark pairs of a parent commit and a change.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads discrete-exact cli \
        --pairs 10 --seed-base 7 --pr N

Extracts the parent ref (and ``--change``, if given; else the working tree
is measured) by ``git archive`` into a temporary directory and runs the
unchanged ``perfbench/run.py --trace 0`` on both, one run at a time, for
the ``run_seconds`` of ``BENCHMARK.json``.  Pair i
uses seed ``seed-base + i`` on both sides, parent first in even pairs and
the change first in odd ones, so a slow phase of the machine falls on both
sides alike.  Writes ``BENCH_<pr>.json`` at the root of the repository: per
workload and end-to-end metric of ``BENCHMARK.json``, the medians of both
sides, the parent's interquartile range, the count of pairs the change
wins, and each run's ``correct`` and ``pass_ratio``.  Then prints the table.

A metric's verdict: ``worse`` when the change's median is worse than the
parent's by more than the metric's bound; ``gain`` when the change wins at
least nine pairs in ten and its median is better by more than the parent's
interquartile range; ``flat`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9  # the share of pairs a gain must win


def extract(ref: str, dest: Path) -> str:
    """The tree of ``ref`` under ``dest``; returns the commit it names."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` in ``checkout``: the result object, with the
    machine record of its ``# run:`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# run: "):
            result["machine"] = json.loads(line[len("# run: "):]).get("machine")
    return result


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(runs, end_to_end) -> dict:
    """Per-metric summary of one workload's pairs.

    ``runs`` is a list of ``{"parent": result, "change": result}`` (result
    objects of ``run.py``); ``end_to_end`` the ``end_to_end`` list of
    ``BENCHMARK.json``."""
    out = {}
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        p_med, c_med, iqr = statistics.median(parent), statistics.median(change), _iqr(parent)
        gain = (c_med - p_med) if higher else (p_med - c_med)  # > 0: the change is better
        rel = gain / abs(p_med) if p_med else 0.0
        if -rel > m["bound"]:
            verdict = "worse"
        elif wins >= GAIN_SHARE * len(runs) and gain > iqr:
            verdict = "gain"
        else:
            verdict = "flat"
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent_median": p_med, "change_median": c_med,
                     "change_pct": 100.0 * (c_med - p_med) / abs(p_med) if p_med else 0.0,
                     "parent_iqr": iqr, "wins": wins, "pairs": len(runs), "verdict": verdict,
                     "parent": parent, "change": change}
    return out


def run_checks(runs) -> list:
    """Each run's ``correct`` and ``pass_ratio``, pair by pair."""
    return [{side: {"correct": r[side]["correct"],
                    "pass_ratio": r[side]["metrics"]["pass_ratio"]["value"]}
             for side in ("parent", "change")} | {"seed": r["seed"], "first": r["first"]}
            for r in runs]


def table(workloads: dict) -> str:
    """The verdict table, one row per workload and metric, in Markdown."""
    rows = ["| workload | metric | parent median | change median | change | parent IQR "
            "| wins | verdict |",
            "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for workload, entry in workloads.items():
        for name, s in entry["metrics"].items():
            rows.append(f"| `{workload}` | `{name}` | {s['parent_median']:.4g} "
                        f"| {s['change_median']:.4g} | {s['change_pct']:+.1f} % "
                        f"| {s['parent_iqr']:.3g} | {s['wins']}/{s['pairs']} | {s['verdict']} |")
    return "\n".join(rows)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--change", help="git ref of the change (default: the working tree)")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed-base", type=int, required=True)
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--workdir", help="where the trees are extracted (default: a temp dir)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]  # the run length the benchmark sets, on both sides

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        parent_dir = Path(tmp) / "parent"
        parent_commit = extract(args.parent, parent_dir)
        if args.change:
            change_dir = Path(tmp) / "change"
            change = extract(args.change, change_dir)
        else:
            change_dir, change = ROOT, "working tree"
        result = {"pr": args.pr, "parent": parent_commit, "change": change,
                  "seconds": seconds, "seed_base": args.seed_base, "pairs": args.pairs,
                  "machine": None, "workloads": {}}
        for workload in args.workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(parent_dir if side == "parent" else change_dir,
                                          workload, seed, seconds)
                    print(f"{workload} pair {i} {side}: correct {pair[side]['correct']}",
                          file=sys.stderr, flush=True)
                result["machine"] = result["machine"] or pair["change"].get("machine")
                runs.append(pair)
            result["workloads"][workload] = {"runs": run_checks(runs),
                                             "metrics": summarise(runs, spec["end_to_end"])}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(table(result["workloads"]))
    print(f"written: {out.name}")


if __name__ == "__main__":
    main()
