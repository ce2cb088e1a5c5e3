"""biasforge benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from the
checkout's ``src``.  One caller, one process, no threads (closed loop); the
``cli`` workload runs one child interpreter at a time.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines before
it describe the machine, the interpreter and every failed check; the same
record, and with ``--trace 1`` every span, is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_SAMPLES = 3
MAX_SOLVE_S = 120.0   # after two passes, start no more past this, so a run ends in time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine():
    info = {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    info["caches"] = caches
    import numpy
    import scipy
    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    return info


def quantile_tail(values):
    """Median, and the highest order statistic with at least ten samples
    above it (the maximum when there are fewer than eleven)."""
    xs = sorted(values)
    n = len(xs)
    rank = n - 11 if n >= 11 else n - 1
    return statistics.median(xs), xs[rank], (rank + 1) / n, n


def rate(ops, kind, secs):
    chosen = [o for o in ops if o.kind == kind]
    seconds = sum(secs(o) for o in chosen)
    return (sum(o.units for o in chosen) / seconds) if seconds > 0 else 0.0


def end_to_end(wl_name, ops, rec, secs, setup_s, pass_s):
    """The end-to-end metrics; ``secs`` maps an operation to its seconds."""
    p50, tail, tail_q, n_ops = quantile_tail([secs(o) for o in ops])
    by_label = {}
    for o in ops:
        if o.kind == "density":
            by_label.setdefault(o.label, []).append(secs(o))
    density = [statistics.median(v) for v in by_label.values()]
    who = resource.RUSAGE_CHILDREN if wl_name == "cli" else resource.RUSAGE_SELF
    attempted = len(rec.checks)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (statistics.median(pass_s), "s"),
        "first_density_p50_s": (statistics.median(density) if density else 0.0, "s"),
        "density_pts_per_s": (rate(ops, "density", secs), "1/s"),
        "exact_checks_per_s": (rate(ops, "exact", secs), "1/s"),
        "draws_per_s": (rate(ops, "draws", secs), "1/s"),
        "mc_checks_per_s": (rate(ops, "mc", secs), "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "pass_ratio": ((attempted - len(rec.failed)) / attempted if attempted else 0.0,
                       "fraction"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"op_tail_quantile": tail_q, "op_samples": n_ops}


def per_layer(names, tracer, rec, import_s, overhead, output_bytes):
    summary = tracer.summary()
    special = {
        "worst_tol_use": (max((c.use for c in rec.checks), default=0.0), "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.output_bytes": (float(output_bytes), "bytes"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    out = {}
    for name, unit in names:
        if name in special:
            out[name] = special[name]
        elif name in summary["counters"] or name.endswith((".points", ".draws", ".failures")):
            out[name] = (float(summary["counters"].get(name, 0)), unit)
        elif name.endswith(".calls"):
            out[name] = (float(summary["calls"].get(name[:-len(".calls")], 0)), unit)
        elif name.endswith(".self_s"):
            out[name] = (summary["self_s"].get(name[:-len(".self_s")], 0.0), unit)
        else:
            raise KeyError(f"BENCHMARK.json names per-layer metric {name!r} the runner "
                           "does not produce")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "biasforge" / "__init__.py").is_file():
        print(f"error: no biasforge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import biasforge
    if not os.path.realpath(biasforge.__file__).startswith(os.path.realpath(SRC)):
        print(f"error: biasforge imported from {biasforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from probe import SpeedProbe
    from recorder import Recorder
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    passes = workloads.passes_for(args.workload, args.seconds)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        wl = cls(args.seed, passes, src=SRC, in_process=bool(args.trace))
        if args.trace:
            import biasforge.cli  # noqa: F401  (so the tracer finds cli.run)
    else:
        wl = cls(args.seed, passes)

    # With --trace 0 times are read in reference-machine seconds (see
    # probe.py): on this shared machine the same work takes 15-40 % longer at
    # some moments than at others.  In-process work is rescaled by the probes
    # within a second of it; the cli workload's children, which a single
    # nearby probe tracks poorly, by the median probe of the whole run.
    tracer = Tracer() if args.trace else None
    speed = None
    if tracer is None:
        speed = SpeedProbe(math.inf if cls is workloads.Cli else 1.0)
    imports = []
    for _ in range(IMPORT_SAMPLES):
        if speed is not None:
            speed.sample()
        start = time.perf_counter()
        seconds = workloads.child_import_seconds(SRC)
        imports.append((seconds, start, time.perf_counter()))
    if speed is not None:
        speed.sample()
    import_raw = statistics.median(s for s, _, _ in imports)

    patched = None
    if tracer is not None:
        tracer.install()
        tracer.active = True
        patched = tracer.patched_names()
    rec = Recorder(tracer, speed)

    def window(fn):
        """Run fn; return (start, end, index of its first op, index past its last)."""
        if speed is not None:
            speed.sample()
        first = len(rec.ops)
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        if speed is not None:
            speed.sample()
        return start, end, first, len(rec.ops)

    rounds = []
    for _ in range(wl.rounds):
        if tracer is not None:
            with tracer.span("setup"):
                rounds.append(window(lambda: wl.setup(rec)))
        else:
            rounds.append(window(lambda: wl.setup(rec)))

    passes_run, traced_flags = [], []
    solve_start = time.perf_counter()
    for i in range(passes):
        if i >= 2 and time.perf_counter() - solve_start > MAX_SOLVE_S:
            break
        traced = tracer is not None and i % 2 == 1
        if tracer is not None:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            tracer.active = traced
        passes_run.append(window(lambda: wl.run_pass(rec, i)))
        traced_flags.append(traced)
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()

    def raw(w):
        return w[1] - w[0] - (speed.spent_between(w[0], w[1]) if speed is not None else 0.0)

    pass_raw = [raw(w) for w in passes_run]
    rounds_raw = [raw(w) for w in rounds]
    timed = rec.ops[passes_run[0][2]:] if passes_run else []
    failed = rec.failed
    result_extra = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes_run), "pass_raw_s": pass_raw,
        "setup_rounds_raw_s": rounds_raw, "import_raw_s": [s for s, _, _ in imports],
        "interpreter": sys.executable, "child_pythonpath": str(SRC),
        "machine": machine(), "failed_checks": failed, "errors": rec.errors,
    }
    if tracer is None:
        setup_raw = import_raw + (statistics.median(rounds_raw) if rounds_raw else 0.0)
        setup_ref, pass_ref, rounds_ref = setup_raw, pass_raw, rounds_raw
        if speed is not None:
            speed.set_factors(rec.ops)
            import_ref = statistics.median(s * speed.factor(a, b) for s, a, b in imports)
            pass_ref = [speed.normalize(rec.ops[w[2]:w[3]], w[0], w[1]) for w in passes_run]
            rounds_ref = [speed.normalize(rec.ops[w[2]:w[3]], w[0], w[1]) for w in rounds]
            setup_ref = import_ref + (statistics.median(rounds_ref) if rounds_ref else 0.0)
            raw_metrics, _ = end_to_end(args.workload, timed, rec, lambda o: o.seconds,
                                        setup_raw, pass_raw)
            result_extra["raw_metrics"] = {n: v for n, (v, _) in raw_metrics.items()}
        metrics, extra = end_to_end(args.workload, timed, rec, lambda o: o.seconds * o.factor,
                                    setup_ref, pass_ref)
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        result_extra.update(extra, pass_s=pass_ref, setup_rounds_s=rounds_ref)
    else:
        traced_s = [t for t, f in zip(pass_raw, traced_flags) if f]
        plain_s = [t for t, f in zip(pass_raw, traced_flags) if not f]
        overhead = statistics.median(traced_s) / statistics.median(plain_s)
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = per_layer(names, tracer, rec, import_raw, overhead,
                            getattr(wl, "output_bytes", 0))
        summary = tracer.summary()
        result_extra["counters"] = {**summary["counters"],
                                    **{f"{k}.calls": v for k, v in summary["calls"].items()}}
        result_extra["patched"] = patched
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    for name, unit in names:
        if metrics[name][1] != unit:
            raise ValueError(f"{name}: unit {metrics[name][1]!r}, BENCHMARK.json says {unit!r}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv.gz")
    record = {**result_extra, "metrics": {n: v for n, (v, _) in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    info = {k: result_extra[k] for k in ("workload", "seed", "passes", "interpreter",
                                         "child_pythonpath", "machine")}
    print("# run: " + json.dumps(info))
    for name in failed:
        print(f"# failed check: {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rec.checks),
        "failed": len(failed),
        "metrics": {n: {"value": float(metrics[n][0]), "unit": metrics[n][1]} for n, _ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
