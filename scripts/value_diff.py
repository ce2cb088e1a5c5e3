#!/usr/bin/env python3
"""The values that move between a git revision and the working tree.

    python3 scripts/value_diff.py REV

Extracts REV by ``git archive`` (``bench_pairs.extract``) into a temporary
directory and runs ``scripts/dump_values.py`` in both trees, each on its own
``src``.  Prints, per law and field (alpha, beta, support, density, cdf,
moments), ``identical`` or how many of its floats moved and the largest
absolute and relative move, and per law whether the hashes of its draws
match.  A law in one dump only is named as such.  Exits 0 when both dumps
ran, whatever moved.
"""

from __future__ import annotations

import importlib.util
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _extract():
    """``bench_pairs.extract``, loaded from its file beside this one."""
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.extract


def dump(tree: Path) -> dict:
    """The dump of ``tree``: law name -> {field: text}, in the dump's order."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "scripts/dump_values.py"], cwd=tree, env=env,
                         check=True, capture_output=True, text=True).stdout
    laws = {}
    for line in out.splitlines():
        name, *fields = line.split(" ")
        laws[name] = dict(f.split("=", 1) for f in fields)
    return laws


def _floats(text: str) -> list:
    return [None if v == "None" else float(v) for v in text.split(",")]


def compare(old: str, new: str) -> str:
    """``identical``, or the moves of the floats from ``old`` to ``new``."""
    if old == new:
        return "identical"
    a, b = _floats(old), _floats(new)
    if len(a) != len(b) or any((x is None) != (y is None) for x, y in zip(a, b)):
        return f"changed shape: {len(a)} -> {len(b)} values"
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and x != y]
    moves = [abs(y - x) for x, y in pairs]
    rel = [abs(y - x) / abs(x) for x, y in pairs if x != 0.0]
    worst_rel = f"{max(rel):.3g}" if rel else "n/a (moved from 0)"
    finite = all(math.isfinite(m) for m in moves)
    return (f"{len(pairs)} of {len(a)} moved, max abs {max(moves):.3g}, max rel {worst_rel}"
            + ("" if finite else " (a value turned non-finite)"))


def report(old: dict, new: dict) -> list:
    """The report's lines, law by law in the new dump's order."""
    lines = []
    for name in list(new) + [n for n in old if n not in new]:
        if name not in old or name not in new:
            lines.append(f"{name}: only in the {'new' if name in new else 'old'} dump")
            continue
        for field, text in new[name].items():
            if field == "draws":
                match = "match" if text == old[name].get(field) else "differ"
                lines.append(f"{name} draws: hashes {match}")
            elif field not in old[name]:
                lines.append(f"{name} {field}: only in the new dump")
            else:
                lines.append(f"{name} {field}: {compare(old[name][field], text)}")
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "old"
        commit = _extract()(args[0], tree)
        old = dump(tree)
    print(f"# {commit} -> working tree")
    print("\n".join(report(old, dump(ROOT))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
