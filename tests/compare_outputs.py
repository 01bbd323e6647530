"""Run one fixed list of CLI commands under two source trees and compare
what they leave behind.

    python tests/compare_outputs.py --base OLD/src --change NEW/src

Each run is one ``python -m ends_splitter.cli`` process per tree, with that
tree first on ``PYTHONPATH``.  The list is:

* each benchmark workload (``perfbench/workloads.py``) at seeds 1 to 3;
* ``solve``, ``necks``, ``tree`` and ``gap`` on every scenario under
  ``tests/data/`` and ``tests/data/golden/``.

Two runs agree when they exit with the same code, print the same status
line once the output root is replaced by ``<out>``, and leave the same
files with the same bytes, ``timings.json`` aside.  The script stops at
the first difference, names the run and the file, and exits 1; it exits 0
after the whole list.  ``--only TEXT`` keeps the runs whose name contains
TEXT.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SEEDS = (1, 2, 3)
SKIPPED = {"timings.json"}           # wall-clock times differ run to run


def runs(scratch):
    """``(name, command, scenario path)`` for every run of the list; the
    workload scenarios are written under ``scratch``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for workload, (command, scenario, _) in WORKLOADS.items():
        for seed in SEEDS:
            path = Path(scratch) / f"{workload}-seed{seed}.json"
            path.write_text(json.dumps(scenario(seed)))
            yield f"{command} {workload} seed {seed}", command, path
    for path in sorted([*DATA.glob("*.json"), *DATA.glob("golden/*.json")]):
        for command in ("solve", "necks", "tree", "gap"):
            yield f"{command} {path.relative_to(DATA)}", command, path


def run_once(src, command, scenario, out):
    """Exit code, status line with ``out`` replaced, and the bytes of every
    output file but the skipped ones, by path relative to ``out``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    env.pop("ENDS_SPLITTER_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ends_splitter.cli", command,
         "--scenario", str(scenario), "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    status = proc.stdout.replace(str(out), "<out>")
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(Path(out).rglob("*"))
             if p.is_file() and p.name not in SKIPPED}
    return proc.returncode, status, files


def difference(base, change):
    """What differs between two runs' results, or None."""
    (code_a, status_a, files_a), (code_b, status_b, files_b) = base, change
    if code_a != code_b:
        return f"exit code {code_a} against {code_b}"
    if status_a != status_b:
        return f"status line {status_a!r} against {status_b!r}"
    for name in sorted(set(files_a) | set(files_b)):
        if files_a.get(name) != files_b.get(name):
            return f"file {name}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent src/ tree")
    parser.add_argument("--change", required=True, help="changed src/ tree")
    parser.add_argument("--only", default="",
                        help="keep the runs whose name contains this text")
    args = parser.parse_args(argv)

    count = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, command, scenario in runs(scratch):
            if args.only not in name:
                continue
            with tempfile.TemporaryDirectory(dir=scratch) as out:
                results = [run_once(src, command, scenario, Path(out) / side)
                           for side, src in (("base", args.base),
                                             ("change", args.change))]
            diff = difference(*results)
            if diff is not None:
                print(f"DIFFERENT: {name}: {diff}")
                return 1
            count += 1
            print(f"same: {name} (exit {results[0][0]})", flush=True)
    print(f"no difference over {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
