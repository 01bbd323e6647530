"""End-to-end benchmark of the ends-splitter CLI.

Run from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload solve-f2 --seed 1 --seconds 20 --trace 0

The scenario comes from ``--seed`` (see ``workloads.py``).  First a fresh
interpreter imports the package and loads the scenario, several times, for
``setup_s``.  Then one driver process starts one CLI process at a time, a
closed loop with a single client, until ``--seconds`` have passed.  Each
command is timed from outside, from spawn to exit, with its CPU time and
peak RSS taken from the child's rusage, and its outputs are checked against
references computed apart from the program.

``--trace 1`` alternates plain commands with commands run under
``tracer.py`` and reports the per-layer metrics of the traced ones together
with the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_CODE = """\
import sys
import ends_splitter
from ends_splitter.cli import load_scenario
load_scenario(sys.argv[1])
print(ends_splitter.__file__)
"""
END_TO_END_UNITS = {"setup_s": "s", "command_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "vertices_per_s": "vertices/s"}
PER_LAYER_UNITS = {**tracer.UNITS, "trace.overhead_s": "s"}


def run_child(argv, log_path):
    """Run one process to its end; its stdout and stderr go to log_path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ENDS_SPLITTER_OUT", None)
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def measure_setup(scenario_path, log_path):
    """Median wall time of a fresh interpreter importing the package and
    loading the scenario."""
    times = []
    for _ in range(SETUP_REPEATS):
        rec = run_child([sys.executable, "-c", SETUP_CODE, str(scenario_path)],
                        log_path)
        lines = log_path.read_text().splitlines()
        if rec["code"] != 0 or not lines or SRC not in Path(lines[-1]).parents:
            raise RuntimeError("set-up did not import the package from "
                               f"{SRC}:\n{log_path.read_text()}")
        times.append(rec["wall_s"])
    return statistics.median(times)


def check_outputs(workload, outdir, scenario_path):
    """Vertex count of a command whose outputs pass the workload's checks,
    else None and the reason.

    The checks run in a process of their own.  On Linux a child's
    ``ru_maxrss`` starts from its parent's high-water mark, so this driver
    must not grow: parsing ``field.csv`` here would raise the peak RSS
    reported for every later command.
    """
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"),
                           workload, str(outdir), str(scenario_path)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None, proc.stdout + proc.stderr
    return int(proc.stdout.splitlines()[-1]), ""


def output_bytes(outdir):
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


def run_commands(workload, scn, scenario_path, workdir, seconds, trace):
    """Closed loop of CLI commands; returns the records of the commands
    that passed, by mode, and the counts attempted, failed and wrong."""
    command = WORKLOADS[workload][0]
    modes = ("plain", "traced") if trace else ("plain",)
    out = workdir / "out"
    outdir = out / scn["name"]
    spans_path = workdir / "spans.json"
    log_path = workdir / "command.log"
    cli_args = [command, "--scenario", str(scenario_path), "--out", str(out)]
    launch = {"plain": [sys.executable, "-m", "ends_splitter.cli"],
              "traced": [sys.executable, str(HERE / "tracer.py"),
                         str(spans_path)]}

    records = {mode: [] for mode in modes}
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for mode in modes:
            shutil.rmtree(out, ignore_errors=True)
            rec = run_child(launch[mode] + cli_args, log_path)
            attempted += 1
            if rec["code"] != 0:
                failed += 1
                print(f"{workload}: {command} exited {rec['code']}:\n"
                      f"{log_path.read_text()}", file=sys.stderr)
                continue
            rec["vertices"], reason = check_outputs(workload, outdir,
                                                    scenario_path)
            if rec["vertices"] is None:
                failed += 1
                wrong += 1
                print(f"{workload}: output check failed:\n{reason}",
                      file=sys.stderr)
                continue
            if mode == "traced":
                doc = json.loads(spans_path.read_text())
                rec["layers"] = tracer.layer_metrics(doc, output_bytes(outdir))
            records[mode].append(rec)
    return records, attempted, failed, wrong


def end_to_end(records, setup_s):
    return {
        "setup_s": setup_s,
        "command_s": statistics.median(r["wall_s"] for r in records),
        "cpu_s": statistics.median(r["cpu_s"] for r in records),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
        "vertices_per_s": (sum(r["vertices"] for r in records)
                           / sum(r["wall_s"] for r in records)),
    }


def per_layer(plain, traced):
    out = {metric: statistics.median(r["layers"][metric] for r in traced)
           for metric in tracer.UNITS}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def bench(workload, seed, seconds, trace):
    _, make_scenario, _ = WORKLOADS[workload]
    scn = make_scenario(seed)
    workdir = RUNS / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        scenario_path = workdir / f"{scn['name']}.json"
        scenario_path.write_text(json.dumps(scn, indent=1) + "\n")
        setup_s = None if trace else measure_setup(scenario_path,
                                                   workdir / "setup.log")
        records, attempted, failed, wrong = run_commands(
            workload, scn, scenario_path, workdir, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:             # another run still uses it
            pass
    if not all(records.values()):
        raise RuntimeError(f"no {workload} command passed its checks")
    if trace:
        values = per_layer(records["plain"], records["traced"])
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(records["plain"], setup_s)
        units = END_TO_END_UNITS
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ends_splitter" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
