"""Tests of the benchmark itself: each reference against a brute-force
computation at small radius, each output check against real outputs of the
CLI (good and corrupted), and the traced launcher.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402


# -- references against brute force ---------------------------------------------

def _ball_graph(words, neighbours):
    """Ids, adjacency (as ``nbr`` rows padded with -1) and depth of a ball
    given as a dict word -> depth."""
    order = sorted(words, key=lambda w: (words[w], w))
    index = {w: i for i, w in enumerate(order)}
    adj = [[index[u] for u in neighbours(w) if u in index] for w in order]
    nbr = np.full((len(order), max(map(len, adj))), -1, dtype=np.int64)
    for i, row in enumerate(adj):
        nbr[i, :len(row)] = row
    depth = np.array([words[w] for w in order])
    return order, nbr, depth


def _f2_ball(radius):
    words = {w: len(w) for w in oracles.free_ball_words(2, radius)}
    return _ball_graph(
        words, lambda w: [oracles.free_reduce(l + w) for l in "aAbB"])


def _z3z_normal(word):
    rules = (("sS", ""), ("Ss", ""), ("tT", ""), ("Tt", ""), ("ss", "S"),
             ("SS", "s"))
    while True:
        new = word
        for a, b in rules:
            new = new.replace(a, b)
        if new == word:
            return word
        word = new


def _z3z_ball(radius):
    """Breadth-first search of the Cayley graph of <s, t | s^3> on strings."""
    words = {"": 0}
    frontier = [""]
    for d in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for l in "sStT":
                u = _z3z_normal(l + w)
                if u not in words:
                    words[u] = d
                    nxt.append(u)
        frontier = nxt
    return _ball_graph(words, lambda w: [_z3z_normal(l + w) for l in "sStT"])


@pytest.mark.parametrize("radius", range(6))
def test_ball_sizes_match_enumeration(radius):
    assert reference.free_ball_size(2, radius) == len(
        oracles.free_ball_words(2, radius))
    assert reference.z3z_ball_size(radius) == len(_z3z_ball(radius)[0])


@pytest.mark.parametrize("assignment",
                         reference.nonconstant_assignments("aAbB"))
def test_branch_field_matches_dense_dirichlet(assignment):
    radius = 4
    words, nbr, depth = _f2_ball(radius)
    t = SimpleNamespace(n=len(words), nbr=nbr, interior_mask=depth < radius)
    boundary = np.array([assignment[w[-1]] if len(w) == radius else 0.0
                         for w in words], dtype=float)
    exact = oracles.dense_dirichlet(t, boundary)
    levels, energy = reference.f2_levels(assignment, radius)
    branch = [reference.FREE_LETTERS.index(w[-1]) if w else 0 for w in words]
    np.testing.assert_allclose(levels[branch, depth], exact, atol=1e-12)
    assert energy == pytest.approx(oracles.dirichlet_energy(t, exact),
                                   rel=1e-12)


def _flood_class(adj, depth, radius, x, value_of):
    """Neck class at x by plain flood fill, in the package's precedence."""
    verdicts = []
    for comp in oracles.flood_components(adj, [x]):
        shell = [v for v in comp if depth[v] == radius]
        if shell:
            seen = {value_of[v] for v in shell}
            verdicts.append(seen.pop() if len(seen) == 1 else None)
    if verdicts.count(None) >= 2:
        return "special_type_2"
    if 0 in verdicts and 1 in verdicts:
        return "special_type_1"
    return f"regular_{0 if 0 in verdicts else 1}"


@pytest.mark.parametrize("assignment",
                         reference.nonconstant_assignments("stT"))
def test_z3z_neck_classes_match_flood_survey(assignment):
    radius, R = 6, 1
    words, nbr, depth = _z3z_ball(radius)
    adj = {v: [int(w) for w in row if w >= 0] for v, row in enumerate(nbr)}
    value_of = [assignment[reference.z3z_end_class(w)] if w else None
                for w in words]
    window = radius - R - 2 * R
    for v, w in enumerate(words):
        if depth[v] <= window:
            assert (_flood_class(adj, depth, radius, v, value_of)
                    == reference.z3z_neck_class(w or "e", assignment))


def test_wall_domain_is_the_smaller_ball():
    radius, sample_radius = 5, 2
    ball = oracles.free_ball_words(2, radius)
    sample = oracles.free_ball_words(2, sample_radius)
    domain = [v for v in ball
              if all(oracles.free_reduce(v + g) in ball for g in sample)]
    assert len(sample) == reference.free_ball_size(2, sample_radius)
    assert len(domain) == reference.free_ball_size(2, radius - sample_radius)


# -- output checks against real outputs ---------------------------------------------

SMALL = {
    "solve-f2": {"truncation_radius": 6},
    "tree-f2": {"truncation_radius": 7},
    "necks-z3z": {"truncation_radius": 6},
    "gap-f2": {"truncation_radius": 6},
}


def _cli(argv):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each workload's command at small radius:
    name -> (outdir, scenario, scenario file)."""
    base = tmp_path_factory.mktemp("out")
    done = {}
    for name, (command, make_scenario, _) in workloads.WORKLOADS.items():
        scn = dict(make_scenario(7), **SMALL[name])
        path = base / f"{name}.json"
        path.write_text(json.dumps(scn))
        proc = _cli(["-m", "ends_splitter.cli", command, "--scenario",
                     str(path), "--out", str(base)])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        done[name] = (base / scn["name"], scn, path)
    return done


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_real_outputs(outputs, name):
    outdir, scn, path = outputs[name]
    check = workloads.WORKLOADS[name][2]
    vertices = check(outdir, scn)
    assert vertices == json.loads(
        (outdir / "report.json").read_text())["truncation"]["vertices"]
    assert run.check_outputs(name, outdir, path) == (vertices, "")


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _move_a_value(outdir):
    path = outdir / "field.csv"
    path.write_text(re.sub(r"\na,[^\n]*", "\na,0.999", path.read_text()))


def _drop_a_wall(outdir):
    path = outdir / "tree.dot"
    lines = path.read_text().splitlines()
    del lines[-2]
    path.write_text("\n".join(lines) + "\n")


def _flip_a_neck(outdir):
    def flip(necks):
        word = next(w for w, c in necks["classes"].items() if w != "e")
        theta = necks["classes"][word][-1]
        necks["classes"][word] = f"regular_{1 - int(theta)}"

    _edit_json(outdir / "necks.json", flip)
    _edit_json(outdir / "report.json", lambda d: flip(d["necks"]))


def _lower_an_energy(outdir):
    _edit_json(outdir / "report.json",
               lambda d: d["gap"]["scenarios"][0].update(energy=0.4))


CORRUPTIONS = {"solve-f2": _move_a_value, "tree-f2": _drop_a_wall,
               "necks-z3z": _flip_a_neck, "gap-f2": _lower_an_energy}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_fail_on_corrupted_outputs(outputs, name, tmp_path):
    outdir, scn, path = outputs[name]
    copy = tmp_path / outdir.name
    copy.mkdir()
    for f in outdir.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    CORRUPTIONS[name](copy)
    with pytest.raises(workloads.CheckFailed):
        workloads.WORKLOADS[name][2](copy, scn)
    vertices, reason = run.check_outputs(name, copy, path)
    assert vertices is None and "CheckFailed" in reason


# -- the traced launcher and the benchmark's declared metrics -----------------------

def test_traced_command_reports_every_layer(outputs, tmp_path):
    _, _, path = outputs["tree-f2"]
    spans = tmp_path / "spans.json"
    proc = _cli([str(ROOT / "perfbench" / "tracer.py"), str(spans), "tree",
                 "--scenario", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(spans.read_text())
    metrics = tracer.layer_metrics(doc, 1)
    assert set(metrics) == set(tracer.UNITS)
    assert metrics["harmonic.solve_calls"] == 1
    assert metrics["harmonic.pullback_calls"] == 4 * 17
    assert metrics["harmonic.pullbacks_per_element"] == 4.0
    assert metrics["walls.action_on_tree_s"] > 0
    runners = [s for s in doc["spans"] if s["name"] == "cli.run_tree"]
    assert len(runners) == 1 and runners[0]["parent"] is None
    total = runners[0]["end"] - runners[0]["start"]
    assert sum(s["self_s"] for s in doc["spans"]) == pytest.approx(total)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
