"""The benchmark's workloads: one scenario per run, drawn from the seed, and
the checks that every command's output must pass.

Each check compares the output with ``reference.py`` or with properties the
method must have, and raises ``CheckFailed`` on the first mismatch.  A
passing check returns the truncation's vertex count from ``report.json``.

    python3 perfbench/workloads.py WORKLOAD OUTDIR SCENARIO.json

checks one command's outputs and prints that count; it exits 1 on a failed
check.
"""

import json
import random
import re
import sys
from pathlib import Path

import numpy as np

import reference

# Gauss-Seidel stops on a mean-value defect of 1e-9; the field it returns
# sits within a few 1e-9 of the exact one.  These bounds leave room for any
# solver meeting that tolerance and still catch a wrong field.
FIELD_TOL = 1e-6
ENERGY_RTOL = 1e-6

F2 = {"kind": "free", "rank": 2}
Z3Z = {"kind": "free_product_cyclic", "orders": [3, 0]}
Z3Z_CLASSES = ("s", "t", "T")


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(got, want, rtol, what):
    _expect(abs(got - want) <= rtol * abs(want),
            f"{what}: got {got!r}, reference {want!r}")


def _scenario(name, group, radius, chi, **extra):
    cfg = {"schema": 1, "name": name, "group": group,
           "truncation_radius": radius, "base_radius": 1, "neck_R": 1,
           "net_delta": 2, "chi": chi}
    cfg.update(extra)
    return cfg


def _load(outdir, name):
    with open(Path(outdir) / name) as fh:
        return json.load(fh)


def _check_report(report, command, vertices):
    _expect(report["command"] == command,
            f"report.json names command {report['command']!r}")
    _expect(report["truncation"]["vertices"] == vertices,
            f"{report['truncation']['vertices']} vertices, reference "
            f"{vertices}")
    return vertices


def _check_solve_block(block, assignment, radius):
    levels, energy = reference.f2_levels(assignment, radius)
    _close(block["energy"], energy, ENERGY_RTOL, "energy")
    _expect(abs(block["h_identity"] - levels[0, 0]) <= FIELD_TOL,
            f"h_identity {block['h_identity']!r}, reference {levels[0, 0]!r}")
    _expect(0.0 <= block["min_interior"] <= block["max_interior"] <= 1.0,
            "interior values leave [0, 1]")
    return levels


# -- solve-f2 ------------------------------------------------------------------

SOLVE_RADIUS = 12


def solve_scenario(seed):
    rng = random.Random(seed)
    assignment = rng.choice(
        reference.nonconstant_assignments(reference.FREE_LETTERS))
    return _scenario("solve-f2", F2, SOLVE_RADIUS, {"map": assignment},
                     seed=seed)


def check_field_csv(path, levels, radius):
    """Every row of an F2 ``field.csv`` against the branch/depth levels.

    The rows must be exactly the reduced words of the ball, once each, and
    a word's branch at the identity is its last letter.
    """
    header, _, body = Path(path).read_text().partition("\n")
    _expect(header == "word,value", f"field.csv header {header!r}")
    cells = body.replace("\n", ",").split(",")[:-1]
    words, values = cells[0::2], cells[1::2]
    _expect(len(words) == len(values) == reference.free_ball_size(2, radius),
            f"field.csv has {len(words)} words and {len(values)} values")
    _expect(words[0] == "e", "field.csv does not start at the identity")
    _expect(len(set(words)) == len(words), "field.csv repeats a word")
    # branch = last letter, depth = length; every other word is reduced
    joined = np.frombuffer(",".join(words[1:]).encode(), dtype=np.uint8)
    allowed = np.zeros(256, dtype=bool)
    allowed[np.frombuffer(b"aAbB,", dtype=np.uint8)] = True
    _expect(allowed[joined].all(), "field.csv has a letter outside a, A, b, B")
    _expect(not any(pair in body for pair in ("aA", "Aa", "bB", "Bb")),
            "field.csv has an unreduced word")
    depth = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    depth[0] = 0
    _expect(depth.max() <= radius, "field.csv has a word beyond the radius")
    letter_index = np.zeros(256, dtype=np.int64)
    for i, letter in enumerate(reference.FREE_LETTERS.encode()):
        letter_index[letter] = i
    last = np.cumsum(depth[1:] + 1) - 2
    branch = np.concatenate([[0], letter_index[joined[last]]])
    got = np.asarray(values, dtype=np.float64)
    _expect(((got >= 0.0) & (got <= 1.0)).all(), "field value outside [0, 1]")
    worst = float(np.abs(got - levels[branch, depth]).max())
    _expect(worst <= FIELD_TOL,
            f"field.csv deviates from the reference by {worst:.3e}")


def check_solve(outdir, scn):
    report = _load(outdir, "report.json")
    radius = scn["truncation_radius"]
    assignment = scn["chi"]["map"]
    _expect(report["chi"]["assignments"] == assignment,
            f"chi {report['chi']['assignments']} is not {assignment}")
    levels = _check_solve_block(report["solve"], assignment, radius)
    check_field_csv(Path(outdir) / "field.csv", levels, radius)
    return _check_report(report, "solve", reference.free_ball_size(2, radius))


# -- tree-f2 -------------------------------------------------------------------

TREE_RADIUS = 12
TREE_SAMPLE_RADIUS = 2


def tree_scenario(seed):
    letter = random.Random(seed).choice(reference.FREE_LETTERS)
    return _scenario("tree-f2", F2, TREE_RADIUS,
                     {"map": {letter: 1}, "default": 0},
                     wall={"sample_radius": TREE_SAMPLE_RADIUS}, seed=seed)


def parse_dot(text):
    """Nodes with their labels and the edges of a DOT graph as written by
    the package."""
    nodes = dict(re.findall(r'^\s*(\w+) \[shape=\w+, label="([^"]*)"\];$',
                            text, re.M))
    edges = re.findall(r"^\s*(\w+) -- (\w+)", text, re.M)
    return nodes, edges


def _is_tree(nodes, edges):
    if len(edges) != len(nodes) - 1 or not set(sum(edges, ())) <= set(nodes):
        return False
    root = {v: v for v in nodes}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return True


def check_tree(outdir, scn):
    report = _load(outdir, "report.json")
    radius = scn["truncation_radius"]
    sample_radius = scn["wall"]["sample_radius"]
    assignment = {l: 0 for l in reference.FREE_LETTERS}
    assignment.update(scn["chi"]["map"])
    _check_solve_block(report["solve"], assignment, radius)
    walls = reference.free_ball_size(2, sample_radius)
    tree = report["tree"]
    _expect(tree["walls"] == walls, f"{tree['walls']} walls, reference {walls}")
    _expect(tree["inversions"] == 0, f"{tree['inversions']} inversions")

    nodes, edges = parse_dot((Path(outdir) / "tree.dot").read_text())
    _expect(len(nodes) == tree["regions"] and len(edges) == walls,
            f"tree.dot has {len(nodes)} nodes and {len(edges)} edges")
    _expect(_is_tree(nodes, edges), "tree.dot is not a tree")
    sizes = [int(re.search(r"\((\d+)\)", label).group(1))
             for label in nodes.values()]
    domain = reference.free_ball_size(2, radius - sample_radius)
    _expect(sum(sizes) == domain,
            f"regions cover {sum(sizes)} vertices, reference {domain}")
    action = _load(outdir, "action.json")
    _expect(action["inversions"] == [], "action.json lists inversions")
    return _check_report(report, "tree", reference.free_ball_size(2, radius))


# -- necks-z3z -----------------------------------------------------------------

NECKS_RADIUS = 10


def necks_scenario(seed):
    rng = random.Random(seed)
    assignment = rng.choice(reference.nonconstant_assignments(Z3Z_CLASSES))
    return _scenario("necks-z3z", Z3Z, NECKS_RADIUS, {"map": assignment},
                     seed=seed)


def check_necks(outdir, scn):
    report = _load(outdir, "report.json")
    necks = report["necks"]
    _expect(_load(outdir, "necks.json") == necks,
            "necks.json differs from the report's neck block")
    _expect(necks["K"] == ["e"] and necks["K_I"] == ["e"]
            and necks["K_II"] == [],
            f"K={necks['K']} K_I={necks['K_I']} K_II={necks['K_II']}")
    assignment = scn["chi"]["map"]
    _expect(necks["classes"], "no neck was classified")
    for word, label in necks["classes"].items():
        want = reference.z3z_neck_class(word, assignment)
        _expect(label == want, f"neck at {word} is {label}, reference {want}")
    ends_at_e = len(Z3Z_CLASSES)
    _expect(report["dual"] == {"nodes": 1 + ends_at_e, "edges": ends_at_e,
                               "is_tree": True},
            f"dual graph {report['dual']}")
    nodes, edges = parse_dot((Path(outdir) / "dual.dot").read_text())
    _expect(len(nodes) == 1 + ends_at_e and _is_tree(nodes, edges),
            "dual.dot is not the star of K at its end classes")
    return _check_report(report, "necks",
                         reference.z3z_ball_size(scn["truncation_radius"]))


# -- gap-f2 --------------------------------------------------------------------

GAP_RADIUS = 10


def gap_scenario(seed):
    return _scenario("gap-f2", F2, GAP_RADIUS, "all", seed=seed)


def check_gap(outdir, scn):
    report = _load(outdir, "report.json")
    gap = report["gap"]
    rows = gap["scenarios"]
    want = reference.nonconstant_assignments(reference.FREE_LETTERS)
    got = [row["chi"] for row in rows]
    _expect(len(got) == len(want) and all(c in got for c in want),
            f"{len(got)} gap rows, reference {len(want)} assignments")
    radius = scn["truncation_radius"]
    for row in rows:
        _, energy = reference.f2_levels(row["chi"], radius)
        _close(row["energy"], energy, ENERGY_RTOL, f"energy of {row['chi']}")
        _expect(0.0 < row["mu"] <= row["energy"],
                f"mu {row['mu']} outside (0, energy] for {row['chi']}")
    _expect(gap["certified_mu"] == max(r["mu"] for r in rows)
            and gap["min_observed_energy"] == min(r["energy"] for r in rows)
            and gap["certified_mu"] <= gap["min_observed_energy"],
            "gap bracket does not match its rows")
    return _check_report(report, "gap", reference.free_ball_size(2, radius))


WORKLOADS = {
    "solve-f2": ("solve", solve_scenario, check_solve),
    "tree-f2": ("tree", tree_scenario, check_tree),
    "necks-z3z": ("necks", necks_scenario, check_necks),
    "gap-f2": ("gap", gap_scenario, check_gap),
}


def main(argv):
    workload, outdir, scenario_path = argv
    scn = json.loads(Path(scenario_path).read_text())
    print(WORKLOADS[workload][2](Path(outdir), scn))


if __name__ == "__main__":
    main(sys.argv[1:])
