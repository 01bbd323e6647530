"""Acceptance suite: every release criterion at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line so the run reads as a
checklist (use ``pytest tests/test_acceptance.py -v -s``).  The heavier
fixtures (radius 12 and 14 balls of the rank-2 free group) are shared or
scoped to keep the suite inside a few minutes.
"""

import functools
import json
import time

import numpy as np
import pytest

from ends_splitter.ends import all_nonconstant_end_functions, make_end_function
from ends_splitter.groups import (
    Presentation,
    build_net,
    build_truncation,
    group_ball,
    path_truncation,
)
from ends_splitter.harmonic import (
    HarmonicField,
    PartialField,
    decay_profile,
    energy,
    energy_form,
    field_difference,
    lattice_ops,
    pullback,
    solve_dirichlet,
    spectral_gap,
)
from ends_splitter.necks import (
    PartitionParams,
    TraceMasks,
    classify_neck,
    dual_graph,
    find_necks,
    gap_certificate,
    partition_K,
    special_sets,
)
from ends_splitter.walls import (
    action_on_tree,
    assert_noncrossing,
    build_wall_tree,
    build_walls,
    choose_threshold,
    sample_images,
    trichotomy,
)

import oracles
from test_necks import row_of


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n:2d} FAIL  {label}")
                raise
            print(f"ACCEPTANCE {n:2d} PASS  {label}")
        return wrapped
    return deco


@pytest.fixture(scope="module")
def f2():
    return Presentation.free(2)


@pytest.fixture(scope="module")
def r12(f2):
    t0 = time.monotonic()
    t = build_truncation(f2, 12)
    chi = make_end_function(t, 1, rule="first_letter:a")
    h = solve_dirichlet(t, chi)
    elapsed = time.monotonic() - t0
    return t, chi, h, elapsed


@criterion(1, "maximum principle, mean value, and runtime at radius 12")
def test_criterion_1(r12):
    t, chi, h, elapsed = r12
    lo, hi = h.interior_range()
    assert 0.0 < lo and hi < 1.0
    assert h.residual <= 1e-9
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"


@criterion(2, "fourfold symmetry pins h(identity) to 1/4 at radii 8, 10, 12")
def test_criterion_2(f2, r12):
    for rho in (8, 10):
        t = build_truncation(f2, rho)
        chi = make_end_function(t, 1, rule="first_letter:a")
        h = solve_dirichlet(t, chi)
        assert abs(h.values[0] - 0.25) <= 1e-6
    t, chi, h, _ = r12
    assert abs(h.values[0] - 0.25) <= 1e-6


@criterion(3, "iterative solver matches the dense solve for all 14 boundary "
              "assignments at radius 8")
def test_criterion_3(f2):
    t = build_truncation(f2, 8)
    chis = all_nonconstant_end_functions(t, 1)
    assert len(chis) == 14

    # one dense factorization serves all assignments
    inter = t.interior_ids()
    pos = {int(v): i for i, v in enumerate(inter)}
    n = len(inter)
    a = np.zeros((n, n))
    for i, v in enumerate(inter):
        nb = t.nbr[v]
        nb = nb[nb >= 0]
        a[i, i] = len(nb)
        for w in nb:
            w = int(w)
            if w in pos:
                a[i, pos[w]] -= 1.0
    rhs = np.zeros((n, len(chis)))
    for j, chi in enumerate(chis):
        bvals = np.where(chi.shell_values(t) > 0, 1.0, 0.0)
        for i, v in enumerate(inter):
            nb = t.nbr[v]
            nb = nb[nb >= 0]
            for w in nb:
                w = int(w)
                if w not in pos:
                    rhs[i, j] += bvals[w]
    dense = np.linalg.solve(a, rhs)

    for j, chi in enumerate(chis):
        h = solve_dirichlet(t, chi)
        exact = np.where(chi.shell_values(t) > 0, 1.0, 0.0)
        exact[inter] = dense[:, j]
        assert np.abs(h.values - exact).max() <= 1e-6
        assert abs(energy(h).total
                   - oracles.dirichlet_energy(t, exact)) <= 1e-5


@criterion(4, "lattice energy inequality for 20 sampled group elements")
def test_criterion_4(f2):
    t = build_truncation(f2, 8)
    chi = make_end_function(t, 1, rule="first_letter:a")
    h = solve_dirichlet(t, chi)
    sample = group_ball(t, 3)
    rng = np.random.default_rng(2024)
    picks = rng.choice(len(sample), size=20, replace=False)
    equalities = 0
    for i in picks:
        g = sample[int(i)]
        k = pullback(h, g)
        gp, gm, cross = lattice_ops(h, k)
        lhs = energy(gp).total + energy(gm).total
        rhs = energy(PartialField(t, h.values, k.domain)).total \
            + energy(k).total
        assert lhs <= rhs + 1e-12
        if cross.edge_count() == 0:
            assert abs(lhs - rhs) <= 1e-12
            equalities += 1
    assert equalities > 0


@criterion(5, "parallelogram identity on 50 random field pairs")
def test_criterion_5(f2):
    t = build_truncation(f2, 4)
    rng = np.random.default_rng(55)

    def field(values):
        return HarmonicField(truncation=t, values=values, boundary_spec=None,
                             residual=0.0, iterations=0)

    for _ in range(50):
        u = field(rng.random(t.n))
        v = field(rng.random(t.n))
        lhs = energy(field_difference(u, v)).total
        rhs = energy(u).total + energy(v).total - 2 * energy_form(u, v)
        assert abs(lhs - rhs) <= 1e-12


@criterion(6, "50 separated partitions give trees; the {e, a^10} dual has "
              "9 nodes and 8 edges")
def test_criterion_6(f2, r12):
    t12, _, _, _ = r12
    a10 = 0
    for _ in range(10):
        a10 = int(t12.right_mult_table("a")[a10])
    part = partition_K(t12, [0, a10], PartitionParams(D=3, d=0))
    dual = dual_graph(t12, part.groups, 1, phi_bound=0)
    assert dual.n_nodes == 9
    assert dual.n_edges == 8
    assert dual.is_tree

    rng = np.random.default_rng(66)
    t8 = build_truncation(f2, 8)
    z10 = build_truncation(Presentation.free_product_of_cyclics([2, 3]), 10)
    trees = 0
    trials = 0
    for t, phi_bound in ((t8, 0), (z10, 1)):
        interior = np.flatnonzero(t.dist <= t.radius - 3)
        for _ in range(25):
            kcount = int(rng.integers(1, 4))
            anchors = []
            for v in rng.permutation(interior):
                v = int(v)
                if all(t.word_distance(v, u) > 4 + 2 * phi_bound
                       for u in anchors):
                    anchors.append(v)
                if len(anchors) == kcount:
                    break
            part = partition_K(t, anchors, PartitionParams(D=2, d=2))
            dual = dual_graph(t, part.groups, 1, phi_bound=phi_bound)
            trials += 1
            trees += int(dual.is_tree)
    assert trees == trials == 50


@criterion(7, "neck taxonomy at radius 12: K_I = {e}, far necks regular "
              "with matching theta")
def test_criterion_7(r12):
    t, chi, h, _ = r12
    net = build_net(t, 2)
    report = special_sets(t, find_necks(t, net, 1), chi)
    assert report.K_I == ["e"]
    assert report.K_II == []
    assert not report.warnings

    survey = report.survey
    masks = TraceMasks(t, chi)
    cls_of = oracles.class_of_vertex(t, chi)
    classified = [(x, classify_neck(survey, i, masks))
                  for i, x in enumerate(survey.centers.tolist())]
    theta_of = {}
    for x, c in classified:
        if t.dist[x] >= 3:
            assert c.kind == "regular", t.word(x)
            own = cls_of[x]
            assert c.theta == chi.values[int(own)]
        if c.kind == "regular":
            theta_of[x] = c.theta
    # overlap at R=1 means centers within word distance 1, i.e. equal or
    # graph-adjacent; check along the adjacency table instead of all pairs
    checked = 0
    for x, theta in theta_of.items():
        for y in t.nbr[x]:
            y = int(y)
            if y in theta_of:
                assert theta_of[y] == theta
                checked += 1
    # with the spacing-2 net no two centers are adjacent; re-run the
    # pairwise property on the full net at radius 8 where pairs exist
    t8 = build_truncation(Presentation.free(2), 8)
    chi8 = make_end_function(t8, 1, rule="first_letter:a")
    masks8 = TraceMasks(t8, chi8)
    survey8 = find_necks(t8, build_net(t8, 1), 1)
    theta8 = {}
    for i, x in enumerate(survey8.centers.tolist()):
        c = classify_neck(survey8, i, masks8)
        if c.kind == "regular":
            theta8[x] = c.theta
    pairs = 0
    for x, theta in theta8.items():
        for y in t8.nbr[x]:
            y = int(y)
            if y in theta8:
                assert theta8[y] == theta
                pairs += 1
    assert pairs > 0


@criterion(8, "gap certificates are sound and bracket the exhaustive suite")
def test_criterion_8(f2, r12):
    # radius-12 first-letter scenario
    t, chi, h, _ = r12
    net = build_net(t, 2)
    survey = find_necks(t, net, 1)
    masks = TraceMasks(t, chi)
    cert = gap_certificate(h, survey, row_of(survey, 0), masks)
    assert cert.mu > 0
    assert cert.mu <= cert.region_energy + 1e-12
    assert cert.region_energy <= energy(h).total + 1e-12

    # exhaustive radius-8 suite: the best certificate stays below the
    # least energy over all 14 assignments
    t8 = build_truncation(f2, 8)
    net8 = build_net(t8, 2)
    mus = []
    energies = []
    for chi8 in all_nonconstant_end_functions(t8, 1):
        h8 = solve_dirichlet(t8, chi8)
        energies.append(energy(h8).total)
        rep = special_sets(t8, find_necks(t8, net8, 1), chi8)
        best = 0.0
        for i, x in enumerate(rep.survey.centers.tolist()):
            if x not in rep.center_ids["K_I"]:
                continue
            c = gap_certificate(h8, rep.survey, i, rep.masks)
            assert 0 < c.mu <= energy(h8).total + 1e-12
            best = max(best, c.mu)
        assert best > 0
        mus.append(best)
    assert max(mus) <= min(energies)


@criterion(9, "decay ratio at most 1/2 per step inside a cluster branch at "
              "radius 14")
def test_criterion_9(f2):
    t = build_truncation(f2, 14)
    chi = make_end_function(t, 1, rule="first_letter:a")
    h = solve_dirichlet(t, chi)
    branch = [c for c in chi.classes
              if c.representative_word == "b"][0]
    prof = decay_profile(h, [0], branch, 0)
    ratios = prof.ratios()
    for d in range(2, 9):
        assert ratios[d] <= 0.5, (d, ratios[d])


@criterion(10, "wall tree at radius 12: non-crossing, two regions per wall, "
               "tree and Euler checks, precise invariance, violations "
               "monotone in radius")
def test_criterion_10(f2, r12):
    t, chi, h, _ = r12
    images = sample_images(h, group_ball(t, 2))
    verdicts = images.verdicts
    system = build_walls(h, images, choose_threshold(images))
    assert_noncrossing(t, system)
    tree = build_wall_tree(t, system)
    assert tree.n_edges == tree.n_nodes - 1
    action = action_on_tree(t, tree)
    for g, outcome in action.h_wall_invariance.items():
        assert outcome in ("equal", "disjoint")
    assert action.inversions == []

    violations_12 = sum(1 for v in verdicts if v.is_violation())
    t8 = build_truncation(f2, 8)
    chi8 = make_end_function(t8, 1, rule="first_letter:a")
    h8 = solve_dirichlet(t8, chi8)
    violations_8 = sum(
        1 for g in group_ball(t8, 2) if trichotomy(h8, g).is_violation())
    assert violations_12 <= violations_8


@criterion(11, "byte-identical reports for fixed scenario and seed across "
               "thread counts")
def test_criterion_11(tmp_path):
    from ends_splitter import cli
    cfg = {
        "schema": 1, "group": {"kind": "free", "rank": 2},
        "truncation_radius": 6, "base_radius": 1, "neck_R": 1,
        "net_delta": 2, "chi": "first_letter:a", "seed": 9,
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for threads, tag in (("1", "x"), ("4", "y")):
        out = tmp_path / tag
        code = cli.main(["solve", "--scenario", str(path), "--out", str(out),
                         "--threads", threads])
        assert code == 0
        outs.append((out / "det/report.json").read_bytes())
    assert outs[0] == outs[1]


@criterion(12, "path-graph eigenvalues match the closed form; the sweep "
               "bound sits under the estimate at radius 8")
def test_criterion_12(f2):
    for n in (10, 100):
        rep = spectral_gap(path_truncation(n))
        exact = 2 * (1 - np.cos(np.pi / (n + 1)))
        assert abs(rep.lambda1_estimate - exact) <= 1e-6
    t = build_truncation(f2, 8)
    rep = spectral_gap(t)
    assert rep.cheeger_lower ** 2 / 4 <= rep.lambda1_estimate
