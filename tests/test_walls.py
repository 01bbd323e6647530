import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ends_splitter.errors import (
    CrossingWalls,
    NoRegularValue,
    NotATree,
    ScenarioError,
)
from ends_splitter.ends import make_end_function
from ends_splitter.groups import Presentation, build_truncation, group_ball
from ends_splitter.harmonic import HarmonicField, pullback, solve_dirichlet
from ends_splitter.walls import (
    Wall,
    WallConfig,
    WallSystem,
    WallTree,
    action_on_tree,
    assert_noncrossing,
    build_wall_tree,
    build_walls,
    choose_threshold,
    indecomposable_regions,
    sample_images,
    trichotomy,
    wall_tree_dot,
)

import oracles


def element(t, word):
    r = max((len(word), 1))
    for g in group_ball(t, r):
        if str(g) == word:
            return g
    raise KeyError(word)


def on_the_ball(values):
    """``trichotomy``'s ``inside`` and ``vals`` for a pulled field defined
    on the whole ball."""
    return {"inside": np.ones(len(values), dtype=bool),
            "vals": np.asarray(values, float)}


def threshold(h, sample, equality_tol=1e-9, step=1e-3, sample_radius=None):
    """``choose_threshold`` on the images of ``sample``."""
    return choose_threshold(sample_images(h, sample, equality_tol), step,
                            sample_radius)


def walls_of(h, sample, sample_radius=None):
    """The sample's images and its walls at the threshold chosen on them,
    as the tree command takes them."""
    images = sample_images(h, sample)
    cfg = choose_threshold(images, sample_radius=sample_radius)
    return images, build_walls(h, cfg, images)


# -- trichotomy ----------------------------------------------------------------

def test_identity_is_eq_h(h_first_letter_r8):
    v = trichotomy(h_first_letter_r8, element(h_first_letter_r8.truncation, "e"))
    assert v.relation == "eq_h"
    assert v.max_slack == 0.0


def test_generator_toward_the_cluster_raises_the_field(h_first_letter_r8):
    t = h_first_letter_r8.truncation
    v = trichotomy(h_first_letter_r8, element(t, "a"))
    assert v.relation == "gt_h"
    # oracle: direct pointwise comparison
    p = pullback(h_first_letter_r8, element(t, "a"))
    dom = p.domain
    assert (p.values[dom] > h_first_letter_r8.values[dom] - 1e-12).all()


def test_all_radius1_verdicts_match_pointwise_scan(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    for g in group_ball(t, 1):
        v = trichotomy(h, g)
        p = pullback(h, g)
        dom = p.domain
        vals, base = p.values[dom], h.values[dom]
        ref = base if v.relation.endswith("_h") and "minus" not in v.relation \
            else 1 - base
        if v.relation.startswith("eq"):
            assert np.abs(vals - ref).max() <= 1e-9
        elif v.relation.startswith("lt"):
            assert (vals <= ref + 1e-9).all()
        elif v.relation.startswith("gt"):
            assert (vals >= ref - 1e-9).all()
        else:
            pytest.fail(f"unexpected violation for {g}")


def test_synthetic_complement_detects_eq_one_minus_h(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    v = trichotomy(h, element(t, "e"), **on_the_ball(1.0 - h.values))
    assert v.relation == "eq_one_minus_h"


def test_violation_carries_witness(t_f2_r4):
    # a field that is neither comparable to h nor to 1-h
    chi = make_end_function(t_f2_r4, 1, rule="first_letter:a")
    h = solve_dirichlet(t_f2_r4, chi)
    vals = h.values.copy()
    vals[0] = h.values[0] + 0.3
    vals[1] = h.values[1] - 0.3
    v = trichotomy(h, element(t_f2_r4, "e"), **on_the_ball(vals))
    assert v.relation == "violation"
    assert v.witness in (0, 1)
    assert v.max_slack > 0


def test_violation_witness_is_measured_against_one_minus_h(t_f2_r4):
    # the pulled field is 1 - h except at vertices 1 and 5, so
    # eq_one_minus_h fails least and its witness is one of those two
    t = t_f2_r4
    base = np.where(t.dist % 2 == 0, 0.25, 0.75)
    h = HarmonicField(truncation=t, values=base, boundary_spec=None,
                      residual=0.0, iterations=0)
    vals = 1.0 - base
    vals[1] += 0.0625
    vals[5] -= 0.0625
    v = trichotomy(h, element(t, "e"), **on_the_ball(vals))
    assert v.relation == "violation"
    assert v.max_slack == 0.0625
    assert v.witness in (1, 5)


# -- thresholds -----------------------------------------------------------------

def test_first_free_threshold_is_chosen(h_first_letter_r8):
    t = h_first_letter_r8.truncation
    cfg = threshold(h_first_letter_r8, group_ball(t, 1))
    assert cfg.threshold == pytest.approx(0.501)


def test_threshold_skips_crowded_values(t_f2_r4):
    vals = np.full(t_f2_r4.n, 0.501)
    h = HarmonicField(truncation=t_f2_r4, values=vals, boundary_spec=None,
                      residual=0.0, iterations=0)
    cfg = threshold(h, [element(t_f2_r4, "e")])
    assert cfg.threshold == pytest.approx(0.502)


def test_no_regular_value_when_tolerance_swamps(t_f2_r4):
    rng = np.random.default_rng(0)
    vals = 0.5 + 0.1 * rng.random(t_f2_r4.n)
    h = HarmonicField(truncation=t_f2_r4, values=vals, boundary_spec=None,
                      residual=0.0, iterations=0)
    with pytest.raises(NoRegularValue):
        threshold(h, [element(t_f2_r4, "e")], equality_tol=0.2)


@pytest.mark.parametrize("kwargs", [
    {"step": 0.0}, {"step": -1e-3}, {"step": float("nan")},
    {"step": float("inf")}, {"equality_tol": -1e-9},
    {"equality_tol": float("nan")},
])
def test_threshold_refuses_bad_step_and_tolerance(h_first_letter_r8, kwargs):
    t = h_first_letter_r8.truncation
    with pytest.raises(ScenarioError):
        threshold(h_first_letter_r8, group_ball(t, 1), **kwargs)


# -- walls ----------------------------------------------------------------------

def test_identity_sample_gives_one_wall(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    _, system = walls_of(h, group_ball(t, 0), sample_radius=0)
    assert len(system.walls) == 1
    eu, ev, _ = t.edges()
    e = system.walls[0].edge_ids
    assert len(e) == 1
    ends = {t.word(int(eu[e[0]])), t.word(int(ev[e[0]]))}
    assert ends == {"e", "a"}


def test_duplicate_pullbacks_share_a_wall(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    e = element(t, "e")
    _, system = walls_of(h, [e, e], sample_radius=0)
    assert len(system.walls) == 1
    assert system.walls[0].labels == ["e", "e"]


def test_walls_pairwise_noncrossing(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    _, system = walls_of(h, group_ball(t, 2), sample_radius=2)
    assert len(system.walls) == 17
    assert_noncrossing(t, system)


def test_each_wall_separates_its_sides(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    _, system = walls_of(h, group_ball(t, 1), sample_radius=1)
    adj = oracles.adjacency_dict(t)
    eu, ev, _ = t.edges()
    for w in system.walls:
        cut = {(int(eu[e]), int(ev[e])) for e in w.edge_ids}
        cut |= {(b, a) for a, b in cut}
        dom = np.flatnonzero(system.domain)
        allowed = set(map(int, dom))
        # sides are kept per domain vertex, in id order
        plus = [int(v) for v in dom[w.side > 0]]
        minus = [int(v) for v in dom[w.side < 0]]
        # BFS from a plus vertex without using cut edges stays on one side
        seen = {plus[0]}
        stack = [plus[0]]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in allowed and (v, u) not in cut and u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert seen.isdisjoint(minus)


# -- regions and the tree ----------------------------------------------------------

def test_no_walls_one_region(t_f2_r4):
    chi = make_end_function(t_f2_r4, 1, rule="first_letter:a")
    h = solve_dirichlet(t_f2_r4, chi)
    system = WallSystem(config=WallConfig(threshold=0.501), walls=[],
                        domain=np.ones(t_f2_r4.n, dtype=bool),
                        empty_pullbacks=[])
    dec = indecomposable_regions(t_f2_r4, system)
    assert len(dec.regions) == 1
    assert dec.regions[0].size == t_f2_r4.n


def test_one_wall_two_regions(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    _, system = walls_of(h, group_ball(t, 0), sample_radius=0)
    dec = indecomposable_regions(t, system)
    assert len(dec.regions) == 2
    tree = build_wall_tree(t, system, dec)
    assert tree.n_nodes == 2 and tree.n_edges == 1


def test_region_count_matches_separation_closure(f2_small_system):
    t, system, dec = f2_small_system
    # oracle: union-find over unseparated pairs
    dom = [int(v) for v in np.flatnonzero(system.domain)]
    parent = {v: v for v in dom}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, u in enumerate(dom):
        for j, v in enumerate(dom[i + 1:], i + 1):
            # sides are kept per domain vertex, in id order
            if all(w.side[i] * w.side[j] >= 0 for w in system.walls):
                parent[find(u)] = find(v)
    classes = len({find(v) for v in dom})
    assert classes == len(dec.regions)


@pytest.fixture(scope="module")
def f2_small_system(f2):
    t = build_truncation(f2, 5)
    chi = make_end_function(t, 1, rule="first_letter:a")
    h = solve_dirichlet(t, chi)
    _, system = walls_of(h, group_ball(t, 2), sample_radius=2)
    dec = indecomposable_regions(t, system)
    return t, system, dec


def test_euler_relation(f2_small_system):
    t, system, dec = f2_small_system
    tree = build_wall_tree(t, system, dec)
    assert tree.n_edges == tree.n_nodes - 1


def test_randomized_end_data_trees_or_logged_diagnostics(t_f2_r6):
    # every nonconstant assignment either assembles a tree or surfaces a
    # sliver/crossing diagnostic; nothing third
    from ends_splitter.ends import all_nonconstant_end_functions
    trees = 0
    diagnostics = 0
    for chi in all_nonconstant_end_functions(t_f2_r6, 1):
        h = solve_dirichlet(t_f2_r6, chi)
        _, system = walls_of(h, group_ball(t_f2_r6, 1), sample_radius=1)
        try:
            dec = indecomposable_regions(t_f2_r6, system)
            tree = build_wall_tree(t_f2_r6, system, dec)
        except (CrossingWalls, NotATree):
            diagnostics += 1
            continue
        trees += 1
        assert tree.n_edges == tree.n_nodes - 1
    assert trees + diagnostics == 14
    # the single-branch assignments always build trees
    assert trees >= 8


def test_crossing_walls_detected(t_f2_r4):
    # synthetic pair on a path: one wall separates the other's endpoints
    from ends_splitter.groups import path_truncation
    t = path_truncation(2)   # vertices 0-1-2-3
    side_a = np.array([-1, -1, 1, 1], dtype=np.int8)
    side_b = np.array([-1, 1, 1, -1], dtype=np.int8)
    wall_a = Wall(labels=["a"], edge_ids=np.array([1]), side=side_a)
    wall_b = Wall(labels=["b"], edge_ids=np.array([0, 2]), side=side_b)
    system = WallSystem(config=WallConfig(threshold=0.5),
                        walls=[wall_a, wall_b],
                        domain=np.ones(4, dtype=bool), empty_pullbacks=[])
    with pytest.raises(CrossingWalls):
        assert_noncrossing(t, system)
    with pytest.raises((CrossingWalls, NotATree)):
        dec = indecomposable_regions(t, system)
        build_wall_tree(t, system, dec)


def test_wall_tree_dot_roundtrip(f2_small_system):
    t, system, dec = f2_small_system
    tree = build_wall_tree(t, system, dec)
    nodes, edges = oracles.parse_dot(wall_tree_dot(tree))
    assert len(nodes) == tree.n_nodes
    assert len(edges) == tree.n_edges


# -- the action -------------------------------------------------------------------

@pytest.fixture(scope="module")
def f2_action(f2):
    t = build_truncation(f2, 8)
    chi = make_end_function(t, 1, rule="first_letter:a")
    h = solve_dirichlet(t, chi)
    images, system = walls_of(h, group_ball(t, 2), sample_radius=2)
    dec = indecomposable_regions(t, system)
    tree = build_wall_tree(t, system, dec)
    action = action_on_tree(t, system, tree, images)
    return t, h, system, tree, action, images.sample


def test_identity_acts_trivially(f2_action):
    t, h, system, tree, action, sample = f2_action
    rmap = action.region_maps["e"]
    assert rmap == list(range(tree.n_nodes))
    assert action.wall_images["e"] == [f"wall_{i}"
                                       for i in range(len(system.walls))]


def test_h_wall_precisely_invariant(f2_action):
    t, h, system, tree, action, sample = f2_action
    for g, outcome in action.h_wall_invariance.items():
        assert outcome in ("equal", "disjoint", "out_of_window")
        if g == "e":
            assert outcome == "equal"
        else:
            assert outcome != "overlap"


def test_translation_moves_the_wall_off_itself(f2_action):
    t, h, system, tree, action, sample = f2_action
    assert action.h_wall_invariance["aa"] == "disjoint"


def test_no_inversions_and_no_fixed_regions(f2_action):
    *_, action, sample = f2_action
    assert action.inversions == []
    assert action.fixed_regions == []


def test_stabilizers_contain_only_identity_here(f2_action):
    *_, action, sample = f2_action
    assert all(s == 1 for s in action.stabilizer_sizes)


def test_violation_counts_do_not_increase_with_radius(f2):
    counts = {}
    for rho in (6, 8):
        t = build_truncation(f2, rho)
        chi = make_end_function(t, 1, rule="first_letter:a")
        h = solve_dirichlet(t, chi)
        sample = group_ball(t, 2)
        counts[rho] = sum(
            1 for g in sample if trichotomy(h, g).is_violation())
    assert counts[8] <= counts[6]


# -- the array code against its one-container-at-a-time oracles ------------------

_ORACLE_CASES = {
    "F2-r8": (Presentation.free(2), 8, 1, {"a": 1}),
    "F3-r6": (Presentation.free(3), 6, 1, {"a": 1}),
    "Z2*Z3-r14": (Presentation.free_product_of_cyclics([2, 3]), 14, 2,
                  {"st": 1}),
    "Z3*Z-r8": (Presentation.free_product_of_cyclics([3, 0]), 8, 1, {"t": 1}),
    # walls that cross: regions are still compared, the tree is refused
    "Z3*Z-r8-crossing": (Presentation.free_product_of_cyclics([3, 0]), 8, 1,
                         {"s": 1}),
}


@pytest.fixture(scope="module", params=sorted(_ORACLE_CASES))
def oracle_case(request):
    p, radius, base_radius, assignment = _ORACLE_CASES[request.param]
    t = build_truncation(p, radius)
    chi = make_end_function(t, base_radius, values_by_word=assignment,
                            default=0)
    h = solve_dirichlet(t, chi)
    sample = group_ball(t, 2)
    return t, h, sample, sample_images(h, sample)


def assert_same_regions(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert len(got.regions) == len(want.regions)
    for a, b in zip(got.regions, want.regions):
        assert (a.id, a.n_pieces, a.adjacent_walls) == \
            (b.id, b.n_pieces, b.adjacent_walls)
        assert np.array_equal(a.members, b.members)
        assert a.members.dtype == b.members.dtype


def test_id_maps_match_per_element_pullbacks(oracle_case):
    t, h, sample, images = oracle_case
    maps = oracles.right_action_maps(t, sample)
    for g, img, verdict in zip(sample, maps, images.verdicts):
        assert img.dtype == np.int32
        assert np.array_equal(img, t.rmul_ids(np.arange(t.n), g))
        p = pullback(h, g)
        inside = img >= 0
        assert np.array_equal(inside, p.domain)
        on_map = trichotomy(h, g, inside=inside, vals=h.values[img[inside]])
        assert on_map == trichotomy(h, g) == verdict


def test_threshold_and_walls_match_oracle(oracle_case):
    t, h, sample, images = oracle_case
    cfg = choose_threshold(images, sample_radius=2)
    assert cfg == oracles.choose_threshold(h, sample, sample_radius=2)
    system = build_walls(h, cfg, images)
    want, domain, empty = oracles.build_walls(h, cfg, sample)
    assert np.array_equal(system.domain, domain)
    assert system.empty_pullbacks == empty
    assert [(w.labels, w.edge_ids.tolist(), w.side.tolist())
            for w in system.walls] == want
    for w in system.walls:
        assert len(w.side) == system.domain.sum()


def test_regions_and_action_match_oracle(oracle_case):
    t, h, sample, images = oracle_case
    cfg = choose_threshold(images, sample_radius=2)
    system = build_walls(h, cfg, images)
    got = indecomposable_regions(t, system)
    want = oracles.indecomposable_regions(t, system)
    assert_same_regions(got, want)
    try:
        tree = build_wall_tree(t, system, got)
    except CrossingWalls:
        with pytest.raises(CrossingWalls):
            build_wall_tree(t, system, want)
        return
    build_wall_tree(t, system, want)
    assert_same_regions(got, want)          # adjacency lists filled alike
    action = action_on_tree(t, system, tree, images)
    assert action == oracles.action_on_tree(t, h, system, tree, sample)
    assert sum(action.region_splits.values()) > 0


@pytest.fixture(scope="module", params=sorted(_ORACLE_CASES))
def solved_case(request):
    p, radius, base_radius, assignment = _ORACLE_CASES[request.param]
    t = build_truncation(p, radius)
    chi = make_end_function(t, base_radius, values_by_word=assignment,
                            default=0)
    return t, solve_dirichlet(t, chi)


@pytest.mark.parametrize("sample_radius", [1, 2, 3])
def test_streamed_pass_matches_oracles_and_full_maps(solved_case,
                                                     sample_radius):
    # the tree command's path: one streamed pass, then walls, regions and
    # the action on the common domain only
    t, h = solved_case
    sample = group_ball(t, sample_radius)
    maps = oracles.right_action_maps(t, sample)
    images = sample_images(h, sample)
    assert images.sample == sample
    assert images.verdicts == [trichotomy(h, g) for g in sample]
    tol = images.equality_tol
    pulled = np.concatenate([h.values[m[m >= 0]] for m in maps])
    assert np.array_equal(images.near, np.unique(
        pulled[(pulled >= 0.5 - tol) & (pulled <= 0.6 + tol)]))
    ids = np.flatnonzero(images.domain)
    for img, m in zip(images.images, maps):
        assert img.dtype == np.int32 and len(img) == len(ids)
        assert np.array_equal(img, m[ids])

    cfg = choose_threshold(images, sample_radius=sample_radius)
    assert cfg == oracles.choose_threshold(h, sample,
                                           sample_radius=sample_radius)
    system = build_walls(h, cfg, images)
    want, domain, empty = oracles.build_walls(h, cfg, sample)
    assert np.array_equal(system.domain, domain)
    assert system.empty_pullbacks == empty
    assert [(w.labels, w.edge_ids.tolist(), w.side.tolist())
            for w in system.walls] == want

    got = indecomposable_regions(t, system)
    want = oracles.indecomposable_regions(t, system)
    assert_same_regions(got, want)
    try:
        tree = build_wall_tree(t, system, got)
    except CrossingWalls:
        with pytest.raises(CrossingWalls):
            build_wall_tree(t, system, want)
        return
    ref = build_wall_tree(t, system, want)
    assert (tree.incidence, tree.n_nodes) == (ref.incidence, ref.n_nodes)
    action = action_on_tree(t, system, tree, images)
    assert action == oracles.action_on_tree(t, h, system, tree, sample)


def test_regions_past_64_walls_match_oracle():
    # 100 walls on a path: a side signature folded without renumbering
    # would need 3**100 codes
    from ends_splitter.groups import path_truncation
    t = path_truncation(148)
    rng = np.random.default_rng(5)
    cuts = np.sort(rng.choice(t.n - 1, size=100, replace=False))
    walls = []
    for k, e in enumerate(cuts):
        side = np.where(np.arange(t.n) <= e, -1, 1).astype(np.int8)
        if k % 3 == 0:
            side = -side
        walls.append(Wall(labels=[f"w{k}"], edge_ids=np.array([e]),
                          side=side))
    system = WallSystem(config=WallConfig(threshold=0.5), walls=walls,
                        domain=np.ones(t.n, dtype=bool), empty_pullbacks=[])
    got = indecomposable_regions(t, system)
    assert len(got.regions) == 101
    assert_same_regions(got, oracles.indecomposable_regions(t, system))


def test_disconnected_region_counts_its_pieces():
    # one wall cutting edges (1,2) and (3,4) of a path: {0,1} and {4} share
    # the minus side, so one region has two pieces
    from ends_splitter.groups import path_truncation
    t = path_truncation(3)
    wall = Wall(labels=["w"], edge_ids=np.array([1, 3]),
                side=np.array([-1, -1, 1, 1, -1], dtype=np.int8))
    system = WallSystem(config=WallConfig(threshold=0.5), walls=[wall],
                        domain=np.ones(t.n, dtype=bool), empty_pullbacks=[])
    got = indecomposable_regions(t, system)
    assert [r.members.tolist() for r in got.regions] == [[0, 1, 4], [2, 3]]
    assert [r.n_pieces for r in got.regions] == [2, 1]
    assert_same_regions(got, oracles.indecomposable_regions(t, system))


def test_walls_leaving_the_domain_read_side_0_off_it():
    # path 0-...-7 with 4 and 7 off the domain: wall b's edge 3-4 leaves
    # it, and wall a, whose minus side holds 5, reads side 0 at 4
    from ends_splitter.groups import path_truncation
    t = path_truncation(6)
    assert t.n == 8
    domain = np.array([1, 1, 1, 1, 0, 1, 1, 0], dtype=bool)
    wall_a = Wall(labels=["a"], edge_ids=np.array([1]),
                  side=np.array([-1, -1, 1, 1, -1, -1], dtype=np.int8))
    wall_b = Wall(labels=["b"], edge_ids=np.array([3]),
                  side=np.array([-1, -1, -1, -1, 1, 1], dtype=np.int8))
    system = WallSystem(config=WallConfig(threshold=0.5),
                        walls=[wall_a, wall_b], domain=domain,
                        empty_pullbacks=[])
    assert system.side_at(wall_a, np.array([3, 4, 5, 7])).tolist() == \
        [1, 0, -1, 0]
    assert_noncrossing(t, system)
    dec = indecomposable_regions(t, system)
    assert [r.members.tolist() for r in dec.regions] == \
        [[0, 1], [2, 3], [5, 6]]
    with pytest.raises(NotATree, match="wall b has edges leaving"):
        build_wall_tree(t, system, dec)


@pytest.fixture(scope="module")
def overlap_case(t_f2_r6):
    """Hand-made edge-disjoint walls on F2 r6 whose images overlap
    partially, on the regions of a real system at sample radius 2."""
    t = t_f2_r6
    chi = make_end_function(t, 1, rule="first_letter:a")
    h = solve_dirichlet(t, chi)
    images, real = walls_of(h, group_ball(t, 2), sample_radius=2)
    dec = indecomposable_regions(t, real)
    walls = [
        # its image under a is {a-aa, a-e}: it meets itself and the next
        [edge(t, "e", "a"), edge(t, "e", "A")],
        # its image under A is {e-a}, a part of the first
        [edge(t, "a", "aa")],
        [edge(t, "b", "bb"), edge(t, "Ab", "b")],
    ]
    system = dataclasses.replace(real, walls=[
        Wall(labels=[f"w{i}"], edge_ids=np.array(sorted(e)),
             side=np.zeros(len(real.domain_ids), dtype=np.int8))
        for i, e in enumerate(walls)])
    tree = WallTree(regions=dec.regions, walls=system.walls,
                    incidence=[(0, 1)] * len(walls),
                    region_of_vertex=dec.labels)
    return t, h, system, tree, images


def t_index(t, word):
    return next(v for v in range(t.n) if t.word(v) == word)


def edge(t, a, b):
    """The id of the edge between the vertices of words ``a`` and ``b``."""
    eu, ev, _ = t.edges()
    u, v = sorted((t_index(t, a), t_index(t, b)))
    return int(np.flatnonzero((eu == u) & (ev == v))[0])


def test_partial_overlaps_match_oracle(overlap_case):
    t, h, system, tree, images = overlap_case
    action = action_on_tree(t, system, tree, images)
    assert action == oracles.action_on_tree(t, h, system, tree,
                                            images.sample)
    assert action.wall_images["e"] == [f"wall_{i}" for i in range(3)]
    assert action.wall_images["a"][:2] == ["partial_overlap", "disjoint"]
    assert action.wall_images["A"][1] == "partial_overlap"
    assert action.h_wall_invariance["a"] == "overlap"
    assert action.h_wall_invariance["e"] == "equal"
    assert any("partially overlaps" in m for m in action.anomalies)
    assert sum(action.region_splits.values()) > 0


def test_action_refuses_a_wall_leaving_the_domain(overlap_case):
    # the shell wall aaaaa-aaaaaa lies outside the common domain, where the
    # sample's images hold nothing
    t, h, system, tree, images = overlap_case
    shell = Wall(labels=["shell"],
                 edge_ids=np.array([edge(t, "aaaaa", "aaaaaa")]),
                 side=system.walls[0].side)
    off = dataclasses.replace(system, walls=system.walls + [shell])
    with pytest.raises(NotATree, match="wall shell has edges leaving"):
        action_on_tree(t, off, tree, images)


def test_image_off_the_edge_set_is_an_anomaly(overlap_case):
    # a vertex map that is no graph automorphism: swapping e and bb sends
    # the edge e-a to the non-edge bb-a
    t, h, system, tree, images = overlap_case
    img = np.arange(t.n, dtype=np.int32)
    e, bb = t_index(t, "e"), t_index(t, "bb")
    img[[e, bb]] = img[[bb, e]]
    swap = dataclasses.replace(
        images, sample=group_ball(t, 0), verdicts=[None],
        shell_traces=[None], images=[img[system.domain_ids]])
    action = action_on_tree(t, system, tree, swap)
    assert action.wall_images["e"][0] == "out_of_window"
    assert action.h_wall_invariance["e"] == "out_of_window"
    assert action.anomalies[0] == "image of wall w0 under e leaves the edge set"


def test_images_on_another_domain_or_tolerance_are_refused(overlap_case):
    # the images of a smaller sample are kept on a larger domain, and a
    # threshold chosen at another tolerance is not one of these images
    t, h, system, tree, images = overlap_case
    other = sample_images(h, group_ball(t, 1), images.equality_tol)
    with pytest.raises(ValueError, match="another domain"):
        action_on_tree(t, system, tree, other)
    cfg = dataclasses.replace(system.config, equality_tol=1e-6)
    with pytest.raises(ValueError, match="equality_tol"):
        build_walls(h, cfg, images)


@pytest.mark.parametrize("tol,step", [
    (1e-9, 1e-3), (0.004, 0.01), (0.005, 0.01), (0.0, 0.01), (0.012, 0.01),
])
def test_threshold_at_window_edges_matches_oracle(t_f2_r4, tol, step):
    # values exactly at 0.5 +- tol and 0.6 +- tol, at the ends of the first
    # candidates' windows, and one float step outside the next window; the
    # rest far below 0.5
    sample = [element(t_f2_r4, "e")]
    cands = 0.5 + np.arange(1, 101) * step
    cands = cands[cands < 0.6]
    chosen = []
    for blocked in (0, 3, len(cands) - 1, len(cands)):
        ends = [c - tol if k % 2 else c + tol
                for k, c in enumerate(cands[:blocked])]
        if blocked < len(cands):
            c = cands[blocked]
            ends += [np.nextafter(c - tol, 0.0), np.nextafter(c + tol, 1.0)]
        vals = np.linspace(0.0, 0.3, t_f2_r4.n)
        special = [0.5 - tol, 0.5 + tol, 0.6 - tol, 0.6 + tol] + ends
        vals[:len(special)] = special
        h = HarmonicField(truncation=t_f2_r4, values=vals, boundary_spec=None,
                          residual=0.0, iterations=0)
        try:
            want = oracles.choose_threshold(h, sample, tol, step)
        except NoRegularValue:
            with pytest.raises(NoRegularValue):
                threshold(h, sample, tol, step)
            chosen.append(None)
            continue
        assert threshold(h, sample, tol, step) == want
        chosen.append(want.threshold)
    assert chosen[-1] is None
    assert len(set(chosen)) >= 2


def test_threshold_sees_values_within_tolerance_outside_0_5_to_0_6(t_f2_r4):
    # equality_tol 0.012 exceeds the step 0.01: 0.499 blocks 0.51, and
    # 0.601 blocks 0.59 once the values 0.5 + k * 0.01 - 0.012 block the rest
    sample = [element(t_f2_r4, "e")]

    def field(special):
        vals = np.full(t_f2_r4.n, 0.2)
        vals[:len(special)] = special
        return HarmonicField(truncation=t_f2_r4, values=vals,
                             boundary_spec=None, residual=0.0, iterations=0)

    h = field([0.499])
    cfg = threshold(h, sample, 0.012, 0.01)
    assert cfg == oracles.choose_threshold(h, sample, 0.012, 0.01)
    assert cfg.threshold == pytest.approx(0.52)
    h = field([0.5 + k * 0.01 - 0.012 for k in range(1, 9)] + [0.601])
    for choose in (threshold, oracles.choose_threshold):
        with pytest.raises(NoRegularValue):
            choose(h, sample, 0.012, 0.01)


@st.composite
def _threshold_cases(draw):
    # a step, a tolerance and sampled values: free floats near [0.5, 0.6],
    # window ends 0.5 + k * step +- tol, and runs of candidates themselves
    step = draw(st.floats(1e-4, 0.05))
    tol = draw(st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 0.02))
    ends = st.tuples(st.integers(1, 600), st.sampled_from([-1, 0, 1])).map(
        lambda kj: 0.5 + kj[0] * step + kj[1] * tol)
    values = draw(st.lists(st.floats(0.45, 0.65) | ends, max_size=60))
    start, length = draw(st.integers(1, 600)), draw(st.integers(0, 80))
    values += [0.5 + k * step for k in range(start, start + length)]
    return step, tol, values


@settings(max_examples=150, deadline=None)
@given(case=_threshold_cases())
def test_threshold_jumps_match_the_one_candidate_oracle(t_f2_r4, case):
    step, tol, special = case
    vals = np.full(t_f2_r4.n, 0.2)
    vals[:len(special)] = special
    h = HarmonicField(truncation=t_f2_r4, values=vals, boundary_spec=None,
                      residual=0.0, iterations=0)
    sample = [group_ball(t_f2_r4, 0)[0]]
    try:
        want = oracles.choose_threshold(h, sample, tol, step)
    except NoRegularValue:
        with pytest.raises(NoRegularValue):
            threshold(h, sample, tol, step)
        return
    assert threshold(h, sample, tol, step) == want


@pytest.mark.parametrize("step", [1e-300, 1e-17, 5e-324])
def test_tiny_step_jumps_past_a_blocking_value(t_f2_r4, step):
    # 0.5 + k * step stays 0.5 for astronomically many k; the search jumps
    # to the first candidate whose window clears 0.5, or finds none
    vals = np.full(t_f2_r4.n, 0.2)
    vals[0] = 0.5
    h = HarmonicField(truncation=t_f2_r4, values=vals, boundary_spec=None,
                      residual=0.0, iterations=0)
    sample = [group_ball(t_f2_r4, 0)[0]]
    try:
        cfg = threshold(h, sample, 1e-9, step)
    except NoRegularValue:
        # every float k * step stays below 0.1, so no candidate reaches 0.6
        # and none before k overflows clears 0.5 + 1e-9
        assert step * sys.float_info.max < 1e-9
        return
    assert cfg.threshold - 1e-9 > 0.5
    assert np.nextafter(cfg.threshold, 0.0) - 1e-9 <= 0.5
