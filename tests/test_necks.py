import os

import numpy as np
import pytest

from ends_splitter.errors import (
    DegenerateDrop,
    EndsSplitterError,
    MismatchedTruncations,
    NeckCoverageError,
)
from ends_splitter.ends import (
    all_nonconstant_end_functions,
    end_classes,
    make_end_function,
)
from ends_splitter.groups import (
    Presentation,
    build_net,
    build_truncation,
)
from ends_splitter.harmonic import PartialField, energy, solve_dirichlet
from ends_splitter import groups, necks
from ends_splitter.necks import (
    NeckSurvey,
    PartitionParams,
    TraceMasks,
    classify_neck,
    dual_graph,
    dual_graph_dot,
    energy_gap_estimate,
    find_necks,
    gap_certificate,
    partition_K,
    special_sets,
)

import oracles
from oracles import is_cluster
from test_groups import _LAYOUT_CASES


def special(t, net, R, chi):
    """``special_sets`` on the neck survey of ``net`` at R."""
    return special_sets(t, find_necks(t, net, R), chi)


def row_of(survey, x):
    """The row of ``survey`` centered at vertex x."""
    return survey.centers.tolist().index(x)


def component_count(survey, i):
    """How many components row i of ``survey`` has."""
    return int(necks._present(survey.arcs[i], survey.up[i]).sum())


def removed_mask(t, survey, i):
    """Row i's ball B_{R-1}(centers[i]) as a mask."""
    mask = np.zeros(t.n, dtype=bool)
    mask[t.word_ball([survey.centers[i]], survey.R - 1)] = True
    return mask


def flood_members(t, survey, i):
    """The members of each component of row i, from ``survey.flood``."""
    removed = removed_mask(t, survey, i)
    return [survey.flood(t, i, c, removed)[0]
            for c in range(component_count(survey, i))]


def vertex_by_word(t, word):
    for v in range(t.n):
        if t.word(v) == word:
            return v
    raise KeyError(word)


# -- detection -----------------------------------------------------------------

def test_every_window_vertex_is_a_neck_on_f2(t_f2_r6, net1_f2_r8):
    net = build_net(t_f2_r6, 1)
    survey = find_necks(t_f2_r6, net, 1)
    window = survey.window_distance
    expected = int((t_f2_r6.dist <= window).sum())
    assert len(survey.centers) == expected == survey.centers_considered
    assert (necks._present(survey.arcs, survey.up).sum(axis=1) == 4).all()
    assert survey.cover_ok


def test_neck_components_match_bruteforce_on_z2z3(t_z23_r10):
    t = t_z23_r10
    net = build_net(t, 1)
    survey = find_necks(t, net, 2)
    adj = oracles.adjacency_dict(t)
    shell = set(int(v) for v in t.shell_ids())
    assert len(survey.centers)
    for i, x in enumerate(survey.centers.tolist()):
        removed = t.word_ball([x], 1)
        comps = oracles.flood_components(adj, removed)
        unbounded = [c for c in comps if any(v in shell for v in c)]
        assert component_count(survey, i) == len(unbounded) == len(comps)
        assert len(unbounded) >= 3
    # and the survey found every qualifying center
    window = survey.window_distance
    for x in range(t.n):
        if t.dist[x] > window:
            continue
        removed = t.word_ball([x], 1)
        comps = oracles.flood_components(adj, removed)
        unbounded = sum(1 for c in comps if any(v in shell for v in c))
        found = x in survey.centers
        assert found == (unbounded >= 3)


@pytest.mark.parametrize("p, radius, R, spacing", [
    (Presentation.free(2), 7, 1, 1),
    (Presentation.free_product_of_cyclics([3, 0]), 8, 1, 2),
    (Presentation.free_product_of_cyclics([2, 3]), 14, 2, 3),
], ids=["F2", "Z3*Z", "Z2*Z3"])
def test_center_words_match_per_vertex_words(p, radius, R, spacing,
                                             monkeypatch):
    # blocks of at most 7 ids split the spheres out to the window
    monkeypatch.setattr(groups, "_WORD_BLOCK", 7)
    t = build_truncation(p, radius)
    survey = find_necks(t, build_net(t, spacing), R)
    assert len(survey.centers)
    assert survey.center_words == [t.word(x) for x in survey.centers.tolist()]


def test_window_too_small_is_rejected(t_f2_r4):
    net = build_net(t_f2_r4, 1)
    with pytest.raises(EndsSplitterError):
        find_necks(t_f2_r4, net, 2)


# -- classification ------------------------------------------------------------

def test_identity_neck_is_type1_and_b_neck_regular(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    net = build_net(t_f2_r6, 1)
    survey = find_necks(t_f2_r6, net, 1)
    masks = TraceMasks(t_f2_r6, chi)
    cls_e = classify_neck(survey, row_of(survey, 0), masks)
    assert cls_e.kind == "special_type_1"
    b_id = vertex_by_word(t_f2_r6, "b")
    cls_b = classify_neck(survey, row_of(survey, b_id), masks)
    assert cls_b.kind == "regular" and cls_b.theta == 0


def _assert_masks_match_the_flood(t, chi):
    net = build_net(t, 1)
    survey = find_necks(t, net, 1)
    masks = TraceMasks(t, chi)
    vals = chi.shell_values(t)
    adj = oracles.adjacency_dict(t)
    assert len(survey.centers)
    for i, x in enumerate(survey.centers.tolist()):
        comps = oracles.flood_neck_components(t, adj, x, survey.R)
        verdicts, label = oracles.flood_neck_label(t, vals, comps)
        fast = classify_neck(survey, i, masks)
        assert list(fast.verdicts) == verdicts
        assert fast.label() == label


@pytest.mark.parametrize("chi_spec", [
    {"rule": "first_letter:a"},
    {"values_by_word": {"a": 1, "b": 1}, "default": 0},
])
def test_tree_masks_agree_with_floodfill_classification(t_f2_r6, chi_spec):
    chi = make_end_function(t_f2_r6, 1, **chi_spec)
    _assert_masks_match_the_flood(t_f2_r6, chi)


def test_tree_masks_agree_on_deeper_base_radius(t_f2_r6):
    chi = make_end_function(t_f2_r6, 2, values_by_word={"aa": 1, "bb": 1},
                            default=0)
    _assert_masks_match_the_flood(t_f2_r6, chi)


def _survey_chis(t):
    """A first-letter chi at base radius 1 and a seeded mixed one at base
    radius 2, which makes mixed (type-2) components."""
    names = t.presentation.engine().letter_names
    classes = end_classes(t, 2)
    values = np.random.default_rng(len(classes)).integers(0, 2, len(classes))
    values[:2] = 0, 1
    return [make_end_function(t, 1, rule=f"first_letter:{names[0]}"),
            make_end_function(t, 2, values_by_word={
                c.representative_word: int(v)
                for c, v in zip(classes, values)})]


# a factor of order 8 to 30, whose cycles the truncation cuts at many
# centers (at every one on Z/30*Z): on the other three the component
# count varies by center, as 2 or 3 on Z/9*Z/2 r10 at R = 1
_CUT_CASES = {
    "Z12*Z-r8": (Presentation.free_product_of_cyclics([12, 0]), 8),
    "Z9*Z2-r10": (Presentation.free_product_of_cyclics([9, 2]), 10),
    "Z8*Z3-r8": (Presentation.free_product_of_cyclics([8, 3]), 8),
    "Z30*Z-r6": (Presentation.free_product_of_cyclics([30, 0]), 6),
}


def _survey_everywhere(t, R):
    """The survey's rows at every center whose (R-1)-ball fits, necks or
    not."""
    centers = np.flatnonzero(t.dist <= t.radius - R)
    arcs, up = necks._arcs(t, centers, R)
    return NeckSurvey(R=R, spacing=1, centers=centers, arcs=arcs, up=up,
                      centers_considered=len(centers), cover_ok=True,
                      cover_radius=R, window_distance=t.radius - R,
                      center_words=[])


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES) + sorted(_CUT_CASES))
def test_block_tree_survey_matches_the_flood(case):
    # every center up to the shell's neighborhood, where the truncation
    # cuts the cycles the components are read from
    if case in _CUT_CASES:
        (p, radius), radii = _CUT_CASES[case], (1, 2)
    else:
        (p, rho), radii = _LAYOUT_CASES[case], (1, 2, 3)
        radius = min(rho, 6)
    t = build_truncation(p, radius)
    chis = _survey_chis(t)
    masks = [TraceMasks(t, chi) for chi in chis]
    vals = [chi.shell_values(t) for chi in chis]
    adj = oracles.adjacency_dict(t)
    for R in radii:
        survey = _survey_everywhere(t, R)
        for i, x in enumerate(survey.centers.tolist()):
            comps = oracles.flood_neck_components(t, adj, x, R)
            assert component_count(survey, i) == len(comps), (t.word(x), R)
            for ours, theirs in zip(flood_members(t, survey, i), comps):
                assert np.array_equal(ours, theirs.members)
            # each row's floods span the ball: keep one row's at a time
            survey._floods.clear()
            for m, v in zip(masks, vals):
                cls = classify_neck(survey, i, m)
                verdicts, label = oracles.flood_neck_label(t, v, comps)
                assert list(cls.verdicts) == verdicts, (t.word(x), R)
                assert cls.label() == label


def _prefix_chis(t, base_radius, count):
    """``count`` seeded nonconstant end functions at ``base_radius`` whose
    value on a class depends on the first one or two letters of its
    representative word, so some have type-1 necks that the net sees."""
    classes = end_classes(t, base_radius)
    rng = np.random.default_rng(len(classes))
    chis = []
    while len(chis) < count:
        k = 1 + len(chis) % 2
        prefixes = sorted({c.representative_word[:k] for c in classes})
        value = dict(zip(prefixes, rng.integers(0, 2, len(prefixes)).tolist()))
        if len(set(value.values())) == 2:
            chis.append(make_end_function(t, base_radius, values_by_word={
                c.representative_word: value[c.representative_word[:k]]
                for c in classes}))
    return chis


@pytest.mark.parametrize("orders, radius, R, base_radius, width", [
    ((0, 0), 6, 1, 1, 1),
    ((3, 0), 6, 1, 1, 1),
    ((2, 3), 12, 2, 1, 1),
    ((0, 0), 6, 1, 3, 5),               # 36 classes
    ((0, 0), 6, 1, 4, 14),              # 108 classes
], ids=["F2", "Z3*Z", "Z2*Z3", "F2-base3", "F2-base4"])
def test_special_sets_match_the_flood_for_every_chi(orders, radius, R,
                                                    base_radius, width):
    # every neck's label and K, K_I, K_II as a flood per center and
    # is_cluster give them, and the structural check as a flood of the
    # K_I ball system gives it; the masks hold a bit per end class, in
    # uint8 rows of ceil(k / 8) bytes
    p = Presentation.free_product_of_cyclics(orders)
    t = build_truncation(p, radius)
    survey = find_necks(t, build_net(t, 1), R)
    assert len(survey.centers)
    chis = (all_nonconstant_end_functions(t, 1) if base_radius == 1
            else _prefix_chis(t, base_radius, 6))
    raised = 0
    for chi in chis:
        labels, ids, covered = oracles.flood_special_sets(t, survey, chi)
        if not covered:
            with pytest.raises(NeckCoverageError):
                special_sets(t, survey, chi)
            raised += 1
            continue
        report = special_sets(t, survey, chi)
        assert report.classes == labels
        assert report.center_ids == ids
        for sets in (report.masks.down, report.masks.up):
            assert sets.dtype == np.uint8 and sets.shape == (t.n, width)
    assert raised < len(chis)


@pytest.mark.parametrize("orders, radius, base_radius", [
    ((0, 0), 7, 2), ((3, 0), 7, 1), ((2, 3), 12, 2), ((6, 0, 2), 5, 1),
], ids=["F2", "Z3*Z", "Z2*Z3", "Z6*Z*Z2"])
def test_k1_check_witness_matches_the_flood(orders, radius, base_radius):
    # the structural check on seeded ball systems, and on none, and end
    # functions: the smallest member of the first non-cluster unbounded
    # component, as a flood of the complement and is_cluster find it
    t = build_truncation(Presentation.free_product_of_cyclics(orders), radius)
    adj = oracles.adjacency_dict(t)
    classes = end_classes(t, base_radius)
    rng = np.random.default_rng(3)
    for _ in range(12):
        values = rng.integers(0, 2, len(classes))
        values[:2] = 0, 1
        chi = make_end_function(t, base_radius, values_by_word={
            c.representative_word: int(v) for c, v in zip(classes, values)})
        vals = chi.shell_values(t)
        R = int(rng.integers(1, 3))
        window = np.flatnonzero(t.dist <= t.radius - 3 * R)
        k1 = sorted(rng.choice(window, size=min(len(window), 3),
                               replace=False).tolist())
        for ids in (k1, []):
            want = next((int(c.members[0]) for c in oracles.flood_complement(
                t, adj, t.word_ball(ids, R - 1))
                if c.unbounded and is_cluster(t, vals, c) is None), None)
            got = necks._uncovered_cluster_components(
                t, TraceMasks(t, chi), ids, R)
            assert got == want


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_every_component_of_one_ball_reaches_the_shell(case):
    # why the survey keeps no shell test: for every center whose ball fits,
    # each complement component of B_{R-1}(x), read off the block tree or
    # flooded, reaches the shell; and so does every end class
    p, rho = _LAYOUT_CASES[case]
    t = build_truncation(p, min(rho, 6))
    for r in range(1, min(3, t.radius - 1) + 1):
        classes = end_classes(t, r)
        assert all(c.unbounded for c in classes)
        assert sum(c.size for c in classes) == (t.dist >= r).sum()
    # every shell vertex lies in an end class, so a component's trace in
    # these masks is empty exactly when it misses the shell
    names = t.presentation.engine().letter_names
    masks = TraceMasks(t, make_end_function(
        t, 1, rule=f"first_letter:{names[0]}"))
    shell = t.shell_ids()
    for R in (1, 2, 3):
        for x in np.flatnonzero(t.dist <= t.radius - R).tolist():
            removed = np.zeros(t.n, dtype=bool)
            removed[t.word_ball([x], R - 1)] = True
            reach = t.graph_distances_from(shell, allowed_mask=~removed)
            assert (reach[~removed] >= 0).all(), (case, x, R)
        survey = _survey_everywhere(t, R)
        sets = necks._class_sets(survey.arcs, survey.up, masks)
        present = necks._present(survey.arcs, survey.up)
        assert (sets.any(axis=-1) == present).all(), (case, R)


def test_two_branch_chi_has_singleton_k1(t_f2_r8, net1_f2_r8):
    # both selected branches meet at the identity: exhaustive scan finds
    # exactly one type-1 center even with every vertex in the net
    chi = make_end_function(t_f2_r8, 1, values_by_word={"a": 1, "b": 1},
                            default=0)
    report = special(t_f2_r8, net1_f2_r8, 1, chi)
    assert report.K_I == ["e"]
    assert report.K_II == []


@pytest.mark.parametrize("radius, other", [(8, 6), (6, 8)],
                         ids=["chi-of-a-smaller-ball", "chi-of-a-larger-ball"])
def test_special_sets_refuse_another_ball_and_cache_nothing(radius, other):
    # the end function of another ball is refused before any mask is built,
    # so the ball's own end function then reads what a fresh ball gives
    f2, chi = Presentation.free(2), {"values_by_word": {"a": 1, "b": 1},
                                     "default": 0}
    t = build_truncation(f2, radius)
    survey = find_necks(t, build_net(t, 1), 1)
    with pytest.raises(MismatchedTruncations):
        special_sets(t, survey, make_end_function(
            build_truncation(f2, other), 1, **chi))
    assert ("trace_masks", 1) not in t._caches
    fresh = build_truncation(f2, radius)
    want = special(fresh, build_net(fresh, 1), 1,
                   make_end_function(fresh, 1, **chi))
    got = special_sets(t, survey, make_end_function(t, 1, **chi))
    assert got.to_json_dict() == want.to_json_dict()
    assert got.K_I == ["e"]


def test_special_sets_with_r_net(t_f2_r8, net2_f2_r8):
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    report = special(t_f2_r8, net2_f2_r8, 1, chi)
    assert report.K_I == ["e"]
    assert report.K_II == []
    assert report.cover_ok
    assert not report.warnings
    # every surveyed neck received exactly one class
    assert len(report.classes) == len(report.survey.centers)
    assert all(c in ("regular_0", "regular_1", "special_type_1",
                     "special_type_2")
               for c in report.classes.values())


def test_special_sets_with_full_net_sees_both_transition_endpoints(
        t_f2_r8, net1_f2_r8):
    # with spacing 1 both endpoints of the 0/1 transition edge qualify
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    report = special(t_f2_r8, net1_f2_r8, 1, chi)
    assert sorted(report.K_I) == ["a", "e"]
    assert report.K_II == []


def test_suffix2_scenario_has_type2_locus(t_f2_r8, net1_f2_r8):
    chi = make_end_function(t_f2_r8, 2, values_by_word={"aa": 1, "bb": 1},
                            default=0)
    report = special(t_f2_r8, net1_f2_r8, 1, chi)
    assert sorted(report.K_I) == ["a", "b"]
    assert report.K_II == ["e"]


def test_sparse_net_missing_the_locus_raises(t_f2_r8, net2_f2_r8):
    chi = make_end_function(t_f2_r8, 2, values_by_word={"aa": 1, "bb": 1},
                            default=0)
    with pytest.raises(NeckCoverageError):
        special(t_f2_r8, net2_f2_r8, 1, chi)


def test_z2z3_special_sets(t_z23_r10):
    chi = make_end_function(t_z23_r10, 1, values_by_word={"s": 1, "t": 0})
    net = build_net(t_z23_r10, 1)
    report = special(t_z23_r10, net, 2, chi)
    assert report.K
    assert not report.warnings


# -- structural lemma properties --------------------------------------------------

def _classified_necks(t, chi, net, R):
    """``(center, class)`` of every neck of the survey of ``net`` at R."""
    survey = find_necks(t, net, R)
    masks = TraceMasks(t, chi)
    return [(x, classify_neck(survey, i, masks))
            for i, x in enumerate(survey.centers.tolist())]


@pytest.mark.parametrize("spec", [
    ("first_letter", 1, 1),
    ("suffix2", 2, 1),
    ("two_branch", 1, 1),
])
def test_overlapping_regular_necks_share_theta(t_f2_r6, spec):
    kind, rb, R = spec
    if kind == "first_letter":
        chi = make_end_function(t_f2_r6, rb, rule="first_letter:a")
    elif kind == "suffix2":
        chi = make_end_function(t_f2_r6, rb, values_by_word={"aa": 1, "bb": 1},
                                default=0)
    else:
        chi = make_end_function(t_f2_r6, rb, values_by_word={"a": 1, "b": 1},
                                default=0)
    net = build_net(t_f2_r6, 1)
    classified = _classified_necks(t_f2_r6, chi, net, R)
    regular = [(n, c) for n, c in classified if c.kind == "regular"]
    for i, (x1, c1) in enumerate(regular):
        for x2, c2 in regular[i + 1:]:
            # overlapping necks: their interiors meet
            if t_f2_r6.word_distance(x1, x2) <= 2 * R - 1:
                assert c1.theta == c2.theta, (
                    t_f2_r6.word(x1), t_f2_r6.word(x2))


def test_far_necks_are_regular_matching_their_cluster(t_f2_r8, net1_f2_r8):
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    classified = _classified_necks(t_f2_r8, chi, net1_f2_r8, 1)
    cls_of = oracles.class_of_vertex(t_f2_r8, chi)
    special = [x for x, c in classified if c.kind.startswith("special")]
    for x, c in classified:
        far = all(t_f2_r8.word_distance(x, s) > 2 for s in special)
        if far and t_f2_r8.dist[x] >= 1:
            assert c.kind == "regular"
            own = cls_of[x]
            if own >= 0:
                assert c.theta == chi.values[int(own)]


def test_saturated_type1_forces_disjoint_necks_regular(t_f2_r8, net1_f2_r8):
    # the identity neck of the first-letter data has every component a
    # cluster, so every neck with disjoint ball must be regular
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    classified = _classified_necks(t_f2_r8, chi, net1_f2_r8, 1)
    sat = [x for x, c in classified
           if x == 0 and c.kind == "special_type_1"
           and all(v is not None for v in c.verdicts)]
    assert sat
    for x, c in classified:
        if t_f2_r8.word_distance(0, x) > 2:
            assert c.kind == "regular"


def test_type2_windows_contain_type1_centers(t_f2_r8, net1_f2_r8):
    # suffix-length-3 data: the type-2 necks near the identity must see a
    # type-1 center inside each mixed component joined with the neck
    t = t_f2_r8
    chi = make_end_function(t, 3, values_by_word={"aaa": 1, "bbb": 1},
                            default=0)
    report = special(t, net1_f2_r8, 1, chi)
    assert report.K_II
    masks = TraceMasks(t, chi)
    survey = report.survey
    k1 = set(report.center_ids["K_I"])
    assert k1
    for c2 in report.center_ids["K_II"]:
        i = row_of(survey, c2)
        cls = classify_neck(survey, i, masks)
        removed = removed_mask(t, survey, i)
        for comp, verdict in zip(flood_members(t, survey, i), cls.verdicts):
            if verdict is not None:
                continue
            members = set(map(int, comp))
            window = members | set(map(int, np.flatnonzero(removed)))
            hits = [y for y in k1
                    if set(map(int, t.word_ball([y], 1))) <= window]
            assert hits, (t.word(c2), "no type-1 center in the component")


# -- partitions and dual graphs ----------------------------------------------------

def test_single_vertex_partition(t_f2_r6):
    part = partition_K(t_f2_r6, [0], PartitionParams(D=3, d=0))
    assert part.groups == [[0]]
    assert part.min_between_gap is None


def test_two_far_points_partition(t_f2_r8):
    a4 = vertex_by_word(t_f2_r8, "aaaa")
    part = partition_K(t_f2_r8, [0, a4], PartitionParams(D=3, d=0))
    assert part.groups == [[0], [a4]]
    assert part.min_between_gap == 4
    assert part.gap_ok and not part.diameter_flagged


def test_partition_matches_transitive_closure_oracle(t_z23_r10):
    t = t_z23_r10
    rng = np.random.default_rng(9)
    for _ in range(10):
        K = sorted(int(v) for v in rng.choice(t.n, size=6, replace=False))
        D = int(rng.integers(1, 5))
        part = partition_K(t, K, PartitionParams(D=D, d=0))
        # oracle: reflexive-transitive closure of the <=D relation
        import itertools
        groups = {v: {v} for v in K}
        changed = True
        while changed:
            changed = False
            for u, v in itertools.combinations(K, 2):
                if t.word_distance(u, v) <= D and groups[u] is not groups[v]:
                    merged = groups[u] | groups[v]
                    for w in merged:
                        groups[w] = merged
                    changed = True
        expected = sorted({tuple(sorted(g)) for g in groups.values()},
                          key=lambda g: g[0])
        assert [tuple(g) for g in part.groups] == expected


def test_dual_graph_single_group_is_star(t_f2_r6):
    dual = dual_graph(t_f2_r6, [[0]], 1)
    assert dual.is_tree
    assert len(dual.k_labels) == 1
    assert all(i == 0 for i, _ in dual.edges)


def test_dual_graph_e_a10_instance(f2):
    t = build_truncation(f2, 12)
    a10 = 0
    for _ in range(10):
        a10 = int(t.right_mult_table("a")[a10])
    part = partition_K(t, [0, a10], PartitionParams(D=3, d=0))
    dual = dual_graph(t, part.groups, 1, phi_bound=0)
    assert dual.n_nodes == 9
    assert dual.n_edges == 8
    assert dual.is_tree
    assert dual.separation_ok


def test_randomized_separated_partitions_give_trees(t_f2_r8, t_z23_r10):
    rng = np.random.default_rng(31)
    trees = 0
    trials = 0
    for t, phi_bound in ((t_f2_r8, 0), (t_z23_r10, 1)):
        interior = np.flatnonzero(t.dist <= t.radius - 3)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            anchors = []
            for v in rng.permutation(interior):
                v = int(v)
                if all(t.word_distance(v, u) > 4 + 2 * phi_bound
                       for u in anchors):
                    anchors.append(v)
                if len(anchors) == k:
                    break
            part = partition_K(t, anchors, PartitionParams(D=2, d=2))
            dual = dual_graph(t, part.groups, 1, phi_bound=phi_bound)
            trials += 1
            if dual.is_tree:
                trees += 1
    assert trees == trials == 50


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_dual_graph_matches_the_closure_flood(case):
    # sizes, shell flags and edges come from the complement's labels;
    # the oracle floods and tests each component's closure against every
    # group ball, bounded components and touching balls included
    p, rho = _LAYOUT_CASES[case]
    t = build_truncation(p, min(rho, 6))
    adj = oracles.adjacency_dict(t)
    rng = np.random.default_rng(13)
    for R in (1, 2):
        window = np.flatnonzero(t.dist <= t.radius - R)
        for _ in range(12):
            # centers near one another, which can cut off bounded pieces
            near = t.word_ball([int(rng.choice(window))], 2)
            near = near[t.dist[near] <= t.radius - R]
            picks = rng.choice(near, size=min(len(near),
                                              int(rng.integers(1, 7))),
                               replace=False).tolist()
            cut = sorted(rng.choice(len(picks), size=min(2, len(picks) - 1),
                                    replace=False).tolist())
            groups = [g for g in np.split(picks, cut) if len(g)]
            groups = [sorted(map(int, g)) for g in groups]
            dual = dual_graph(t, groups, R)
            sizes, shell, edges = oracles.flood_dual_graph(t, adj, groups, R)
            assert (dual.c_sizes, dual.c_unbounded, dual.edges) == \
                (sizes, shell, edges), (case, R, groups)
            n_k = len(groups)
            assert dual.is_tree == oracles.is_tree(
                n_k + len(sizes), [(i, n_k + j) for i, j in edges])


def test_dual_graph_dot_roundtrip(t_f2_r6):
    dual = dual_graph(t_f2_r6, [[0]], 1)
    nodes, edges = oracles.parse_dot(dual_graph_dot(dual))
    assert len(nodes) == dual.n_nodes
    assert len(edges) == dual.n_edges


# -- gap certificates ---------------------------------------------------------------

def test_certificate_on_identity_neck(h_first_letter_r8, net2_f2_r8):
    h = h_first_letter_r8
    t = h.truncation
    chi = h.boundary_spec
    survey = find_necks(t, net2_f2_r8, 1)
    cert = gap_certificate(h, survey, row_of(survey, 0), TraceMasks(t, chi))
    assert cert.mu > 0
    assert cert.drop >= 0.8
    assert cert.mu <= cert.region_energy + 1e-12
    assert cert.region_energy <= energy(h).total + 1e-12
    # the witness path really walks the truncation
    for u, v in zip(cert.witness_path, cert.witness_path[1:]):
        assert v in t.nbr[u].tolist()
    assert cert.mu == pytest.approx(
        (cert.drop / (len(cert.witness_path) - 1)) ** 2, rel=1e-12)


def test_flat_field_yields_degenerate_drop(t_f2_r8, net2_f2_r8):
    from ends_splitter.harmonic import HarmonicField
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    flat = HarmonicField(truncation=t_f2_r8,
                         values=np.full(t_f2_r8.n, 0.5),
                         boundary_spec=chi, residual=0.0, iterations=0)
    survey = find_necks(t_f2_r8, net2_f2_r8, 1)
    with pytest.raises(DegenerateDrop):
        gap_certificate(flat, survey, row_of(survey, 0),
                        TraceMasks(t_f2_r8, chi))


def test_certificate_rejects_regular_neck(h_first_letter_r8, net1_f2_r8):
    h = h_first_letter_r8
    t = h.truncation
    survey = find_necks(t, net1_f2_r8, 1)
    b_id = vertex_by_word(t, "b")
    with pytest.raises(EndsSplitterError):
        gap_certificate(h, survey, row_of(survey, b_id),
                        TraceMasks(t, h.boundary_spec))


def test_disjoint_type1_certificates_have_disjoint_regions(t_f2_r8,
                                                           net1_f2_r8):
    t = t_f2_r8
    chi = make_end_function(t, 3, values_by_word={"aaa": 1, "bbb": 1},
                            default=0)
    h = solve_dirichlet(t, chi)
    report = special(t, net1_f2_r8, 1, chi)
    k1 = report.center_ids["K_I"]
    assert len(k1) == 2
    a, b = k1
    assert t.word_distance(a, b) > 2
    survey = report.survey
    certs = [gap_certificate(h, survey, row_of(survey, x), report.masks)
             for x in k1]
    eu, ev, _ = t.edges()
    edges0, edges1 = (c.region[eu] & c.region[ev] for c in certs)
    assert not (edges0 & edges1).any()
    assert certs[0].mu + certs[1].mu <= energy(h).total + 1e-12


def test_certificate_regions_are_charged_through_energy(t_f2_r8,
                                                      net1_f2_r8):
    # the two-K_I F2 r8 case, and Z/12*Z r8, whose ball cuts cycles: each
    # region holds the witness path and its neighbours, and its energy is
    # the edge table's sum over the region's PartialField, bit for bit
    from ends_splitter import cli

    scn = cli.load_scenario(os.path.join(os.path.dirname(__file__), "data",
                                         "golden", "necks-z12z-r8.json"))
    t = build_truncation(scn.presentation, scn.truncation_radius)
    cases = [(t_f2_r8, net1_f2_r8, 1,
              make_end_function(t_f2_r8, 3, default=0,
                                values_by_word={"aaa": 1, "bbb": 1})),
             (t, build_net(t, scn.net_delta), scn.neck_R,
              scn.resolve_chi(t))]
    for t, net, R, chi in cases:
        h = solve_dirichlet(t, chi)
        report = special(t, net, R, chi)
        survey = report.survey
        certs = [gap_certificate(h, survey, row_of(survey, x), report.masks)
                 for x in report.center_ids["K_I"]]
        assert certs
        for cert in certs:
            nb = t.nbr[cert.witness_path]
            assert cert.region[cert.witness_path].all()
            assert cert.region[nb[nb >= 0]].all()
            region = PartialField(t, h.values, cert.region)
            assert cert.region_energy == oracles.edge_energy(region)


def test_energy_gap_bracket_singleton(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    net = build_net(t_f2_r6, 2)
    bracket = energy_gap_estimate(t_f2_r6, net, 1, [chi])
    assert len(bracket.rows) == 1
    assert bracket.certified_mu == bracket.rows[0]["mu"]
    assert bracket.min_observed_energy == bracket.rows[0]["energy"]
    assert 0 < bracket.certified_mu <= bracket.min_observed_energy


def test_energy_gap_bracket_exhaustive(t_f2_r6):
    from ends_splitter.ends import all_nonconstant_end_functions
    net = build_net(t_f2_r6, 2)
    chis = all_nonconstant_end_functions(t_f2_r6, 1)
    bracket = energy_gap_estimate(t_f2_r6, net, 1, chis)
    assert len(bracket.rows) == 14
    assert bracket.certified_mu <= bracket.min_observed_energy
    # minimal energy is attained by a single-branch assignment
    best = min(bracket.rows, key=lambda r: r["energy"])
    assert sorted(best["chi"].values()) in ([0, 0, 0, 1], [0, 1, 1, 1])
    for row in bracket.rows:
        assert 0 < row["mu"] <= row["energy"] + 1e-12
        assert row["k1_size"] <= row["kappa_bound"]


def test_energy_gap_surveys_once_and_matches_per_chi_runs(t_f2_r6,
                                                          monkeypatch):
    from ends_splitter import necks
    from ends_splitter.ends import all_nonconstant_end_functions

    net = build_net(t_f2_r6, 2)
    chis = all_nonconstant_end_functions(t_f2_r6, 1)[:5]
    calls = []
    find_necks = necks.find_necks

    def counted_find_necks(*args, **kwargs):
        calls.append("find_necks")
        return find_necks(*args, **kwargs)

    class CountedMasks(necks.TraceMasks):
        def __init__(self, t, chi):
            calls.append("masks")
            super().__init__(t, chi)

    passes = necks._trace_passes

    def counted_passes(t, table):
        calls.append("passes")
        return passes(t, table)

    monkeypatch.setattr(necks, "find_necks", counted_find_necks)
    monkeypatch.setattr(necks, "TraceMasks", CountedMasks)
    monkeypatch.setattr(necks, "_trace_passes", counted_passes)
    # on a fresh truncation: the passes run once for the base radius,
    # however many end functions read them
    t = build_truncation(Presentation.free(2), 6)
    rows = energy_gap_estimate(
        t, build_net(t, 2), 1, all_nonconstant_end_functions(t, 1)[:5]).rows
    assert calls.count("passes") == 1
    calls.clear()
    bracket = energy_gap_estimate(t_f2_r6, net, 1, chis)
    assert bracket.rows == rows
    assert calls.count("find_necks") == 1
    assert calls.count("masks") == len(chis)
    monkeypatch.undo()

    # each chi on its own: its own survey and its own masks
    for chi, row in zip(chis, bracket.rows):
        h = solve_dirichlet(t_f2_r6, chi)
        report = special(t_f2_r6, net, 1, chi)
        masks = TraceMasks(t_f2_r6, chi)
        survey = report.survey
        mus = [gap_certificate(h, survey, i, masks).mu
               for i, x in enumerate(survey.centers.tolist())
               if x in report.center_ids["K_I"]]
        assert row["energy"] == energy(h).total
        assert row["k1_size"] == len(report.K_I)
        assert row["mu"] == max(mus)


def test_gap_rows_are_the_same_run_together_or_one_at_a_time():
    # the end classes and every end function's K_I ball system remove {e};
    # each labels its complement afresh, and the truncation keeps none
    t = build_truncation(Presentation.free_product_of_cyclics([3, 0]), 7)
    net = build_net(t, 2)
    chis = all_nonconstant_end_functions(t, 1)
    first = energy_gap_estimate(t, net, 1, chis).rows
    assert energy_gap_estimate(t, net, 1, chis).rows == first
    for chi, row in zip(chis, first):
        assert energy_gap_estimate(t, net, 1, [chi]).rows == [row]
    assert "complement" not in t._caches


def test_special_sets_reuse_the_survey_center_words(t_f2_r6, monkeypatch):
    from ends_splitter.ends import all_nonconstant_end_functions
    from ends_splitter.groups import Truncation

    t = t_f2_r6
    net = build_net(t, 2)
    chis = all_nonconstant_end_functions(t, 1)[:4]
    want = [special(t, net, 1, chi).to_json_dict() for chi in chis]
    survey = find_necks(t, net, 1)
    assert survey.center_words == [t.word(x) for x in survey.centers.tolist()]
    rendered = []
    word = Truncation.word

    def counted_word(self, v):
        rendered.append(int(v))
        return word(self, v)

    monkeypatch.setattr(Truncation, "word", counted_word)
    got = [special_sets(t, survey, chi).to_json_dict() for chi in chis]
    assert got == want
    assert rendered == []


def test_special_sets_floods_independently_of_the_centers(monkeypatch):
    # the survey reads every neck off the block tree: the one complement
    # left is the structural check's, read as labels, and no component
    # keeps its members
    from ends_splitter import ends, necks

    t = build_truncation(Presentation.free_product_of_cyclics([3, 0]), 8)
    chi = make_end_function(t, 1, values_by_word={"s": 0, "t": 1, "T": 0})
    calls = []
    labels = necks.complement_labels

    def counted_labels(*args, **kwargs):
        calls.append(1)
        return labels(*args, **kwargs)

    def no_components(*args, **kwargs):
        raise AssertionError("special_sets grouped a complement")

    monkeypatch.setattr(necks, "complement_labels", counted_labels)
    # necks imports no grouping; any caller would reach it through ends
    monkeypatch.setattr(ends, "complement_components", no_components)
    passes, centers = [], []
    for spacing in (1, 2):
        calls.clear()
        report = special(t, build_net(t, spacing), 1, chi)
        passes.append(len(calls))
        centers.append(report.survey.centers_considered)
    assert centers[0] > centers[1]
    assert passes == [1, 1]


def test_necks_command_floods_no_component(tmp_path, monkeypatch):
    # the survey and its classification read arrays alone: a component is
    # flooded only when a gap certificate asks the survey for it
    from ends_splitter import cli

    surveys = []

    def kept_find_necks(*args, **kwargs):
        surveys.append(find_necks(*args, **kwargs))
        return surveys[-1]

    monkeypatch.setattr(cli, "find_necks", kept_find_necks)
    scenario = os.path.join(os.path.dirname(__file__), "data", "golden",
                            "necks-z12z-r8.json")
    assert cli.main(["necks", "--scenario", scenario,
                     "--out", str(tmp_path)]) == 0
    assert len(surveys) == 1 and len(surveys[0].centers)
    assert surveys[0]._floods == {}


def test_gap_floods_each_component_once_over_all_end_functions(
        monkeypatch):
    # F2 r8, all 14 end functions: the BFS runs are the cover check, one
    # witness path per certificate, one per flooded component and one per
    # component whose layers a certificate read, so no (row, component)
    # is flooded twice
    from ends_splitter.groups import Truncation

    t = build_truncation(Presentation.free(2), 8)
    calls, certs, surveys = [], [], []
    distances = Truncation.graph_distances_from

    def counted_distances(self, *args, **kwargs):
        calls.append(1)
        return distances(self, *args, **kwargs)

    def kept_find_necks(*args, **kwargs):
        surveys.append(find_necks(*args, **kwargs))
        return surveys[-1]

    def counted_certificate(h, survey, i, masks):
        certs.append(i)
        return gap_certificate(h, survey, i, masks)

    monkeypatch.setattr(Truncation, "graph_distances_from",
                        counted_distances)
    monkeypatch.setattr(necks, "find_necks", kept_find_necks)
    monkeypatch.setattr(necks, "gap_certificate", counted_certificate)
    chis = all_nonconstant_end_functions(t, 1)
    assert len(chis) == 14
    energy_gap_estimate(t, build_net(t, 2), 1, chis)
    floods = surveys[0]._floods.values()
    layered = sum(layers is not None for _, layers in floods)
    assert len(certs) >= len(chis) and layered
    assert len(calls) == 1 + len(certs) + len(floods) + layered
