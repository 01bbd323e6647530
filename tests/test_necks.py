import dataclasses

import numpy as np
import pytest

from ends_splitter.errors import (
    DegenerateDrop,
    EndsSplitterError,
    NeckCoverageError,
)
from ends_splitter.ends import end_classes, make_end_function
from ends_splitter.groups import (
    Presentation,
    build_net,
    build_truncation,
    path_truncation,
)
from ends_splitter.harmonic import energy, solve_dirichlet
from ends_splitter.necks import (
    SHELL,
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
from test_groups import _LAYOUT_CASES


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
    assert len(survey.necks) == expected == survey.centers_considered
    assert all(n.unbounded_count() == 4 for n in survey.necks)
    assert survey.cover_ok


def test_neck_components_match_bruteforce_on_z2z3(t_z23_r10):
    t = t_z23_r10
    net = build_net(t, 1)
    survey = find_necks(t, net, 2)
    adj = oracles.adjacency_dict(t)
    shell = set(int(v) for v in t.shell_ids())
    assert survey.necks
    for neck in survey.necks:
        removed = t.word_ball([neck.center], 1)
        comps = oracles.flood_components(adj, removed)
        unbounded = [c for c in comps if any(v in shell for v in c)]
        assert neck.unbounded_count() == len(unbounded)
        assert len(unbounded) >= 3
    # and the survey found every qualifying center
    window = survey.window_distance
    for x in range(t.n):
        if t.dist[x] > window:
            continue
        removed = t.word_ball([x], 1)
        comps = oracles.flood_components(adj, removed)
        unbounded = sum(1 for c in comps if any(v in shell for v in c))
        found = any(n.center == x for n in survey.necks)
        assert found == (unbounded >= 3)


def test_window_too_small_is_rejected(t_f2_r4):
    net = build_net(t_f2_r4, 1)
    with pytest.raises(EndsSplitterError):
        find_necks(t_f2_r4, net, 2)


# -- classification ------------------------------------------------------------

def test_identity_neck_is_type1_and_b_neck_regular(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    net = build_net(t_f2_r6, 1)
    survey = find_necks(t_f2_r6, net, 1)
    by_center = {n.center: n for n in survey.necks}
    masks = TraceMasks(t_f2_r6, chi)
    cls_e = classify_neck(t_f2_r6, by_center[0], chi, tree_masks=masks)
    assert cls_e.kind == "special_type_1"
    b_id = vertex_by_word(t_f2_r6, "b")
    cls_b = classify_neck(t_f2_r6, by_center[b_id], chi,
                          tree_masks=masks)
    assert cls_b.kind == "regular" and cls_b.theta == 0


def _assert_masks_match_the_flood(t, chi):
    net = build_net(t, 1)
    survey = find_necks(t, net, 1)
    masks = TraceMasks(t, chi)
    assert survey.necks
    for neck in survey.necks:
        comps = oracles.flood_neck_components(t, neck.center, neck.R)
        verdicts, label = oracles.flood_neck_label(t, chi, comps)
        fast = classify_neck(t, neck, chi, tree_masks=masks)
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


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_block_tree_survey_matches_the_flood(case):
    # margin 0 takes centers up to the shell's neighborhood, where the
    # truncation cuts the cycles the components are read from
    p, rho = _LAYOUT_CASES[case]
    t = build_truncation(p, min(rho, 6))
    chis = _survey_chis(t)
    masks = [TraceMasks(t, chi) for chi in chis]
    rng = np.random.default_rng(7)
    for R in (1, 2, 3):
        survey = find_necks(t, build_net(t, 1), R, margin=0)
        necks = {n.center: n for n in survey.necks}
        window = np.flatnonzero(t.dist <= survey.window_distance)
        assert set(necks) <= set(window.tolist())
        for x in rng.permutation(window)[:60].tolist():
            comps = oracles.flood_neck_components(t, x, R)
            assert (x in necks) == (sum(c.unbounded for c in comps) >= 3)
            if x not in necks:
                continue
            neck = necks[x]
            assert neck.unbounded_count() == sum(c.unbounded for c in comps)
            assert len(neck.components) == len(comps)
            removed = neck.removed_mask(t)
            for ours, theirs in zip(neck.components, comps):
                assert ours.unbounded == theirs.unbounded
                assert np.array_equal(ours.materialize(t, removed),
                                      theirs.members)
            for chi, m in zip(chis, masks):
                cls = classify_neck(t, neck, chi, tree_masks=m)
                verdicts, label = oracles.flood_neck_label(t, chi, comps)
                assert list(cls.verdicts) == verdicts, (t.word(x), R)
                assert cls.label() == label


def test_trace_masks_count_a_root_on_the_shell():
    # the path stand-in has its root on the shell, unlike any ball of a
    # group: everything outside the cone of vertex 1 is that root
    t = path_truncation(4)
    masks = TraceMasks(t)
    assert masks.up[1] == SHELL and masks.down[1] == SHELL
    assert masks.up[5] == SHELL and masks.down[5] == SHELL


def test_two_branch_chi_has_singleton_k1(t_f2_r8, net1_f2_r8):
    # both selected branches meet at the identity: exhaustive scan finds
    # exactly one type-1 center even with every vertex in the net
    chi = make_end_function(t_f2_r8, 1, values_by_word={"a": 1, "b": 1},
                            default=0)
    report = special_sets(t_f2_r8, net1_f2_r8, 1, chi)
    assert report.K_I == ["e"]
    assert report.K_II == []


def test_special_sets_with_r_net(t_f2_r8, net2_f2_r8):
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    report = special_sets(t_f2_r8, net2_f2_r8, 1, chi)
    assert report.K_I == ["e"]
    assert report.K_II == []
    assert report.cover_ok
    assert not report.warnings
    # every surveyed neck received exactly one class
    assert len(report.classes) == len(report.survey.necks)
    assert all(c in ("regular_0", "regular_1", "special_type_1",
                     "special_type_2")
               for c in report.classes.values())


def test_special_sets_with_full_net_sees_both_transition_endpoints(
        t_f2_r8, net1_f2_r8):
    # with spacing 1 both endpoints of the 0/1 transition edge qualify
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    report = special_sets(t_f2_r8, net1_f2_r8, 1, chi)
    assert sorted(report.K_I) == ["a", "e"]
    assert report.K_II == []


def test_suffix2_scenario_has_type2_locus(t_f2_r8, net1_f2_r8):
    chi = make_end_function(t_f2_r8, 2, values_by_word={"aa": 1, "bb": 1},
                            default=0)
    report = special_sets(t_f2_r8, net1_f2_r8, 1, chi)
    assert sorted(report.K_I) == ["a", "b"]
    assert report.K_II == ["e"]


def test_sparse_net_missing_the_locus_raises(t_f2_r8, net2_f2_r8):
    chi = make_end_function(t_f2_r8, 2, values_by_word={"aa": 1, "bb": 1},
                            default=0)
    with pytest.raises(NeckCoverageError):
        special_sets(t_f2_r8, net2_f2_r8, 1, chi)


def test_z2z3_special_sets(t_z23_r10):
    chi = make_end_function(t_z23_r10, 1, values_by_word={"s": 1, "t": 0})
    net = build_net(t_z23_r10, 1)
    report = special_sets(t_z23_r10, net, 2, chi)
    assert report.K
    assert not report.warnings


# -- structural lemma properties --------------------------------------------------

def _classified_necks(t, chi, net, R):
    survey = find_necks(t, net, R)
    masks = TraceMasks(t, chi)
    return [(n, classify_neck(t, n, chi, tree_masks=masks))
            for n in survey.necks]


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
    for i, (n1, c1) in enumerate(regular):
        for n2, c2 in regular[i + 1:]:
            # overlapping necks: their interiors meet
            if t_f2_r6.word_distance(n1.center, n2.center) <= 2 * R - 1:
                assert c1.theta == c2.theta, (
                    t_f2_r6.word(n1.center), t_f2_r6.word(n2.center))


def test_far_necks_are_regular_matching_their_cluster(t_f2_r8, net1_f2_r8):
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    classified = _classified_necks(t_f2_r8, chi, net1_f2_r8, 1)
    cls_of = chi.class_of_vertex(t_f2_r8)
    special = [n.center for n, c in classified if c.kind.startswith("special")]
    for n, c in classified:
        far = all(t_f2_r8.word_distance(n.center, s) > 2 for s in special)
        if far and t_f2_r8.dist[n.center] >= 1:
            assert c.kind == "regular"
            own = cls_of[n.center]
            if own >= 0:
                assert c.theta == chi.values[int(own)]


def test_saturated_type1_forces_disjoint_necks_regular(t_f2_r8, net1_f2_r8):
    # the identity neck of the first-letter data has every component a
    # cluster, so every neck with disjoint ball must be regular
    chi = make_end_function(t_f2_r8, 1, rule="first_letter:a")
    classified = _classified_necks(t_f2_r8, chi, net1_f2_r8, 1)
    sat = [n for n, c in classified
           if n.center == 0 and c.kind == "special_type_1"
           and all(v is not None for v in c.verdicts)]
    assert sat
    for n, c in classified:
        if t_f2_r8.word_distance(0, n.center) > 2:
            assert c.kind == "regular"


def test_type2_windows_contain_type1_centers(t_f2_r8, net1_f2_r8):
    # suffix-length-3 data: the type-2 necks near the identity must see a
    # type-1 center inside each mixed component joined with the neck
    t = t_f2_r8
    chi = make_end_function(t, 3, values_by_word={"aaa": 1, "bbb": 1},
                            default=0)
    report = special_sets(t, net1_f2_r8, 1, chi)
    assert report.K_II
    masks = TraceMasks(t, chi)
    survey = report.survey
    by_center = {n.center: n for n in survey.necks}
    k1 = set(report.center_ids["K_I"])
    assert k1
    for c2 in report.center_ids["K_II"]:
        neck = by_center[c2]
        cls = classify_neck(t, neck, chi, tree_masks=masks)
        removed_mask = neck.removed_mask(t)
        unbounded = [c for c in neck.components if c.unbounded]
        for comp, verdict in zip(unbounded, cls.verdicts):
            if verdict is not None:
                continue
            members = set(map(int, comp.materialize(t, removed_mask)))
            window = members | set(map(int, np.flatnonzero(removed_mask)))
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
    neck = [n for n in survey.necks if n.center == 0][0]
    cert = gap_certificate(h, neck, chi, tree_masks=TraceMasks(t, chi))
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
    neck = [n for n in survey.necks if n.center == 0][0]
    with pytest.raises(DegenerateDrop):
        gap_certificate(flat, neck, chi,
                        tree_masks=TraceMasks(t_f2_r8, chi))


def test_certificate_rejects_regular_neck(h_first_letter_r8, net1_f2_r8):
    h = h_first_letter_r8
    t = h.truncation
    survey = find_necks(t, net1_f2_r8, 1)
    b_id = vertex_by_word(t, "b")
    neck = [n for n in survey.necks if n.center == b_id][0]
    with pytest.raises(EndsSplitterError):
        gap_certificate(h, neck, h.boundary_spec,
                        tree_masks=TraceMasks(t, h.boundary_spec))


def test_disjoint_type1_certificates_have_disjoint_regions(t_f2_r8,
                                                           net1_f2_r8):
    t = t_f2_r8
    chi = make_end_function(t, 3, values_by_word={"aaa": 1, "bbb": 1},
                            default=0)
    h = solve_dirichlet(t, chi)
    report = special_sets(t, net1_f2_r8, 1, chi)
    k1 = report.center_ids["K_I"]
    assert len(k1) == 2
    a, b = k1
    assert t.word_distance(a, b) > 2
    survey = report.survey
    masks = TraceMasks(t, chi)
    certs = []
    for center in k1:
        neck = [n for n in survey.necks if n.center == center][0]
        certs.append(gap_certificate(h, neck, chi, tree_masks=masks))
    overlap = certs[0].region_edges & certs[1].region_edges
    assert not overlap.any()
    assert certs[0].mu + certs[1].mu <= energy(h).total + 1e-12


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
        def __init__(self, t, chi=None):
            if chi is not None:     # the survey's own masks carry no chi
                calls.append("masks")
            super().__init__(t, chi)

    monkeypatch.setattr(necks, "find_necks", counted_find_necks)
    monkeypatch.setattr(necks, "TraceMasks", CountedMasks)
    bracket = energy_gap_estimate(t_f2_r6, net, 1, chis)
    assert calls.count("find_necks") == 1
    assert calls.count("masks") == len(chis)
    monkeypatch.undo()

    # each chi on its own: its own survey and its own masks
    for chi, row in zip(chis, bracket.rows):
        h = solve_dirichlet(t_f2_r6, chi)
        report = special_sets(t_f2_r6, net, 1, chi)
        masks = TraceMasks(t_f2_r6, chi)
        mus = [gap_certificate(h, neck, chi, tree_masks=masks).mu
               for neck in report.survey.necks
               if neck.center in report.center_ids["K_I"]]
        assert row["energy"] == energy(h).total
        assert row["k1_size"] == len(report.K_I)
        assert row["mu"] == max(mus)


def test_special_sets_reuse_the_survey_center_words(t_f2_r6, monkeypatch):
    from ends_splitter.ends import all_nonconstant_end_functions
    from ends_splitter.groups import Truncation

    t = t_f2_r6
    net = build_net(t, 2)
    chis = all_nonconstant_end_functions(t, 1)[:4]
    want = [special_sets(t, net, 1, chi).to_json_dict() for chi in chis]
    survey = find_necks(t, net, 1)
    assert survey.center_words == [t.word(n.center) for n in survey.necks]
    rendered = []
    word = Truncation.word

    def counted_word(self, v):
        rendered.append(int(v))
        return word(self, v)

    monkeypatch.setattr(Truncation, "word", counted_word)
    got = [special_sets(t, net, 1, chi, survey=survey).to_json_dict()
           for chi in chis]
    assert got == want
    assert rendered == []


def test_special_sets_floods_independently_of_the_centers(monkeypatch):
    # the survey reads every neck off the block tree: the floods left are
    # the structural check's, and no component keeps its members
    from ends_splitter import ends, necks

    t = build_truncation(Presentation.free_product_of_cyclics([3, 0]), 8)
    chi = make_end_function(t, 1, values_by_word={"s": 0, "t": 1, "T": 0})
    calls = []
    flood = ends.complement_components

    def counted_flood(*args, **kwargs):
        calls.append(1)
        return flood(*args, **kwargs)

    monkeypatch.setattr(ends, "complement_components", counted_flood)
    monkeypatch.setattr(necks, "complement_components", counted_flood)
    floods, centers = [], []
    for spacing in (1, 2):
        calls.clear()
        report = special_sets(t, build_net(t, spacing), 1, chi)
        floods.append(len(calls))
        centers.append(report.survey.centers_considered)
        assert not any(isinstance(getattr(c, f.name), np.ndarray)
                       for n in report.survey.necks for c in n.components
                       for f in dataclasses.fields(c))
    assert centers[0] > centers[1]
    assert floods[0] == floods[1] <= 1
