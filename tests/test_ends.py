import re

import numpy as np
import pytest

from ends_splitter.errors import EndsSplitterError, ScenarioError
from ends_splitter.ends import (
    all_nonconstant_end_functions,
    complement_components,
    end_classes,
    make_end_function,
)

from ends_splitter.groups import build_truncation, path_truncation

import oracles
from oracles import is_cluster, refine_end_classes
from test_groups import _LAYOUT_CASES


# -- complement components -------------------------------------------------------

def test_remove_identity_gives_four_unbounded_branches(t_f2_r6):
    comps = complement_components(t_f2_r6, [0])
    assert len(comps) == 4
    assert all(c.unbounded for c in comps)
    # deterministic order by smallest member id
    assert [int(c.members[0]) for c in comps] == sorted(
        int(c.members[0]) for c in comps)


def test_remove_nothing_gives_one_component(t_f2_r6):
    comps = complement_components(t_f2_r6, [])
    assert len(comps) == 1
    assert comps[0].unbounded


def test_remove_everything_gives_empty_list(t_f2_r6):
    assert complement_components(t_f2_r6, np.arange(t_f2_r6.n)) == []


def test_removing_a_closed_ball_splits_at_its_sphere(t_f2_r6):
    # literal removal of the closed 1-ball severs each branch into three
    removed = np.flatnonzero(t_f2_r6.dist <= 1)
    comps = complement_components(t_f2_r6, removed)
    assert len(comps) == 12


def _assert_components_match_oracle(t, adj, removed):
    """Members and unbounded flags against a plain flood fill over the
    adjacency dict."""
    ours = complement_components(t, removed)
    theirs = oracles.flood_components(adj, removed)
    assert [list(map(int, c.members)) for c in ours] == theirs
    shell = set(map(int, t.shell_ids()))
    for c, members in zip(ours, theirs):
        assert c.unbounded == any(v in shell for v in members)
    return ours


def test_components_match_independent_flood_fill(t_z23_r8):
    t = t_z23_r8
    adj = oracles.adjacency_dict(t)
    _assert_components_match_oracle(t, adj, t.word_ball([0], 2))


@pytest.mark.parametrize("seed", range(10))
def test_randomized_components_agree_with_oracle(seed, t_f2_r4, t_z23_r8):
    rng = np.random.default_rng(seed)
    t = t_f2_r4 if seed % 2 else t_z23_r8
    adj = oracles.adjacency_dict(t)
    for _ in range(10):
        k = int(rng.integers(0, 8))
        removed = rng.choice(t.n, size=k, replace=False) if k else []
        ours = _assert_components_match_oracle(t, adj, removed)
        # partition property
        total = sum(len(c.members) for c in ours) + len(set(map(int, removed)))
        assert total == t.n


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_block_tree_labels_match_the_flood(case):
    # members, their order and the unbounded flags, for the parent-pass
    # labels joined across the cycles, on every presentation layout
    p, rho = _LAYOUT_CASES[case]
    t = build_truncation(p, rho)
    adj = oracles.adjacency_dict(t)
    rng = np.random.default_rng(5)
    removed_sets = [[], np.arange(t.n)]
    for _ in range(3):
        removed_sets.append(np.flatnonzero(rng.random(t.n) < 0.1))
    for R in (1, 2, 3):
        window = np.flatnonzero(t.dist <= t.radius - R)
        for k in (1, 2, 3):
            centers = rng.choice(window, size=min(k, len(window)),
                                 replace=False)
            removed_sets.append(t.word_ball(centers, R - 1))
    for removed in removed_sets:
        _assert_components_match_oracle(t, adj, removed)


# -- end classes -------------------------------------------------------------------

def test_end_class_counts(t_f2_r6):
    assert len(end_classes(t_f2_r6, 1)) == 4
    assert len(end_classes(t_f2_r6, 2)) == 12


@pytest.mark.parametrize("make", [
    *[lambda case=case: build_truncation(*_LAYOUT_CASES[case])
      for case in sorted(_LAYOUT_CASES)],
    lambda: path_truncation(5),
], ids=[*sorted(_LAYOUT_CASES), "path5"])
def test_end_classes_read_off_one_table_are_the_components(make):
    # each class's members, size and shell flag, read off the shared
    # class table, are those of the complement of B_{r-1} grouped by the
    # component engine; the path's shell holds vertex 0, inside B_{r-1}
    t = make()
    for r in (1, 2, 3):
        classes = end_classes(t, r)
        comps = complement_components(t, np.flatnonzero(t.dist < r))
        assert len(classes) == len(comps)
        for c, comp in zip(classes, comps):
            assert c.members.dtype == np.int32
            assert c.members.tolist() == comp.members.tolist()
            assert (c.size, c.unbounded) == (comp.size, comp.unbounded)
        table = classes[0].table
        assert all(c.table is table for c in classes)
        assert (table[t.dist < r] == -1).all()
        assert table.dtype == (np.int8 if len(classes) <= 128 else np.int16)


def test_end_class_radius_guard(t_f2_r6):
    with pytest.raises(ValueError):
        end_classes(t_f2_r6, 0)
    with pytest.raises(ValueError):
        end_classes(t_f2_r6, 6)


def test_end_classes_refine(t_f2_r6):
    coarse = end_classes(t_f2_r6, 1)
    fine = end_classes(t_f2_r6, 3)
    mapping = refine_end_classes(t_f2_r6, coarse, fine)
    assert len(mapping) == len(fine)
    owners = set(mapping.values())
    assert owners == {c.id for c in coarse}


def test_end_class_serialization(t_f2_r6):
    c = end_classes(t_f2_r6, 1)[0]
    s = c.summary()
    assert set(s) == {"id", "base_radius", "representative_vertex_word",
                      "size", "unbounded"}
    assert s["unbounded"] is True


# -- end functions and clusters ------------------------------------------------------

def test_end_function_totality_enforced(t_f2_r6):
    with pytest.raises(EndsSplitterError, match="no value"):
        make_end_function(t_f2_r6, 1, values_by_word={"a": 1})
    with pytest.raises(EndsSplitterError, match="unknown end classes"):
        make_end_function(t_f2_r6, 1, values_by_word={"zz": 1}, default=0)


@pytest.mark.parametrize("values, default", [
    ({"a": 1, "A": 0.7, "b": 0, "B": 0}, None),
    ({"a": 1, "A": [0]}, 0),
    ({"a": True}, 0),
    ({"a": "1"}, 0),
    ({"a": 1}, 2),
    ({"a": 1}, "x"),
])
def test_end_function_values_must_be_integer_0_or_1(t_f2_r6, values, default):
    with pytest.raises(ScenarioError, match="integer 0 or 1"):
        make_end_function(t_f2_r6, 1, values_by_word=values, default=default)


def test_end_function_accepts_numpy_integers(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, values_by_word={"a": np.int64(1)},
                            default=np.int8(0))
    assert chi.assignments_by_word() == {"a": 1, "A": 0, "b": 0, "B": 0}


def test_first_letter_rule(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:b")
    assert chi.assignments_by_word() == {"a": 0, "A": 0, "b": 1, "B": 0}
    assert chi.nonconstant


@pytest.mark.parametrize("rule", ["first_letter:zz", "first_letter:s",
                                  "first_letter:"])
def test_first_letter_rule_refuses_unknown_generators(t_f2_r6, rule):
    with pytest.raises(ScenarioError, match=re.escape(repr(rule))):
        make_end_function(t_f2_r6, 1, rule=rule)


def test_shell_values_are_int8_class_values(t_f2_r6):
    t = t_f2_r6
    chi = make_end_function(t, 2, rule="first_letter:a")
    vals = chi.shell_values(t)
    assert vals.dtype == np.int8
    want = np.full(t.n, -1)
    for c in chi.classes:
        want[c.members] = chi.values[c.id]
    assert set(chi.values.values()) == {0, 1}
    assert vals.tolist() == want.tolist()


def test_all_nonconstant_count(t_f2_r6):
    fns = all_nonconstant_end_functions(t_f2_r6, 1)
    assert len(fns) == 14
    with pytest.raises(EndsSplitterError, match="exceed"):
        all_nonconstant_end_functions(t_f2_r6, 2, limit=100)


def test_cluster_verdicts(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    vals = chi.shell_values(t_f2_r6)
    classes = end_classes(t_f2_r6, 1)
    verdicts = {c.representative_word: is_cluster(t_f2_r6, vals, c)
                for c in classes}
    assert verdicts == {"a": 1, "A": 0, "b": 0, "B": 0}


def test_cluster_constant_chi(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, values_by_word={}, default=1)
    vals = chi.shell_values(t_f2_r6)
    for c in end_classes(t_f2_r6, 1):
        assert is_cluster(t_f2_r6, vals, c) == 1


def test_mixed_component_is_not_a_cluster(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    # removing the vertex "b" leaves a component through the identity that
    # sees both values
    b_id = 3
    comps = complement_components(t_f2_r6, [b_id])
    vals = chi.shell_values(t_f2_r6)
    backward = [c for c in comps if 0 in c.members][0]
    assert is_cluster(t_f2_r6, vals, backward) is None
    forward = [c for c in comps if 0 not in c.members]
    assert all(is_cluster(t_f2_r6, vals, c) == 0 for c in forward)


def test_cluster_monotone_under_shrinking(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    coarse = end_classes(t_f2_r6, 1)
    fine = end_classes(t_f2_r6, 3)
    mapping = refine_end_classes(t_f2_r6, coarse, fine)
    vals = chi.shell_values(t_f2_r6)
    for f in fine:
        parent = coarse[mapping[f.id]]
        theta = is_cluster(t_f2_r6, vals, parent)
        if theta is not None:
            assert is_cluster(t_f2_r6, vals, f) == theta


def test_cluster_requires_unbounded(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    comps = complement_components(t_f2_r6, np.flatnonzero(t_f2_r6.dist >= 5))
    bounded = [c for c in comps if not c.unbounded]
    assert bounded
    with pytest.raises(EndsSplitterError):
        is_cluster(t_f2_r6, chi.shell_values(t_f2_r6), bounded[0])

