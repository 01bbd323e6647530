import gc
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ends_splitter import groups
from ends_splitter.ends import end_classes
from ends_splitter.errors import PresentationError
from ends_splitter.groups import (
    Presentation,
    build_net,
    build_truncation,
    group_ball,
    path_truncation,
)

import oracles
from oracles import enumerate_elements


# -- presentations -------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    lambda: Presentation.free(1),
    lambda: Presentation.free_product_of_cyclics([5]),
    lambda: Presentation.free_product_of_cyclics([2, 2]),
    lambda: Presentation.free_product_of_cyclics([0]),
    lambda: Presentation(kind="nope"),
])
def test_two_ended_and_invalid_presentations_rejected(bad):
    with pytest.raises(PresentationError):
        bad()


def test_rejection_names_the_presentation():
    with pytest.raises(PresentationError, match="FreeGroup"):
        Presentation.free(1)
    with pytest.raises(PresentationError, match="Z/2\\*Z/2"):
        Presentation.free_product_of_cyclics([2, 2])


def test_infinite_factor_encoding():
    p = Presentation.from_config({"kind": "free_product_cyclic",
                                  "orders": [2, "inf"]})
    assert p.orders == (2, 0)
    assert p.engine().n_letters == 3   # s involution, t and its inverse


# -- ball construction ----------------------------------------------------------

def test_f2_radius1_ball(f2):
    t = build_truncation(f2, 1)
    assert t.n == 5
    assert t.word(0) == "e"
    nb = t.nbr[0]
    assert sorted(int(x) for x in nb) == [1, 2, 3, 4]
    assert sorted(t.word(i) for i in range(1, 5)) == ["A", "B", "a", "b"]


def _ball_words(t):
    # the oracle spells the identity as the empty word
    return {"" if w == "e" else w
            for _, ws in t.word_blocks() for w in ws.astype(str).tolist()}


def test_f2_sphere_sizes_match_closed_form_and_enumeration(f2):
    for rho in range(1, 7):
        t = build_truncation(f2, rho)
        assert t.n == 2 * 3 ** rho - 1
        assert t.n == len(oracles.free_ball_words(2, rho))
        assert _ball_words(t) == oracles.free_ball_words(2, rho)


def test_rank3_sphere_sizes_match_enumeration():
    p = Presentation.free(3)
    for rho in range(1, 5):
        t = build_truncation(p, rho)
        assert t.n == len(oracles.free_ball_words(3, rho))
        assert _ball_words(t) == oracles.free_ball_words(3, rho)


@pytest.mark.parametrize("rank", [2, 3])
def test_free_group_is_the_free_product_of_zs(rank):
    # F_n is built as Z * ... * Z; only the names and spelling differ
    free = build_truncation(Presentation.free(rank), 5)
    zs = build_truncation(
        Presentation.free_product_of_cyclics([0] * rank), 5)
    for name in ("nbr", "dist", "parent", "parent_letter"):
        assert np.array_equal(getattr(free, name), getattr(zs, name)), name
    for ours, theirs in zip(free.blocks(), zs.blocks()):
        assert np.array_equal(ours, theirs)


_FPC = Presentation.free_product_of_cyclics
_LAYOUT_CASES = {
    "F2-r6": (Presentation.free(2), 6),
    "F3-r4": (Presentation.free(3), 4),
    "Z3*Z-r8": (_FPC([3, 0]), 8),
    "Z2*Z3-r12": (_FPC([2, 3]), 12),
    "Z4*Z5-r8": (_FPC([4, 5]), 8),
    "Z2*Z2*Z2-r6": (_FPC([2, 2, 2]), 6),
    "Z6*Z*Z2-r6": (_FPC([6, 0, 2]), 6),
    "Z*Z-r5": (_FPC([0, 0]), 5),
}


# each vertex table at the width its values need: ids are below 2**31
_VERTEX_TABLE_WIDTHS = {"nbr": np.int32, "dist": np.int32,
                        "parent": np.int32, "parent_letter": np.int8,
                        "shell_mask": np.bool_}


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_layout_equals_generic_enumeration(case):
    p, rho = _LAYOUT_CASES[case]
    fast = build_truncation(p, rho)
    slow, words = oracles.build_generic(p, rho)
    for name, width in _VERTEX_TABLE_WIDTHS.items():
        ours, theirs = getattr(fast, name), getattr(slow, name)
        assert ours.dtype == width, name
        assert np.array_equal(ours, theirs), name
    assert [fast.element(v).word for v in range(fast.n)] == words


def test_z2z3_ball_matches_multiplication_table(z23):
    t = build_truncation(z23, 2)
    oracle = oracles.z2z3_elements(2)
    assert t.n == len(oracle)
    # length spectrum agrees
    ours = sorted(int(d) for d in t.dist)
    theirs = sorted(oracle.values())
    assert ours == theirs


def test_three_involution_sphere_sizes():
    # Z/2 * Z/2 * Z/2: alternating words over three involutions, so the
    # spheres are 3 * 2^(k-1)
    p = Presentation.free_product_of_cyclics([2, 2, 2])
    t = build_truncation(p, 6)
    sizes = [int((t.dist == k).sum()) for k in range(7)]
    assert sizes == [1] + [3 * 2 ** (k - 1) for k in range(1, 7)]


def test_infinite_factor_ball_sizes():
    # Z/2 * Z via string rewriting: s cancels s, t cancels T
    def reduce_prepend(l, w):
        if w and ((l == "s" and w[0] == "s")
                  or (l == "t" and w[0] == "T")
                  or (l == "T" and w[0] == "t")):
            return w[1:]
        return l + w

    seen = {""}
    frontier = [""]
    for _ in range(5):
        nxt = []
        for w in frontier:
            for l in "stT":
                u = reduce_prepend(l, w)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt

    p = Presentation.free_product_of_cyclics([2, 0])
    t = build_truncation(p, 5)
    assert t.n == len(seen)


def test_truncation_invariants(t_f2_r4, t_z23_r8):
    for t in (t_f2_r4, t_z23_r8):
        L = t.n_letters
        eng = t.presentation.engine()
        full_degree = L
        for v in range(t.n):
            for l in range(L):
                w = int(t.nbr[v, l])
                if w < 0:
                    continue
                # symmetry: the inverse letter leads back
                assert int(t.nbr[w, eng.inverse_letter(l)]) == v
        deg = t.degrees()
        assert (deg[t.interior_mask] == full_degree).all()
        assert int(t.dist.max()) == t.radius
        assert (t.dist[t.shell_mask] == t.radius).all()
        assert (t.dist[t.interior_mask] < t.radius).all()


# -- generator action ------------------------------------------------------------

def test_apply_generator_examples(t_f2_r4, z23):
    t = t_f2_r4
    va = int(t.right_mult_table("a")[0])
    assert t.word(va) == "a"
    assert t.right_mult_table("A")[va] == 0

    tz = build_truncation(z23, 3)
    vs = int(tz.right_mult_table("s")[0])
    assert tz.right_mult_table("s")[vs] == 0

    t3 = build_truncation(Presentation.free(2), 3)
    deep = int(np.flatnonzero(t3.dist == 3)[0])
    assert t3.right_mult_table("b")[deep] == -1


@settings(max_examples=60, deadline=None)
@given(v=st.integers(0, 52), letters=st.lists(st.integers(0, 3), max_size=3))
def test_apply_generator_inverse_roundtrip(v, letters):
    t = build_truncation(Presentation.free(2), 3)
    eng = t.presentation.engine()
    cur = v
    trail = []
    for l in letters:
        nxt = int(t.right_mult_table(l)[cur])
        if nxt == -1:
            break
        trail.append(l)
        cur = nxt
    for l in reversed(trail):
        cur = int(t.right_mult_table(eng.inverse_letter(l))[cur])
        assert cur != -1
    assert cur == v


def test_right_mult_table_matches_word_arithmetic(t_z23_r8):
    t = t_z23_r8
    eng = t.presentation.engine()
    rng = np.random.default_rng(3)
    for l in range(eng.n_letters):
        table = t.right_mult_table(l)
        for v in rng.integers(0, t.n, size=25):
            w = oracles.mul_letter_right(eng, t.element(int(v)).word, l)
            if eng.length(w) > t.radius:
                assert table[v] == -1
            else:
                assert eng.render(t.element(int(table[v])).word) == eng.render(w)


def test_group_ball_counts(t_f2_r4, t_z23_r8):
    assert len(group_ball(t_f2_r4, 0)) == 1
    assert len(group_ball(t_f2_r4, 1)) == 5
    oracle = oracles.z2z3_elements(2)
    assert len(group_ball(t_z23_r8, 2)) == len(oracle)


def test_group_ball_radius_guard(t_f2_r4):
    with pytest.raises(ValueError):
        group_ball(t_f2_r4, 5)


def test_element_algebra(f2):
    a, A, b = [e for e in enumerate_elements(f2, 1) if str(e) in "aAb"]
    assert str(a * b) == "ab"
    assert str(a * A) == "e"
    assert (a * b).inverse().length() == 2
    assert str((a * b) * (a * b).inverse()) == "e"


# -- word metric and nets ---------------------------------------------------------

def test_word_distance_matches_graph_bfs_on_tree(t_f2_r4):
    t = t_f2_r4
    rng = np.random.default_rng(11)
    for _ in range(30):
        u, v = (int(x) for x in rng.integers(0, t.n, size=2))
        d = t.graph_distances_from([u])
        assert t.word_distance(u, v) == int(d[v])


@pytest.mark.parametrize("make", [
    lambda: build_truncation(Presentation.free(2), 5),
    lambda: build_truncation(Presentation.free_product_of_cyclics([3, 0]), 6),
    lambda: build_truncation(Presentation.free_product_of_cyclics([4, 5]), 5),
], ids=["F2-r5", "Z3*Z-r6", "Z4*Z5-r5"])
def test_graph_distances_match_plain_bfs(make):
    t = make()
    adj = oracles.adjacency_dict(t)
    rng = np.random.default_rng(8)
    for trial in range(8):
        # a repeated source in some trials; masks drop some sources
        sources = rng.integers(0, t.n, size=1 + trial % 4)
        mask = None if trial < 2 else rng.random(t.n) < 0.4 + 0.1 * trial
        allowed = None if mask is None else set(np.flatnonzero(mask).tolist())
        ref = oracles.bfs_distances(adj, sources.tolist(), allowed)
        want = np.full(t.n, -1)
        want[list(ref)] = list(ref.values())
        got = t.graph_distances_from(sources, allowed_mask=mask)
        assert got.tolist() == want.tolist()


def test_net_delta1_is_everything(t_f2_r4):
    net = build_net(t_f2_r4, 1)
    assert net.size == t_f2_r4.n


def test_net_delta2_on_radius2_keeps_even_spheres(f2):
    t = build_truncation(f2, 2)
    net = build_net(t, 2)
    dists = sorted(set(int(t.dist[v]) for v in net.member_ids))
    assert dists == [0, 2]
    assert net.size == 1 + 12


def test_net_huge_delta_is_identity_alone(t_f2_r4):
    net = build_net(t_f2_r4, 2 * t_f2_r4.radius + 1)
    assert list(net.member_ids) == [0]


def test_net_spacing_far_past_the_radius_is_identity_alone(t_f2_r4):
    net = build_net(t_f2_r4, 10 ** 6)
    assert net.member_ids.tolist() == [0]
    assert t_f2_r4.graph_distances_from(net.member_ids).max() == \
        t_f2_r4.radius


@lru_cache(maxsize=None)
def _layout_ball(case, radius=None):
    p, rho = _LAYOUT_CASES[case]
    return build_truncation(p, radius or rho)


@pytest.mark.parametrize("delta", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_net_matches_greedy_oracle(case, delta):
    t = _layout_ball(case)
    net = build_net(t, delta)
    assert net.member_ids.tolist() == oracles.greedy_net(t, delta).tolist()


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_net_past_the_radius_matches_greedy_oracle(case):
    # the oracle blocks with a (delta - 1)-ball for every vertex of an
    # r-ball, so r is the largest radius <= 4 keeping that table small
    p, _ = _LAYOUT_CASES[case]
    r = max(r for r in range(1, 5) if build_truncation(p, r).n
            * build_truncation(p, 2 * r).n <= 3_000_000)
    t = _layout_ball(case, r)
    for delta in range(r + 1, 2 * r + 2):
        net = build_net(t, delta)
        assert net.member_ids.tolist() == oracles.greedy_net(
            t, delta).tolist(), delta


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_left_translates_match_the_path_chase(case):
    t = _layout_ball(case, min(_LAYOUT_CASES[case][1], 4))
    ids = np.random.default_rng(5).integers(0, t.n, size=40)
    for r in (0, 1, 2, 3, t.radius):
        got = t.left_translates(ids, r)
        assert got.tolist() == oracles.path_translates(t, ids, r).tolist(), r


@pytest.mark.parametrize("case", ["F2-r6", "Z2*Z3-r12"])
def test_translates_past_the_radius_are_refused(case):
    # as for group_ball: no larger ball is built behind the caller's back
    t = _layout_ball(case, 3)
    for read in (t.left_translates, t.word_ball):
        with pytest.raises(ValueError, match="exceeds the truncation radius"):
            read([0, 1], t.radius + 1)
        assert read([0, 1], t.radius).size
    assert not [v for v in t._caches.values()
                if isinstance(v, groups.Truncation)]


@pytest.mark.parametrize("case", [*sorted(_LAYOUT_CASES), "path"])
def test_ball_reads_need_only_the_sphere_table(case):
    # a read per neck center that scans the distance array makes the neck
    # survey quadratic; once the sphere table is built, none reads dist
    if case == "path":
        t = path_truncation(9)
    else:
        t = build_truncation(*_LAYOUT_CASES[case])
    ids = np.random.default_rng(3).integers(0, t.n, size=5)
    radii = sorted({0, 1, 2, t.radius})

    def reads():
        out = [t.left_translates(ids, r).tolist() for r in radii]
        out += [t.word_ball(ids, r).tolist() for r in radii]
        if t.presentation is not None:      # a path has no group elements
            out += [[g.word for g in group_ball(t, r)] for r in radii]
        return out

    before = reads()
    t.spheres()
    t.dist = None
    assert reads() == before


@pytest.mark.parametrize("case", ["F2-r6", "Z3*Z-r8", "Z4*Z5-r8",
                                  "Z6*Z*Z2-r6"])
def test_first_fit_matches_the_per_vertex_loop(case):
    t = _layout_ball(case)
    rng = np.random.default_rng(17)
    alive = rng.random(t.n) < 0.7
    # the adjacency, a table that is not symmetric near the shell (even
    # factor orders), and a random one
    tables = [t.nbr, t.left_translates(np.arange(t.n), 2),
              rng.integers(-1, t.n, size=(t.n, 3))]
    for table in tables:
        got = groups._first_fit(t, table.__getitem__, alive)
        assert np.flatnonzero(got).tolist() == oracles.first_fit(table, alive)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 1000])
def test_unique_sorted_is_np_unique(size):
    rng = np.random.default_rng(size)
    for a in (rng.integers(-3, 5, size), rng.integers(0, 2 ** 40, size),
              rng.integers(0, 9, size).astype(np.int32), rng.random(size)):
        got = groups.unique_sorted(a)
        assert got.dtype == a.dtype
        assert got.tolist() == np.unique(a).tolist()


@pytest.mark.parametrize("case", [*sorted(_LAYOUT_CASES), "path"])
def test_vertex_tables_are_stored_at_their_widths(case):
    # ids are below 2**31, so int32; a degree is at most n_letters, so int8
    t = path_truncation(9) if case == "path" else _layout_ball(case)
    eu, ev, el = t.edges()
    deg = t.degrees()
    assert [a.dtype for a in (t.nbr, t.parent, eu, ev, el, deg)] == \
        [np.int32] * 4 + [np.int8] * 2
    assert deg.tolist() == (t.nbr >= 0).sum(axis=1).tolist()
    classes = end_classes(t, 1)
    assert classes
    for c in classes:
        assert c.members.dtype == np.int32
        assert np.all(np.diff(c.members) > 0)
    assert sum(len(c.members) for c in classes) == int((t.dist >= 1).sum())


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_edges_are_every_neighbour_pair_once_in_slot_order(case):
    t = _layout_ball(case)
    want = [(u, int(v), l) for u in range(t.n)
            for l, v in enumerate(t.nbr[u].tolist()) if v > u]
    eu, ev, el = t.edges()
    assert (eu.dtype, ev.dtype, el.dtype) == (np.int32, np.int32, np.int8)
    assert list(zip(eu.tolist(), ev.tolist(), el.tolist())) == want


@pytest.mark.parametrize("case", [*sorted(_LAYOUT_CASES), "path"])
def test_edge_count_needs_no_edge_table(case):
    t = path_truncation(9) if case == "path" else \
        build_truncation(*_LAYOUT_CASES[case])       # a ball with no caches
    count = t.n_edges()
    assert type(count) is int and "edges" not in t._caches
    assert count == len(t.edges()[0]) == t.n_edges()


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_component_labels_match_the_flood(case):
    # join_labels over the kept edges labels each component by its
    # smallest member, the flood's first
    t = _layout_ball(case)
    eu, ev, _ = t.edges()
    rng = np.random.default_rng(11)
    masks = [np.ones(len(eu), dtype=bool), np.zeros(len(eu), dtype=bool),
             rng.random(len(eu)) < 0.3, rng.random(len(eu)) < 0.9]
    for keep in masks:
        labels = groups.join_labels(np.arange(t.n, dtype=np.int32),
                                    eu[keep], ev[keep])
        comps = oracles.kept_edge_components(t, keep)
        assert len(np.unique(labels)) == len(comps)
        for members in comps:
            assert (labels[members] == members[0]).all()


@pytest.mark.parametrize("delta", [2, 3])
def test_net_separation_and_cover(t_z23_r8, delta):
    t = t_z23_r8
    net = build_net(t, delta)
    ids = [int(v) for v in net.member_ids]
    assert 0 in ids
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            assert t.word_distance(u, v) >= delta
    assert t.graph_distances_from(net.member_ids).max() <= delta


def test_path_truncation_shape():
    t = path_truncation(5)
    assert t.n == 7
    assert list(t.shell_ids()) == [0, 6]
    assert t.degrees().tolist() == [1, 2, 2, 2, 2, 2, 1]


# -- streamed words -----------------------------------------------------------------

def test_word_blocks_match_per_vertex_words(stream_truncation, monkeypatch):
    # blocks of at most 7 ids split the larger spheres
    monkeypatch.setattr(groups, "_WORD_BLOCK", 7)
    t = stream_truncation
    ids, words = [], []
    for block, ws in t.word_blocks():
        assert block.start == len(ids)
        assert 1 <= block.stop - block.start == len(ws) <= 7
        assert t.dist[block.start] == t.dist[block.stop - 1]
        # field.csv drops every NUL byte of a block: all of them must be
        # the fixed-width padding
        assert ws.dtype.kind == "S"
        assert b"\0" not in b"".join(ws.tolist())
        ids.extend(range(block.start, block.stop))
        words.extend(ws.astype(str).tolist())
    assert ids == list(range(t.n))
    assert words == [t.word(v) for v in range(t.n)]


@pytest.mark.parametrize("p,radius,sample_radius", [
    (Presentation.free(2), 6, 3),
    (Presentation.free(3), 4, 2),
    (Presentation.free_product_of_cyclics([2, 3]), 10, 4),
    (Presentation.free_product_of_cyclics([3, 0]), 6, 3),
    (Presentation.free_product_of_cyclics([4, 5]), 6, 4),
])
def test_right_action_maps_match_per_element_products(p, radius,
                                                      sample_radius):
    t = build_truncation(p, radius)
    sample = group_ball(t, sample_radius)
    maps = oracles.right_action_maps(t, sample)
    for g, img in zip(sample, maps):
        assert img.dtype == np.int32
        assert np.array_equal(img, t.rmul_ids(np.arange(t.n), g))
    # a sample without the suffixes its maps are built from
    far = [g for g in sample if g.length() == sample_radius][::3]
    for g, img in zip(far, oracles.right_action_maps(t, far)):
        assert np.array_equal(img, t.rmul_ids(np.arange(t.n), g))
    # spot checks against word arithmetic: -1 exactly where some partial
    # product along g's geodesic leaves the ball
    eng = p.engine()
    for g, img in list(zip(sample, maps))[::5]:
        for v in range(0, t.n, max(1, t.n // 40)):
            w = t.element(v).word
            prods = [w]
            for l in g.letters():
                prods.append(oracles.mul_letter_right(eng, prods[-1], l))
            if img[v] < 0:
                assert max(map(eng.length, prods)) > t.radius
            else:
                assert max(map(eng.length, prods)) <= t.radius
                assert t.element(int(img[v])).word == prods[-1]


def test_right_action_maps_die_with_their_last_reference():
    # no reference cycle holds the maps: with the cyclic collector off,
    # a returned map is freed once the caller drops it, and so is every
    # map built only as a step towards one
    t = build_truncation(Presentation.free(2), 4)
    far = [g for g in group_ball(t, 2) if g.length() == 2]
    gc.disable()
    try:
        maps = oracles.right_action_maps(t, far)
        refs = [weakref.ref(img) for img in maps]
        kept = maps[0]
        del maps
        assert [r() is None for r in refs] == [False] + [True] * 11
        del kept
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("p,radius,sample_radius", [
    (Presentation.free(2), 6, 3),
    (Presentation.free_product_of_cyclics([2, 3]), 10, 4),
    (Presentation.free_product_of_cyclics([4, 5]), 6, 4),
])
def test_right_action_stream_holds_one_chain(p, radius, sample_radius):
    # each element once, its map that of right_action_maps; a caller that
    # drops each map holds at most one map per letter of the longest
    # element, plus e's, and one table gather builds each map
    t = build_truncation(p, radius)
    sample = group_ball(t, sample_radius)
    want = oracles.right_action_maps(t, sample)
    seen, refs, alive = [], [], []
    for i, img in t.right_action_stream(sample):
        seen.append(i)
        assert np.array_equal(img, want[i])
        refs.append(weakref.ref(img))
        del img
        alive.append(sum(r() is not None for r in refs))
    assert sorted(seen) == list(range(len(sample)))
    assert max(alive) <= sample_radius + 1
