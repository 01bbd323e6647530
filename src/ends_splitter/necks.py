"""Neck detection and classification, separated partitions with their dual
graphs, and energy-gap certificates.

A radius-R neck at x removes the ball of radius R - 1 around x (the
interior of the R-ball) and asks for at least three complement components,
each of which reaches the shell.  Classification against an end function
is by precedence:

* special type 2 - at least two components whose shell trace is mixed;
* special type 1 - otherwise, when both a 0-cluster and a 1-cluster
  component are present;
* regular theta   - otherwise; every cluster component carries theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDrop, EndsSplitterError, NeckCoverageError
from .ends import complement_labels
from .groups import join_labels, unique_sorted
from .harmonic import energy, solve_dirichlet

_VERDICT = (None, 0, 1, None)     # by the chi-values a trace meets


@dataclass
class NeckClass:
    kind: str                 # regular | special_type_1 | special_type_2
    theta: int | None = None
    verdicts: tuple = ()      # per component: 0, 1, or None

    def label(self):
        if self.kind == "regular":
            return f"regular_{self.theta}"
        return self.kind


@dataclass
class NeckSurvey:
    """The necks of one net at one R, row i at ``centers[i]``.  Component c
    is the cones of ``arcs[i, c]`` and, with ``up[i, c]`` != -1, all
    outside the branch of that ball vertex's block at its anchor: the
    identity's side.  Both are padded with -1."""

    R: int
    spacing: int              # the net's spacing
    centers: np.ndarray
    arcs: np.ndarray          # necks x component slots x arc slots
    up: np.ndarray            # necks x component slots
    centers_considered: int
    cover_ok: bool
    cover_radius: int         # smallest R covering the window from this net
    window_distance: int
    center_words: list = field(repr=False)    # t.word of each neck center
    _floods: dict = field(default_factory=dict, repr=False)

    def flood(self, t, i, c, removed, layers=False):
        """``[members, layers]`` of component c of row i, whose ball is the
        mask ``removed``: the member ids, flooded from any member, and once
        a caller asks for them (None before), each member's distance inside
        the component from the attachment layer, the members next to the
        ball.  Kept, so the gap certificates of every end function share
        them."""
        flood = self._floods.setdefault((i, c), [None, None])
        if flood[0] is None:
            # e lies on the identity's side, off the ball
            seed = 0 if self.up[i, c] >= 0 else self.arcs[i, c].max()
            flood[0] = np.flatnonzero(t.graph_distances_from(
                [seed], allowed_mask=~removed) >= 0)
        if layers and flood[1] is None:
            nb = t.nbr[flood[0]]
            attach = flood[0][(removed[nb] & (nb >= 0)).any(axis=1)]
            # no other component is reachable off the removed ball
            flood[1] = t.graph_distances_from(
                attach, allowed_mask=~removed)[flood[0]]
        return flood


def find_necks(t, net, R):
    """All net members in the trustworthy window (distance <= radius - 3R:
    the R-ball and a margin of 2R) whose R-ball complement has at least
    three components, plus the cover check.

    The components come from one walk over every center at once.  Right
    multiplication v -> v * x is an automorphism of the Cayley graph (an
    edge joins v and l * v), so it carries B_{R-1}(e) onto B_{R-1}(x) and
    the block arcs leaving the one onto those leaving the other.  The
    exits of B_{R-1}(e), and for a cycle the length of its arc in the
    group, are read once; each exit is moved to every center by
    ``left_translates`` and walked there one gather per step.  Where the
    truncation cuts a translated cycle, its arc splits into two pieces,
    one from each end; so a center's count can differ from e's.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    window = t.radius - 3 * R
    if window < 0:
        raise EndsSplitterError(f"truncation radius {t.radius} too small "
                                f"for R={R} with margin {2 * R}")
    considered = net.member_ids[t.dist[net.member_ids] <= window]
    arcs, up = _arcs(t, considered, R)
    neck = _present(arcs, up).sum(axis=1) >= 3
    arcs, up, centers = arcs[neck], up[neck], considered[neck]

    # the ball is connected, so every vertex is reached, unless there is
    # no neck (-1)
    cover_radius = int(t.graph_distances_from(centers)[
        t.dist <= window].max())
    stop, words = t.spheres()[window].stop, []
    for ids, ws in t.word_blocks():         # the words out to the window
        words.append(ws)
        if ids.stop == stop:
            break
    center_words = np.concatenate(words)[centers].astype(str).tolist()
    return NeckSurvey(R=R, spacing=net.spacing, centers=centers, arcs=arcs,
                      up=up, centers_considered=len(considered),
                      cover_ok=0 <= cover_radius <= R,
                      cover_radius=cover_radius,
                      window_distance=window, center_words=center_words)


def _arcs(t, centers, R):
    """``(arcs, up)`` of ``NeckSurvey`` at centers no farther than
    radius - R from e, components by smallest member (0 for the identity's
    side), one slot per exit of B_{R-1}(e).

    An exit (b, l) starts an arc at l * b: one vertex for an edge; for a
    cycle, as many as the group has before re-entering the ball at b'
    (the truncation can cut the cycle even at e).  The arc through the
    block's anchor, its vertex nearest e, drops it and takes ``up`` = b.
    Every component reaches the shell, since the ball fits in the
    truncation: a vertex below the shell has a longer neighbour in a block
    anchored at it, and the identity's side keeps a whole branch at e.
    """
    nbr, (anchor, _, cyclic) = t.nbr, t.blocks()
    m = t.spheres()[R - 1].stop                 # B_{R-1}(e) is ids below m
    b, l = np.nonzero(nbr[:m] >= m)
    steps, twin = np.ones(len(b), dtype=np.intp), np.arange(len(b))
    if cyclic[l].any():
        eng = t.presentation.engine()
        ball = {t.element(v).word: v for v in range(m)}
        exits = {e: i for i, e in enumerate(zip(b.tolist(), l.tolist()))}
        for i in np.flatnonzero(cyclic[l]).tolist():
            w, steps[i] = t.element(b[i]).word, 0
            while (w := eng.mul_letter_left(l[i], w)) not in ball:
                steps[i] += 1
            twin[i] = exits[ball[w], eng.inverse_letter(l[i])]

    bx = np.column_stack(                       # b * x, per center x
        [centers, t.left_translates(centers, R - 1)])[:, b]
    arcs = np.full((*bx.shape, steps.max(initial=1)), -1, dtype=nbr.dtype)
    cur = bx
    for j in range(arcs.shape[2]):
        cur = np.where((cur >= 0) & (j < steps), nbr[cur, l], -1)
        arcs[:, :, j] = cur
    # the exit (b', l^-1) retraces a cycle's arc unless the arc is cut
    cut = arcs[:, np.arange(len(b)), steps - 1] < 0
    kept = (twin >= np.arange(len(b))) | cut[:, twin]

    # the identity's side is the arc through the anchor of b's own block,
    # since a block anchored at b lies past b (e has no anchor, -1)
    holds = (arcs == anchor[bx][..., None]) & (arcs >= 0)
    side = holds.any(axis=-1) & kept
    arcs[holds | ~kept[..., None]] = -1
    up = np.where(side, bx, -1)

    key = np.where(side, 0, np.where(arcs >= 0, arcs, t.n).min(axis=-1))
    order = np.argsort(key, axis=1, kind="stable")
    return (np.take_along_axis(arcs, order[..., None], axis=1),
            np.take_along_axis(up, order, axis=1))


def _present(arcs, up):
    """Which slots of ``arcs`` and ``up`` hold a component."""
    return (arcs >= 0).any(axis=-1) | (up >= 0)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class TraceMasks:
    """The end classes of chi seen from the block tree, as bit sets: for k
    classes, a uint8 row of ceil(k / 8) bytes per vertex, class c at bit
    c % 8 of byte c // 8.  down[v]: the classes of v's cone, which is v
    with whatever hangs off it in the blocks anchored at v.  up[v]: the
    classes outside the branch of v's block at the block's anchor, none at e.

    The sets depend on the class table only, so a truncation builds them
    once per base radius, a byte column at a time.  A chi adds ``zero``
    and ``one``, the rows of its classes of value 0 and 1.
    """

    def __init__(self, t, chi):
        table = chi.class_table(t)          # refuses another ball's chi
        self.base_radius = chi.base_radius
        key = ("trace_masks", self.base_radius)
        if key not in t._caches:
            t._caches[key] = _trace_passes(t, table)
        self.down, self.up = t._caches[key]
        bits = np.zeros((2, 8 * self.down.shape[1]), dtype=bool)
        bits[list(chi.values.values()), list(chi.values)] = True
        self.zero, self.one = np.packbits(bits, axis=1, bitorder="little")

    def seen(self, sets):
        """Per class set (a row), bit 0 if it meets a class of chi-value 0
        and bit 1 for value 1; works on one row or an array of them."""
        return (sets & self.zero).any(-1) + 2 * (sets & self.one).any(-1)


def _trace_passes(t, table):
    """``(down, up)`` of ``TraceMasks`` for the class table ``table``: per
    byte column, one pass inward over the spheres and one outward."""
    anchor, block, _ = t.blocks()
    shell = np.flatnonzero(t.shell_mask & (table >= 0))
    cls = table[shell]
    byte, bit = cls >> 3, np.left_shift(1, (cls & 7).astype(np.uint8))
    spheres, kids = t.spheres()[1:], slice(1, None)
    block = block[kids]
    block_anchor = np.zeros(block.max() + 1, dtype=block.dtype)
    block_anchor[block] = anchor[kids]
    down, up = np.zeros((2, t.n, int(table.max()) // 8 + 1), dtype=np.uint8)
    for j in range(down.shape[1]):
        own = np.zeros(t.n, dtype=np.uint8)
        own[shell[byte == j]] = bit[byte == j]
        cone = own.copy()
        for sl in reversed(spheres):
            np.bitwise_or.at(cone, anchor[sl], cone[sl])

        # per v != e, the classes of the other cones of its block (within),
        # of the other blocks at its anchor (beside) and outside its cone
        branch = np.zeros(len(block_anchor), dtype=np.uint8)
        np.bitwise_or.at(branch, block, cone[kids])
        within, beside, outside = np.zeros((3, t.n), dtype=np.uint8)
        within[kids] = _others(block, cone[kids])
        beside[kids] = _others(block_anchor, branch)[block]
        for sl in spheres:
            a = anchor[sl]
            up[sl, j] = outside[a] | own[a] | beside[sl]
            outside[sl] = up[sl, j] | within[sl]
        down[:, j] = cone
    return down, up


def _others(group, sets):
    """OR of the byte column ``sets`` over the other elements of each
    element's group, one bit that some element has at a time."""
    out = np.zeros(len(group), dtype=np.uint8)
    present = int(np.bitwise_or.reduce(sets))
    for bit in (1 << b for b in range(8) if present >> b & 1):
        has = (sets & bit) != 0
        count = np.bincount(group[has], minlength=group.max() + 1)
        out[count[group] > has] |= bit
    return out


def classify_neck(survey, i, masks):
    """The unique class of row i of ``survey`` under the precedence order,
    read from chi's ``TraceMasks``."""
    arcs, up = survey.arcs[i], survey.up[i]
    seen = masks.seen(_class_sets(arcs, up, masks))
    label = str(_precedence(seen))
    # a cluster sees one chi-value on the shell; padding sorts last
    seen = seen[:_present(arcs, up).sum()]
    verdicts = tuple(_VERDICT[s] for s in seen.tolist())
    if label.startswith("regular"):
        return NeckClass(kind="regular", theta=int(label[-1]),
                         verdicts=verdicts)
    return NeckClass(kind=label, verdicts=verdicts)


def _class_sets(arcs, up, masks):
    """The end classes of ``masks`` that each component of ``arcs`` and
    ``up`` reaches, as bit sets: an OR over its arc's cones and what lies
    past its ``up``; none for a slot without a component."""
    down = np.where((arcs >= 0)[..., None], masks.down[arcs], 0)
    sets = np.bitwise_or.reduce(down, axis=-2)
    return sets | np.where((up >= 0)[..., None], masks.up[up], 0)


def _precedence(seen):
    """The class label of each neck, from ``masks.seen`` of the end classes
    of its components in the last axis."""
    # per neck: components that see both values, only 0, only 1; every
    # component sees one on the shell, and a padding slot sees none
    mixed, only0, only1 = (np.count_nonzero(seen == s, axis=-1)
                           for s in (3, 1, 2))
    type2 = mixed >= 2
    type1 = ~type2 & (only0 > 0) & (only1 > 0)
    return np.where(type2, "special_type_2", np.where(
        type1, "special_type_1",
        np.where(only0 > 0, "regular_0", "regular_1")))


@dataclass
class NeckReport:
    R: int
    chi_summary: dict
    K: list
    K_I: list
    K_II: list
    classes: dict              # center word -> class label
    warnings: list
    cover_ok: bool
    cover_radius: int
    center_ids: dict = field(repr=False)
    survey: NeckSurvey = field(repr=False)
    masks: TraceMasks = field(repr=False)     # chi's, for the certificates
    kappa_bound: float | None = None

    def to_json_dict(self):
        return {
            "R": self.R,
            "chi": self.chi_summary,
            "K": self.K,
            "K_I": self.K_I,
            "K_II": self.K_II,
            "classes": self.classes,
            "warnings": self.warnings,
            "cover_ok": self.cover_ok,
            "smallest_covering_R": self.cover_radius,
            "kappa_bound": self.kappa_bound,
        }


def special_sets(t, survey, chi):
    """Classify every neck of ``survey`` (``find_necks``) against chi and
    extract K, K_I, K_II.  The report keeps chi's ``TraceMasks`` for the
    gap certificates.

    Every neck is classified in one array pass over the end classes of
    its components, gathered from chi's masks.  The structural checks
    follow: K must be nonempty for nonconstant chi, and every unbounded
    complement component of the K_I-ball system must be a cluster.
    """
    chi.require_nonconstant()
    R = survey.R
    masks = TraceMasks(t, chi)
    labels = _precedence(masks.seen(
        _class_sets(survey.arcs, survey.up, masks)))
    classes = dict(zip(survey.center_words, labels.tolist()))
    type1, type2 = labels == "special_type_1", labels == "special_type_2"
    picked = {"K": type1 | type2, "K_I": type1, "K_II": type2}
    center_ids = {k: survey.centers[m].tolist() for k, m in picked.items()}
    warnings = []
    if not survey.cover_ok:
        warnings.append(
            f"necks at R={R} do not cover the window; smallest covering "
            f"radius from this net is {survey.cover_radius}"
        )

    if not center_ids["K"]:
        raise NeckCoverageError(
            "no special neck found for a nonconstant end function; the net "
            f"may be too sparse for the transition locus (spacing "
            f"{survey.spacing}, R {R})"
        )
    bad = _uncovered_cluster_components(t, masks, center_ids["K_I"], R)
    if bad is not None:
        raise NeckCoverageError(
            "a component outside the type-1 ball system fails to cobound a "
            f"cluster (witness vertex {t.word(bad)!r}); type-1 centers are "
            "invisible to this net"
        )

    words = np.asarray(survey.center_words, dtype=object)
    return NeckReport(
        R=R, chi_summary=chi.assignments_by_word(),
        **{k: words[m].tolist() for k, m in picked.items()},
        classes=classes, warnings=warnings,
        cover_ok=survey.cover_ok, cover_radius=survey.cover_radius,
        center_ids=center_ids, survey=survey, masks=masks,
    )


def _uncovered_cluster_components(t, masks, k1_ids, R):
    """The smallest member of the first non-cluster unbounded component of
    the complement of the K_I ball system, or None.  A component's verdict
    comes from the end classes of its shell vertices, in chi's masks; with
    no K_I, the whole ball is one component, never a cluster."""
    removed = np.zeros(t.n, dtype=bool)
    removed[t.word_ball(np.asarray(k1_ids, dtype=np.int64), R - 1)] = True
    labels = complement_labels(t, removed)
    shell = np.flatnonzero(t.shell_mask & ~removed)
    # per component label, the chi-values its shell vertices see; a
    # bounded component sees none and is no cluster question
    seen = np.zeros(t.n, dtype=np.uint8)
    np.bitwise_or.at(seen, labels[shell],
                     masks.seen(masks.down[shell]).astype(np.uint8))
    bad = np.flatnonzero(seen == 3)
    return int(bad[0]) if len(bad) else None


# ---------------------------------------------------------------------------
# Partitions and the dual graph
# ---------------------------------------------------------------------------

@dataclass
class PartitionParams:
    D: int          # max within-group diameter targeted by the chaining
    d: int          # required between-group gap (>= phi(D) when finite)


@dataclass
class Partition:
    groups: list               # lists of vertex ids
    min_between_gap: int | None
    gap_ok: bool
    diameter_flagged: bool


def partition_K(t, K_ids, params):
    """Single-linkage grouping of K at distance threshold D, with the
    separation post-checks."""
    K = [int(v) for v in K_ids]
    if not K:
        raise EndsSplitterError("partition_K needs a nonempty K")
    n = len(K)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = t.word_distance(K[i], K[j])

    near = [(i, j) for i in range(n) for j in range(i + 1, n)
            if dist[i][j] <= params.D]
    a, b = np.array(near, dtype=np.intp).reshape(-1, 2).T
    roots = join_labels(np.arange(n), a, b)

    # member positions per group, groups in order of their first position
    by_root = {}
    for i, root in enumerate(roots.tolist()):
        by_root.setdefault(root, []).append(i)
    members = list(by_root.values())
    groups = [sorted(K[i] for i in idx) for idx in members]

    diam = [max(dist[i][j] for i in idx for j in idx) for idx in members]
    gaps = [min(dist[i][j] for i in ia for j in ib)
            for a, ia in enumerate(members) for ib in members[a + 1:]]
    min_gap = min(gaps) if gaps else None
    return Partition(
        groups=groups, min_between_gap=min_gap,
        gap_ok=(min_gap is None or min_gap > params.d),
        diameter_flagged=any(dm > params.D for dm in diam),
    )


@dataclass
class DualGraph:
    k_labels: list
    c_sizes: list
    c_unbounded: list
    edges: list                # (k index, c index)
    is_tree: bool
    separation_ok: bool | None

    @property
    def n_nodes(self):
        return len(self.k_labels) + len(self.c_sizes)

    @property
    def n_edges(self):
        return len(self.edges)


def dual_graph(t, groups, R, phi_bound=None):
    """Nerve of the covering by group balls and complement components.

    A group's R-ball meets a component's closure, the component with its
    removed neighbours, exactly when the ball or a neighbour of it holds a
    kept vertex of that component, so both come from the complement's
    labels: sizes are counts per label, and the edges are the labels of the
    kept vertices in each group ball and next to it.

    ``phi_bound`` is the connectivity bound of the separation hypothesis;
    when supplied, ball gaps are checked against it.
    """
    groups = [list(map(int, g)) for g in groups]
    all_k = np.asarray([v for g in groups for v in g], dtype=np.int64)
    removed_mask = np.zeros(t.n, dtype=bool)
    removed_mask[t.word_ball(all_k, R - 1)] = True
    labels = complement_labels(t, removed_mask)
    kept = ~removed_mask

    # a label is its component's smallest id, so roots come in that order
    counts = np.bincount(labels[kept], minlength=t.n)
    roots = np.flatnonzero(counts)
    reach = np.zeros(t.n, dtype=bool)
    reach[labels[t.shell_mask & kept]] = True

    edges = []
    for i, g in enumerate(groups):
        ball = t.word_ball(np.asarray(g, dtype=np.int64), R)
        nb = t.nbr[ball]
        near = np.concatenate([ball, nb[nb >= 0]])
        near = near[kept[near]]
        comps = np.searchsorted(roots, unique_sorted(labels[near]))
        edges += [(i, j) for j in comps.tolist()]
    edges.sort(key=lambda e: (e[1], e[0]))

    n_k, n_c = len(groups), len(roots)
    k, c = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    nerve = join_labels(np.arange(n_k + n_c), k, n_k + c)
    # edges are distinct pairs: connected with one edge fewer than nodes
    # is a tree
    is_tree = len(edges) == n_k + n_c - 1 and bool((nerve == 0).all())

    separation_ok = None
    if phi_bound is not None:
        separation_ok = True
        for a in range(n_k):
            for b in range(a + 1, n_k):
                gap = min(t.word_distance(u, v)
                          for u in groups[a] for v in groups[b])
                if gap - 2 * R <= phi_bound:
                    separation_ok = False
    return DualGraph(
        k_labels=[",".join(t.word(v) for v in g) for g in groups],
        c_sizes=counts[roots].tolist(),
        c_unbounded=reach[roots].tolist(),
        edges=edges, is_tree=is_tree,
        separation_ok=separation_ok,
    )


def dual_graph_dot(dual):
    lines = ["graph dual {"]
    for i, label in enumerate(dual.k_labels):
        lines.append(f'  k{i} [shape=box, label="K{i}: {label}"];')
    for j, size in enumerate(dual.c_sizes):
        flag = "" if dual.c_unbounded[j] else " (bounded)"
        lines.append(f'  c{j} [shape=ellipse, label="C{j}: {size}{flag}"];')
    for i, j in dual.edges:
        lines.append(f"  k{i} -- c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gap certificates
# ---------------------------------------------------------------------------

@dataclass
class GapCertificate:
    witness_path: list
    drop: float
    mu: float
    region_edges: np.ndarray       # boolean edge mask
    region_energy: float


WITNESS_EPSILON = 0.1


def gap_certificate(h, survey, i, masks):
    """A positive lower bound on the energy h spends crossing the type-1
    neck of row i of ``survey``.

    Finds low/high witnesses (h <= 1/10 and h >= 9/10 when visible, else
    the extremal vertices), connects them through the neck, and charges
    the mean-value drop against the edges near the path.
    """
    t = h.truncation
    cls = classify_neck(survey, i, masks)
    if cls.kind != "special_type_1":
        raise EndsSplitterError(
            f"gap certificates need a type-1 neck, got {cls.label()}"
        )
    removed_mask = np.zeros(t.n, dtype=bool)
    removed_mask[t.word_ball([survey.centers[i]], survey.R - 1)] = True
    # the 0-cluster reaching the lowest value and the 1-cluster reaching
    # the highest, the first on ties
    picks = []
    for theta, sign in ((0, 1.0), (1, -1.0)):
        c = min((c for c, v in enumerate(cls.verdicts) if v == theta),
                key=lambda k: (sign * h.values[
                    survey.flood(t, i, k, removed_mask)[0]]).min())
        picks.append(survey.flood(t, i, c, removed_mask, layers=True))
    (m0, layers0), (m1, layers1) = picks
    x0 = _witness_vertex(h, m0, layers0, low=True)
    x1 = _witness_vertex(h, m1, layers1, low=False)
    drop = float(h.values[x1] - h.values[x0])
    if drop <= 0:
        raise DegenerateDrop(
            f"no positive drop across the neck at {t.word(survey.centers[i])}"
        )

    allowed = removed_mask.copy()
    allowed[m0] = allowed[m1] = True
    path = _shortest_path(t, x0, x1, allowed)
    mu = (drop / (len(path) - 1)) ** 2

    union = np.zeros(t.n, dtype=bool)
    union[m0] = union[m1] = union[path] = True
    hood = union.copy()
    ids = np.flatnonzero(union)
    nb = t.nbr[ids].ravel()
    hood[nb[nb >= 0]] = True
    eu, ev, _ = t.edges()
    region = hood[eu] & hood[ev]
    region_energy = energy(h, edge_filter=region).total
    cert = GapCertificate(
        witness_path=[int(v) for v in path], drop=drop, mu=mu,
        region_edges=region, region_energy=region_energy,
    )
    if cert.mu > cert.region_energy + 1e-12:
        raise EndsSplitterError("certificate failed its own soundness check")
    return cert


def _witness_vertex(h, members, layers, low):
    """Nearest vertex (by ``layers``, the distance from the attachment
    layer) past the 1/10 threshold, else the extremal vertex;
    deterministic tiebreak by id."""
    vals = h.values[members]
    good = vals <= WITNESS_EPSILON if low else vals >= 1 - WITNESS_EPSILON
    if good.any():
        cand = members[good]
        order = np.lexsort((cand, layers[good]))
        return int(cand[order[0]])
    if low:
        order = np.lexsort((members, vals))
    else:
        order = np.lexsort((members, -vals))
    return int(members[order[0]])


def _shortest_path(t, a, b, allowed_mask):
    dist = t.graph_distances_from([a], allowed_mask=allowed_mask)
    if dist[b] < 0:
        raise EndsSplitterError("witnesses are disconnected inside the neck "
                                "window")
    path = [b]
    cur = b
    while cur != a:
        nb = t.nbr[cur]
        nb = nb[nb >= 0]
        nb = nb[allowed_mask[nb]]
        nb = nb[dist[nb] == dist[cur] - 1]
        cur = int(nb.min())
        path.append(cur)
    return path[::-1]


@dataclass
class GapBracket:
    certified_mu: float
    min_observed_energy: float
    rows: list

    def to_json_dict(self):
        return {
            "certified_mu": self.certified_mu,
            "min_observed_energy": self.min_observed_energy,
            "scenarios": self.rows,
        }


def energy_gap_estimate(t, net, R, chis, solver_cfg=None):
    """Bracket [certified_mu, min energy] for the window-scale energy gap
    over a family of end functions."""
    rows = []
    best_mu = 0.0
    min_energy = math.inf
    # the neck survey does not depend on chi
    survey = find_necks(t, net, R)
    for chi in chis:
        chi.require_nonconstant()
        h = solve_dirichlet(t, chi, solver_cfg)
        e_total = energy(h).total
        report = special_sets(t, survey, chi)
        k1 = set(report.center_ids["K_I"])
        mus = [gap_certificate(h, survey, i, report.masks).mu
               for i, x in enumerate(survey.centers.tolist()) if x in k1]
        mu = max(mus) if mus else 0.0
        kappa = e_total / min(mus) if mus else None
        rows.append({
            "chi": chi.assignments_by_word(),
            "energy": e_total,
            "mu": mu,
            "k1_size": len(report.K_I),
            "kappa_bound": kappa,
        })
        best_mu = max(best_mu, mu)
        min_energy = min(min_energy, e_total)
    return GapBracket(certified_mu=best_mu, min_observed_energy=min_energy,
                      rows=rows)
