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


@dataclass(slots=True)        # a survey holds one per component of every neck
class NeckComponent:
    """A complement component of a neck's ball: the cones of ``arc``, a
    block arc, plus with ``up`` (a ball vertex of that block) != -1 all
    outside the block's branch at its anchor, the identity's side."""

    seed: int                 # a component vertex adjacent to the removed ball
    arc: tuple = ()
    up: int = -1
    _members: np.ndarray | None = field(default=None, repr=False)
    _layers: np.ndarray | None = field(default=None, repr=False)

    def materialize(self, t, removed_mask):
        """Member ids, flooded from the seed on first use (by the gap
        certificates, which share it across end functions)."""
        if self._members is None:
            dist = t.graph_distances_from([self.seed],
                                          allowed_mask=~removed_mask)
            self._members = np.flatnonzero(dist >= 0)
        return self._members

    def layers(self, t, removed_mask):
        """Each member's distance inside the component from the attachment
        layer, the members next to the removed ball; kept like the
        members."""
        if self._layers is None:
            members = self.materialize(t, removed_mask)
            nb = t.nbr[members]
            attach = members[(removed_mask[nb] & (nb >= 0)).any(axis=1)]
            allowed = np.zeros(t.n, dtype=bool)
            allowed[members] = True
            self._layers = t.graph_distances_from(
                attach, allowed_mask=allowed)[members]
        return self._layers


@dataclass
class Neck:
    center: int
    R: int
    components: list

    def removed_mask(self, t):
        mask = np.zeros(t.n, dtype=bool)
        mask[t.word_ball([self.center], self.R - 1)] = True
        return mask


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
    R: int
    spacing: int              # the net's spacing
    necks: list
    centers_considered: int
    cover_ok: bool
    cover_radius: int         # smallest R covering the window from this net
    window_distance: int
    center_words: list = field(repr=False)    # t.word of each neck center
    # base radius -> (end classes, neck index) per component
    class_sets: dict = field(default_factory=dict, repr=False)


def find_necks(t, net, R):
    """All net members in the trustworthy window (distance <= radius - 3R:
    the R-ball and a margin of 2R) whose R-ball complement has at least
    three components, plus the cover check."""
    if R < 1:
        raise ValueError("R must be >= 1")
    window = t.radius - 3 * R
    if window < 0:
        raise EndsSplitterError(
            f"truncation radius {t.radius} too small for R={R} with margin "
            f"{2 * R}"
        )
    centers = net.member_ids[t.dist[net.member_ids] <= window]

    necks = []
    for x in centers.tolist():
        neck = Neck(center=x, R=R, components=_components(t, x, R))
        if len(neck.components) >= 3:
            necks.append(neck)

    in_window = t.dist <= window
    neck_centers = np.asarray([n.center for n in necks], dtype=np.int64)
    center_words = []
    if len(neck_centers):
        cover_necks = t.graph_distances_from(neck_centers)
        cover_ok = bool((cover_necks[in_window] <= R).all()
                        and (cover_necks[in_window] >= 0).all())
        cover_radius = int(cover_necks[in_window].max())
        stop, words = t.spheres()[window].stop, []
        for ids, ws in t.word_blocks():     # the words out to the window
            words.append(ws)
            if ids.stop == stop:
                break
        center_words = np.concatenate(words)[neck_centers].astype(str).tolist()
    else:
        cover_ok = False
        cover_radius = -1
    return NeckSurvey(R=R, spacing=net.spacing, necks=necks,
                      centers_considered=len(centers), cover_ok=cover_ok,
                      cover_radius=cover_radius, window_distance=window,
                      center_words=center_words)


def _components(t, x, R):
    """Complement components of the (R-1)-ball at x, by smallest member id.

    Each is one maximal arc of a block that meets the ball, found by
    walking the block away from the ball from a vertex next to it, with
    the cones hanging off the arc.  The arc through its block's anchor
    holds the identity's side, and so member 0; any other arc's smallest
    member is its own smallest vertex.

    Every component reaches the shell, since the ball fits in the
    truncation: a vertex below the shell has a longer neighbour in a block
    anchored at it, and the identity's side keeps a whole branch at e.
    """
    nbr, (anchor, _, cyclic) = t.nbr, t.blocks()
    ball = set(t.word_ball([x], R - 1).tolist())
    found, seen = [], set()
    for b in ball:
        for l, u in enumerate(nbr[b].tolist()):
            if u < 0 or u in ball or u in seen:
                continue
            arc = [u]
            if cyclic[l]:
                w = int(nbr[u, l])
                while w >= 0 and w not in ball:
                    arc.append(w)
                    w = int(nbr[w, l])
            seen.update(arc)
            # the block's vertex nearest e: b or u if one hangs off the other
            a = (b if anchor[u] == b else u if anchor[b] == u
                 else int(anchor[b]))
            if a in arc:
                arc.remove(a)
                found.append((0, u, arc, b))
            else:
                found.append((min(arc), u, arc, -1))
    found.sort()
    return [NeckComponent(seed=u, arc=tuple(arc), up=up)
            for _, u, arc, up in found]


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


def classify_neck(neck, masks):
    """The unique class under the precedence order, read from chi's
    ``TraceMasks``."""
    seen = masks.seen(_trace_sets(neck.components, masks))
    label = _precedence(seen, np.zeros(len(seen), dtype=np.intp), 1)[0]
    # a cluster sees one chi-value on the shell
    verdicts = tuple(_VERDICT[s] for s in seen.tolist())
    if label.startswith("regular"):
        return NeckClass(kind="regular", theta=int(label[-1]),
                         verdicts=verdicts)
    return NeckClass(kind=label, verdicts=verdicts)


def _precedence(seen, owner, n):
    """The class label of each of ``n`` necks, from ``masks.seen`` of the
    end classes of every component and the index of each one's neck."""
    # per neck: components that see both values (or none), only 0, only 1
    mixed, only0, only1 = (np.bincount(owner, weights=hit, minlength=n)
                           for hit in ((seen == 0) | (seen == 3),
                                       seen == 1, seen == 2))
    type2 = mixed >= 2
    type1 = ~type2 & (only0 > 0) & (only1 > 0)
    return np.where(type2, "special_type_2", np.where(
        type1, "special_type_1",
        np.where(only0 > 0, "regular_0", "regular_1")))


def _trace_sets(comps, masks):
    """The end classes of ``masks`` that each component reaches, as bit
    sets: an OR over its arc's cones and what lies past its ``up``."""
    sets = np.zeros((len(comps), masks.down.shape[1]), dtype=np.uint8)
    arc = [(j, v) for j, c in enumerate(comps) for v in c.arc]
    if arc:
        j, v = np.array(arc, dtype=np.intp).T
        np.bitwise_or.at(sets, j, masks.down[v])
    up = np.array([c.up for c in comps], dtype=np.intp)
    sets[up >= 0] |= masks.up[up[up >= 0]]
    return sets


def _class_sets(survey, masks):
    """The end classes of every component of the survey's necks, in
    order, and the index of each one's neck; read off ``masks`` once per
    base radius."""
    key = masks.base_radius
    if key not in survey.class_sets:
        owner = np.repeat(np.arange(len(survey.necks), dtype=np.intp),
                          [len(neck.components) for neck in survey.necks])
        survey.class_sets[key] = _trace_sets(
            [c for neck in survey.necks for c in neck.components],
            masks), owner
    return survey.class_sets[key]


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
    its components, which the survey keeps per base radius.  The
    structural checks follow: K must be nonempty for nonconstant chi, and
    every unbounded complement component of the K_I-ball system must be a
    cluster.
    """
    chi.require_nonconstant()
    R = survey.R
    masks = TraceMasks(t, chi)
    sets, owner = _class_sets(survey, masks)
    labels = _precedence(masks.seen(sets), owner, len(survey.necks))
    classes = dict(zip(survey.center_words, labels.tolist()))
    type1, type2 = labels == "special_type_1", labels == "special_type_2"
    centers = np.array([neck.center for neck in survey.necks], dtype=np.intp)
    k_ids = centers[type1 | type2].tolist()
    k1_ids, k2_ids = centers[type1].tolist(), centers[type2].tolist()
    warnings = []
    if not survey.cover_ok:
        warnings.append(
            f"necks at R={R} do not cover the window; smallest covering "
            f"radius from this net is {survey.cover_radius}"
        )

    if not k_ids:
        raise NeckCoverageError(
            "no special neck found for a nonconstant end function; the net "
            f"may be too sparse for the transition locus (spacing "
            f"{survey.spacing}, R {R})"
        )
    bad = _uncovered_cluster_components(t, masks, k1_ids, R)
    if bad is not None:
        raise NeckCoverageError(
            "a component outside the type-1 ball system fails to cobound a "
            f"cluster (witness vertex {t.word(bad)!r}); type-1 centers are "
            "invisible to this net"
        )

    word_of = dict(zip((n.center for n in survey.necks), survey.center_words))
    return NeckReport(
        R=R, chi_summary=chi.assignments_by_word(),
        K=[word_of[v] for v in k_ids],
        K_I=[word_of[v] for v in k1_ids],
        K_II=[word_of[v] for v in k2_ids],
        classes=classes, warnings=warnings,
        cover_ok=survey.cover_ok, cover_radius=survey.cover_radius,
        center_ids={"K": k_ids, "K_I": k1_ids, "K_II": k2_ids},
        survey=survey, masks=masks,
    )


def _uncovered_cluster_components(t, masks, k1_ids, R):
    """The smallest member of the first non-cluster unbounded component of
    the complement of the K_I ball system, or None.  A component's verdict
    comes from the end classes of its shell vertices, in chi's masks."""
    if not k1_ids:
        # empty ball system: the whole window is one component, which is
        # never a cluster for nonconstant data
        return 0
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


def gap_certificate(h, neck, masks):
    """A positive lower bound on the energy h spends crossing a type-1
    neck.

    Finds low/high witnesses (h <= 1/10 and h >= 9/10 when visible, else
    the extremal vertices), connects them through the neck, and charges
    the mean-value drop against the edges near the path.
    """
    t = h.truncation
    cls = classify_neck(neck, masks)
    if cls.kind != "special_type_1":
        raise EndsSplitterError(
            f"gap certificates need a type-1 neck, got {cls.label()}"
        )
    removed_mask = neck.removed_mask(t)

    best0, best1 = None, None
    for comp, verdict in zip(neck.components, cls.verdicts):
        members = comp.materialize(t, removed_mask)
        if verdict == 0:
            lo = float(h.values[members].min())
            if best0 is None or lo < best0[0]:
                best0 = (lo, comp, members)
        elif verdict == 1:
            hi = float(h.values[members].max())
            if best1 is None or hi > best1[0]:
                best1 = (hi, comp, members)
    if best0 is None or best1 is None:
        raise EndsSplitterError("type-1 neck lost its witness components")

    (_, comp0, m0), (_, comp1, m1) = best0, best1
    x0 = _witness_vertex(h, m0, comp0.layers(t, removed_mask), low=True)
    x1 = _witness_vertex(h, m1, comp1.layers(t, removed_mask), low=False)
    drop = float(h.values[x1] - h.values[x0])
    if drop <= 0:
        raise DegenerateDrop(
            f"no positive drop across the neck at {t.word(neck.center)}"
        )

    allowed = np.zeros(t.n, dtype=bool)
    allowed[m0] = True
    allowed[m1] = True
    allowed[removed_mask] = True
    path = _shortest_path(t, x0, x1, allowed)
    mu = (drop / (len(path) - 1)) ** 2

    union = np.zeros(t.n, dtype=bool)
    union[m0] = True
    union[m1] = True
    union[path] = True
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
        mus = [gap_certificate(h, neck, report.masks).mu
               for neck in survey.necks if neck.center in k1]
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
