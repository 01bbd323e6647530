"""Neck detection and classification, separated partitions with their dual
graphs, and energy-gap certificates.

A radius-R neck at x removes the ball of radius R - 1 around x (the
interior of the R-ball) and asks for at least three unbounded complement
components.  Classification against an end function is by precedence:

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
from .ends import complement_components, is_cluster
from .harmonic import energy

# shell-trace bits: a chi-value 0 / 1 seen on the shell, and the shell itself
CHI0, CHI1, SHELL = 1, 2, 4
_VERDICT = (None, 0, 1, None)     # by the chi bits of a component's trace


@dataclass(slots=True)        # a survey holds one per component of every neck
class NeckComponent:
    """A complement component of a neck's ball: the cones of ``arc``, a
    block arc, plus with ``up`` (a ball vertex of that block) != -1 all
    outside the block's branch at its anchor, the identity's side."""

    seed: int                 # a component vertex adjacent to the removed ball
    arc: tuple = ()
    up: int = -1
    unbounded: bool = True
    _members: np.ndarray | None = field(default=None, repr=False)

    def trace(self, masks):
        """OR of the shell-trace bits of ``masks`` over the component."""
        bits = int(masks.up[self.up]) if self.up >= 0 else 0
        for v in self.arc:
            bits |= int(masks.down[v])
        return bits

    def materialize(self, t, removed_mask):
        """Member ids, flooded from the seed on first use (by the gap
        certificates, which share it across end functions)."""
        if self._members is None:
            dist = t.graph_distances_from([self.seed],
                                          allowed_mask=~removed_mask)
            self._members = np.flatnonzero(dist >= 0)
        return self._members


@dataclass
class Neck:
    center: int
    R: int
    components: list

    def unbounded_count(self):
        return sum(1 for c in self.components if c.unbounded)

    def removed_mask(self, t):
        mask = np.zeros(t.n, dtype=bool)
        mask[t.word_ball([self.center], self.R - 1)] = True
        return mask


@dataclass
class NeckClass:
    kind: str                 # regular | special_type_1 | special_type_2
    theta: int | None = None
    verdicts: tuple = ()      # per unbounded component: 0, 1, or None

    def label(self):
        if self.kind == "regular":
            return f"regular_{self.theta}"
        return self.kind


@dataclass
class NeckSurvey:
    R: int
    margin: int
    necks: list
    centers_considered: int
    cover_ok: bool
    cover_radius: int         # smallest R covering the window from this net
    window_distance: int
    center_words: list = field(repr=False)    # t.word of each neck center


def find_necks(t, net, R, margin=None):
    """All net members in the trustworthy window whose R-ball complement
    has at least three unbounded components, plus the cover check."""
    if R < 1:
        raise ValueError("R must be >= 1")
    margin = 2 * R if margin is None else margin
    window = t.radius - R - margin
    if window < 0:
        raise EndsSplitterError(
            f"truncation radius {t.radius} too small for R={R} with margin "
            f"{margin}"
        )
    centers = net.member_ids[t.dist[net.member_ids] <= window]

    masks = TraceMasks(t)
    necks = []
    for x in centers.tolist():
        neck = Neck(center=x, R=R, components=_components(t, x, R, masks))
        if neck.unbounded_count() >= 3:
            necks.append(neck)

    in_window = t.dist <= window
    neck_centers = np.asarray([n.center for n in necks], dtype=np.int64)
    if len(neck_centers):
        cover_necks = t.graph_distances_from(neck_centers)
        cover_ok = bool((cover_necks[in_window] <= R).all()
                        and (cover_necks[in_window] >= 0).all())
        cover_radius = int(cover_necks[in_window].max())
    else:
        cover_ok = False
        cover_radius = -1
    return NeckSurvey(R=R, margin=margin, necks=necks,
                      centers_considered=len(centers), cover_ok=cover_ok,
                      cover_radius=cover_radius, window_distance=window,
                      center_words=[t.word(n.center) for n in necks])


def _components(t, x, R, masks):
    """Complement components of the (R-1)-ball at x, by smallest member id.

    Each is one maximal arc of a block that meets the ball, found by
    walking the block away from the ball from a vertex next to it, with
    the cones hanging off the arc.  The arc through its block's anchor
    holds the identity's side, and so member 0; any other arc's smallest
    member is its own smallest vertex.
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
    comps = [NeckComponent(seed=u, arc=tuple(arc), up=up)
             for _, u, arc, up in found]
    for c in comps:
        c.unbounded = bool(c.trace(masks) & SHELL)
    return comps


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class TraceMasks:
    """Shell-trace bits (SHELL, and CHI0 / CHI1 when chi is given) seen
    from the block tree.  down[v]: bits of v's cone, which is v with
    whatever hangs off it in the blocks anchored at v.  up[v]: bits
    outside the branch of v's block at the block's anchor; 0 at e.
    """

    def __init__(self, t, chi=None):
        anchor, block, _ = t.blocks()
        own = np.zeros(t.n, dtype=np.int8)
        shell = t.shell_ids()
        own[shell] = SHELL
        if chi is not None:
            vals = chi.shell_values(t)[shell]
            own[shell[vals == 0]] |= CHI0
            own[shell[vals == 1]] |= CHI1
        spheres = t.spheres()[1:]
        down = own.copy()
        for sl in reversed(spheres):
            np.bitwise_or.at(down, anchor[sl], down[sl])

        # per v != e, the bits of the other cones of its block (within), of
        # the other blocks at its anchor (beside) and outside its cone
        kids = slice(1, None)
        block = block[kids]
        branch = np.zeros(block.max() + 1, dtype=np.int8)
        np.bitwise_or.at(branch, block, down[kids])
        block_anchor = np.zeros(len(branch), dtype=block.dtype)
        block_anchor[block] = anchor[kids]
        within, beside, outside = np.zeros((3, t.n), dtype=np.int8)
        within[kids] = _others(block, down[kids])
        beside[kids] = _others(block_anchor, branch)[block]
        up = np.zeros(t.n, dtype=np.int8)
        for sl in spheres:
            a = anchor[sl]
            up[sl] = outside[a] | own[a] | beside[sl]
            outside[sl] = up[sl] | within[sl]
        self.down = down
        self.up = up


def _others(group, bits):
    """OR of ``bits`` over the other elements of each element's group."""
    out = np.zeros(len(group), dtype=np.int8)
    for bit in (CHI0, CHI1, SHELL):
        has = (bits & bit) != 0
        count = np.bincount(group[has], minlength=group.max() + 1)
        out[count[group] > has] |= bit
    return out


def classify_neck(t, neck, chi, tree_masks):
    """The unique class under the precedence order, read from chi's
    ``TraceMasks``."""
    # a cluster sees one chi-value on the shell
    verdicts = [_VERDICT[c.trace(tree_masks) & (CHI0 | CHI1)]
                for c in neck.components if c.unbounded]

    if verdicts.count(None) >= 2:
        return NeckClass(kind="special_type_2", verdicts=tuple(verdicts))
    if 0 in verdicts and 1 in verdicts:
        return NeckClass(kind="special_type_1", verdicts=tuple(verdicts))
    theta = 0 if 0 in verdicts else 1
    return NeckClass(kind="regular", theta=theta, verdicts=tuple(verdicts))


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
    kappa_bound: float | None = None
    center_ids: dict = field(default_factory=dict, repr=False)
    survey: NeckSurvey | None = field(default=None, repr=False)

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


def special_sets(t, net, R, chi, margin=None, survey=None, tree_masks=None):
    """Classify every neck of the survey and extract K, K_I, K_II.

    The structural checks follow: K must be nonempty for nonconstant chi,
    and every unbounded complement component of the K_I-ball system must be
    a cluster.

    ``survey`` (``find_necks(t, net, R, margin)``) and ``tree_masks``
    (``TraceMasks(t, chi)``) are computed here unless the caller passes
    the ones it holds.
    """
    chi.require_nonconstant()
    if survey is None:
        survey = find_necks(t, net, R, margin=margin)
    masks = tree_masks if tree_masks is not None else TraceMasks(t, chi)

    classes = {}
    k_ids, k1_ids, k2_ids = [], [], []
    warnings = []
    for neck, word in zip(survey.necks, survey.center_words):
        cls = classify_neck(t, neck, chi, tree_masks=masks)
        classes[word] = cls.label()
        if cls.kind == "special_type_1":
            k_ids.append(neck.center)
            k1_ids.append(neck.center)
        elif cls.kind == "special_type_2":
            k_ids.append(neck.center)
            k2_ids.append(neck.center)
    if not survey.cover_ok:
        warnings.append(
            f"necks at R={R} do not cover the window; smallest covering "
            f"radius from this net is {survey.cover_radius}"
        )

    if not k_ids:
        raise NeckCoverageError(
            "no special neck found for a nonconstant end function; the net "
            f"may be too sparse for the transition locus (spacing "
            f"{net.spacing}, R {R})"
        )
    bad = _uncovered_cluster_components(t, chi, k1_ids, R)
    if bad is not None:
        raise NeckCoverageError(
            "a component outside the type-1 ball system fails to cobound a "
            f"cluster (witness vertex {t.word(bad)!r}); type-1 centers are "
            "invisible to this net"
        )

    word_of = dict(zip((n.center for n in survey.necks), survey.center_words))
    report = NeckReport(
        R=R, chi_summary=chi.assignments_by_word(),
        K=[word_of[v] for v in k_ids],
        K_I=[word_of[v] for v in k1_ids],
        K_II=[word_of[v] for v in k2_ids],
        classes=classes, warnings=warnings,
        cover_ok=survey.cover_ok, cover_radius=survey.cover_radius,
        center_ids={"K": k_ids, "K_I": k1_ids, "K_II": k2_ids},
        survey=survey,
    )
    return report


def _uncovered_cluster_components(t, chi, k1_ids, R):
    """First witness vertex of a non-cluster unbounded component of the
    complement of the K_I ball system, or None."""
    if not k1_ids:
        # empty ball system: the whole window is one component, which is
        # never a cluster for nonconstant data
        return 0
    removed = t.word_ball(np.asarray(k1_ids, dtype=np.int64), R - 1)
    for comp in complement_components(t, removed):
        if not comp.unbounded:
            continue
        if is_cluster(t, chi, comp) is None:
            return int(comp.members[0])
    return None


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
    within_diameters: list
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

    labels = list(range(n))

    def find(i):
        while labels[i] != i:
            labels[i] = labels[labels[i]]
            i = labels[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] <= params.D:
                labels[find(i)] = find(j)

    by_root = {}
    for i in range(n):
        by_root.setdefault(find(i), []).append(i)
    groups = [sorted(K[i] for i in members)
              for root, members in sorted(by_root.items(),
                                          key=lambda kv: min(kv[1]))]

    diam = []
    for g in groups:
        idx = [K.index(v) for v in g]
        diam.append(max((dist[i][j] for i in idx for j in idx), default=0))
    gaps = []
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            ia = [K.index(v) for v in groups[a]]
            ib = [K.index(v) for v in groups[b]]
            gaps.append(min(dist[i][j] for i in ia for j in ib))
    min_gap = min(gaps) if gaps else None
    return Partition(
        groups=groups, within_diameters=diam, min_between_gap=min_gap,
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
    connected: bool
    cycle_witness: list | None
    separation_checked: bool
    separation_ok: bool | None

    @property
    def n_nodes(self):
        return len(self.k_labels) + len(self.c_sizes)

    @property
    def n_edges(self):
        return len(self.edges)


def dual_graph(t, groups, R, phi_bound=None):
    """Nerve of the covering by group balls and complement components.

    ``phi_bound`` is the connectivity bound of the separation hypothesis;
    when supplied, ball gaps are checked against it.
    """
    groups = [list(map(int, g)) for g in groups]
    all_k = np.asarray([v for g in groups for v in g], dtype=np.int64)
    removed = t.word_ball(all_k, R - 1)
    removed_mask = np.zeros(t.n, dtype=bool)
    removed_mask[removed] = True
    comps = complement_components(t, removed)

    ball_masks = []
    for g in groups:
        mask = np.zeros(t.n, dtype=bool)
        mask[t.word_ball(np.asarray(g, dtype=np.int64), R)] = True
        ball_masks.append(mask)

    edges = []
    for j, comp in enumerate(comps):
        nb = t.nbr[comp.members]
        removed_nbrs = np.unique(nb[(nb >= 0) & removed_mask[nb.clip(0)]])
        closure = np.concatenate([comp.members, removed_nbrs]) \
            if len(removed_nbrs) else comp.members
        for i, mask in enumerate(ball_masks):
            if mask[closure].any():
                edges.append((i, j))

    n_k, n_c = len(groups), len(comps)
    parent = list(range(n_k + n_c))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    cycle = None
    for i, j in edges:
        a, b = find(i), find(n_k + j)
        if a == b:
            cycle = [i, n_k + j]
        else:
            parent[a] = b
    roots = {find(i) for i in range(n_k + n_c)}
    connected = len(roots) == 1
    is_tree = connected and cycle is None and len(edges) == n_k + n_c - 1

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
        c_sizes=[int(c.size) for c in comps],
        c_unbounded=[bool(c.unbounded) for c in comps],
        edges=edges, is_tree=is_tree, connected=connected,
        cycle_witness=cycle,
        separation_checked=phi_bound is not None,
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
    neck_center: int
    witness_path: list
    drop: float
    mu: float
    region_edges: np.ndarray       # boolean edge mask
    region_energy: float
    x0: int
    x1: int


WITNESS_EPSILON = 0.1


def gap_certificate(h, neck, chi, tree_masks):
    """A positive lower bound on the energy h spends crossing a type-1
    neck.

    Finds low/high witnesses (h <= 1/10 and h >= 9/10 when visible, else
    the extremal vertices), connects them through the neck, and charges
    the mean-value drop against the edges near the path.
    """
    t = h.truncation
    cls = classify_neck(t, neck, chi, tree_masks=tree_masks)
    if cls.kind != "special_type_1":
        raise EndsSplitterError(
            f"gap certificates need a type-1 neck, got {cls.label()}"
        )
    removed_mask = neck.removed_mask(t)

    best0, best1 = None, None
    unbounded = [c for c in neck.components if c.unbounded]
    for comp, verdict in zip(unbounded, cls.verdicts):
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

    m0, m1 = best0[2], best1[2]
    x0 = _witness_vertex(t, h, m0, removed_mask, low=True)
    x1 = _witness_vertex(t, h, m1, removed_mask, low=False)
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
        neck_center=neck.center, witness_path=[int(v) for v in path],
        drop=drop, mu=mu, region_edges=region, region_energy=region_energy,
        x0=x0, x1=x1,
    )
    if cert.mu > cert.region_energy + 1e-12:
        raise EndsSplitterError("certificate failed its own soundness check")
    return cert


def _witness_vertex(t, h, members, removed_mask, low):
    """Nearest vertex (from the attachment layer) past the 1/10 threshold,
    else the extremal vertex; deterministic tiebreak by id."""
    attach = members[
        (removed_mask[t.nbr[members]] & (t.nbr[members] >= 0)).any(axis=1)
    ]
    allowed = np.zeros(t.n, dtype=bool)
    allowed[members] = True
    dist = t.graph_distances_from(attach, allowed_mask=allowed)
    vals = h.values[members]
    good = vals <= WITNESS_EPSILON if low else vals >= 1 - WITNESS_EPSILON
    if good.any():
        cand = members[good]
        order = np.lexsort((cand, dist[cand]))
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


def energy_gap_estimate(t, net, R, chis, solver_cfg=None, margin=None):
    """Bracket [certified_mu, min energy] for the window-scale energy gap
    over a family of end functions."""
    from .harmonic import solve_dirichlet

    rows = []
    best_mu = 0.0
    min_energy = math.inf
    # the neck survey does not depend on chi
    survey = find_necks(t, net, R, margin=margin)
    for chi in chis:
        chi.require_nonconstant()
        h = solve_dirichlet(t, chi, solver_cfg)
        e_total = energy(h).total
        masks = TraceMasks(t, chi)
        report = special_sets(t, net, R, chi, margin=margin, survey=survey,
                              tree_masks=masks)
        mus = []
        for neck in report.survey.necks:
            if neck.center not in report.center_ids["K_I"]:
                continue
            cert = gap_certificate(h, neck, chi, tree_masks=masks)
            mus.append(cert.mu)
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
