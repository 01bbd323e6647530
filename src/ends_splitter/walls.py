"""Walls, indecomposable regions, the wall tree, and the group action.

Walls live on edges: a wall of the pullback f = (v -> h(v*g)) at threshold
t is the set of edges where f - t changes sign.  The threshold is chosen
near 1/2 but bounded away from every sampled field value, so sign patterns
are stable and the discrete level set meets no vertex.

At a finite radius h is only approximately energy-minimizing, so failures
of the pointwise trichotomy are recorded as data with their witnesses,
never errors; their count shrinking under larger radii is the observable
shadow of minimality.

The sample's full-ball id maps are read in one pass (``sample_images``),
whose ``SampleImages`` is the one input of the threshold, the walls and the
action; they hold arrays on the common domain only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CrossingWalls, EndsSplitterError, NoRegularValue,
                     NotATree, ScenarioError)
from .harmonic import pullback

RELATIONS = ("eq_h", "lt_h", "gt_h", "eq_one_minus_h", "lt_one_minus_h",
             "gt_one_minus_h")


@dataclass
class WallConfig:
    threshold: float
    sample_radius: int = 3
    equality_tol: float = 1e-9
    step: float = 1e-3


@dataclass
class TrichotomyVerdict:
    g: str
    relation: str               # one of RELATIONS or "violation"
    max_slack: float
    witness: int | None = None

    def is_violation(self):
        return self.relation == "violation"


def trichotomy(h, g, equality_tol=1e-9, inside=None, vals=None):
    """Classify the pullback of h along g against h and 1 - h pointwise on
    the common domain.  ``inside`` is the mask of g's pullback domain and
    ``vals`` the pulled values there, read from ``pullback`` when not
    given."""
    if vals is None:
        pulled = pullback(h, g)
        inside, vals = pulled.domain, pulled.values[pulled.domain]
    if not len(vals):
        raise EndsSplitterError(f"pullback domain of {g} is empty")
    base = h.values[inside]

    failures = {}
    for rel in ("h", "one_minus_h"):
        diff = vals - (1.0 - base if "minus" in rel else base)
        hi = float(diff.max())
        lo = float(diff.min())
        failures[f"eq_{rel}"] = max(hi, -lo)
        # lt fails by the amount diff exceeds 0; gt symmetric
        failures[f"lt_{rel}"] = max(hi, 0.0) if lo < -equality_tol else np.inf
        failures[f"gt_{rel}"] = max(-lo, 0.0) if hi > equality_tol else np.inf
        del diff                    # before the next one is made

    for rel in RELATIONS:
        if failures[rel] <= equality_tol:
            return TrichotomyVerdict(g=str(g), relation=rel,
                                     max_slack=failures[rel])
    best = min(RELATIONS, key=lambda r: failures[r])
    # witness: the vertex realizing the smallest relation's failure
    diff = vals - (1.0 - base if "minus" in best else base)
    if best.startswith("eq"):
        diff = np.abs(diff)
    w = np.flatnonzero(inside)[
        int(np.argmax(-diff if best.startswith("gt") else diff))]
    return TrichotomyVerdict(g=str(g), relation="violation",
                             max_slack=float(failures[best]), witness=int(w))


def check_wall_settings(step, equality_tol):
    """ScenarioError unless step is finite and > 0 and equality_tol is
    finite and >= 0; a zero step would retry 1/2 forever."""
    if not (math.isfinite(step) and step > 0):
        raise ScenarioError(f"wall step must be finite and > 0, got {step!r}")
    if not (math.isfinite(equality_tol) and equality_tol >= 0):
        raise ScenarioError(
            f"wall equality_tol must be finite and >= 0, got {equality_tol!r}")


@dataclass
class SampleImages:
    """What walls, regions and the action read of the sample's right
    action, taken in one pass over its full-ball id maps
    (``sample_images``).  Only ``images`` has one array per element, and
    each has the domain's length."""
    equality_tol: float
    sample: list                # the elements, in the order of the lists below
    verdicts: list              # trichotomy verdict per element
    near: np.ndarray            # distinct values that can block a threshold
    shell_traces: list          # per element: {min, max} constancy or None
    domain: np.ndarray          # vertex mask the images are kept on
    images: list                # per element: int32 id map on the domain's ids


def sample_images(h, sample, equality_tol=1e-9):
    """One pass over the sample's full-ball id maps, holding one chain of
    them at a time (``Truncation.right_action_stream``).  From each map it
    takes the element's trichotomy verdict, its pulled values near
    [0.5, 0.6] for the threshold, its shell-trace probe and its share of
    the joint domain.

    The images are kept on the common domain of the sample.  That domain
    is known only after the pass, but it lies inside the joint domain of
    the maps seen so far, so each image is kept on that joint domain and
    cut down as it shrinks.
    """
    t = h.truncation
    shell = t.shell_ids()
    lo, hi = 0.5 - equality_tol, 0.6 + equality_tol
    verdicts, traces = [None] * len(sample), [None] * len(sample)
    images, near = [None] * len(sample), [np.zeros(0)]
    ids = np.arange(t.n)
    for i, img in t.right_action_stream(sample):
        inside = img >= 0
        vals = h.values[img[inside]]
        verdicts[i] = trichotomy(h, sample[i], equality_tol, inside=inside,
                                 vals=vals)
        near.append(vals[(vals >= lo) & (vals <= hi)])
        traces[i] = _shell_trace(h, shell, img[shell], equality_tol)
        keep = inside[ids]
        ids = ids[keep]
        images = [k if k is None else k[keep] for k in images]
        images[i] = img[ids]
        del img, inside, vals       # free before the next map is built
    joint = np.zeros(t.n, dtype=bool)
    joint[ids] = True
    if not joint[0]:
        raise EndsSplitterError("the basepoint fell out of the sample domain")
    # the common domain: the basepoint's component of the joint domain
    domain = t.graph_distances_from([0], allowed_mask=joint) >= 0
    keep = domain[ids]
    return SampleImages(equality_tol=equality_tol, sample=list(sample),
                        verdicts=verdicts,
                        near=np.unique(np.concatenate(near)),
                        shell_traces=traces, domain=domain,
                        images=[k[keep] for k in images])


def _shell_trace(h, shell, img, equality_tol):
    """Whether min(h, pullback) and max(h, pullback) are constant on the
    shell vertices that ``img`` (their images) keeps in the ball."""
    sh = shell[img >= 0]
    if not len(sh):
        return None
    pulled = h.values[img[img >= 0]]
    mn = np.minimum(h.values[sh], pulled)
    mx = np.maximum(h.values[sh], pulled)
    return {"min": bool(np.ptp(mn) <= 2 * equality_tol),
            "max": bool(np.ptp(mx) <= 2 * equality_tol)}


def choose_threshold(images, step=1e-3, sample_radius=None):
    """Smallest t = 1/2 + k*step that keeps distance >= equality_tol from
    every pulled value of the sample ``images``; NoRegularValue if none
    below 0.6 works."""
    equality_tol = images.equality_tol
    check_wall_settings(step, equality_tol)
    # only values within equality_tol of [0.5, 0.6] can block a candidate
    allv = images.near
    k = 1
    while True:
        cand = _candidate(k, step)
        if cand >= 0.6:
            raise NoRegularValue(
                "no threshold in (0.5, 0.6) stays clear of the sampled "
                f"values at tolerance {equality_tol:.1e}"
            )
        lo = np.searchsorted(allv, cand - equality_tol, side="left")
        hi = np.searchsorted(allv, cand + equality_tol, side="right")
        if lo == hi:
            return WallConfig(
                threshold=float(cand),
                sample_radius=sample_radius if sample_radius is not None
                else max((g.length() for g in images.sample), default=0),
                equality_tol=equality_tol, step=step,
            )
        k = _past(allv[hi - 1], k, step, equality_tol)


def _candidate(k, step):
    try:
        return 0.5 + k * step
    except OverflowError:           # k beyond every float: past 0.6 too
        return math.inf


def _past(value, k, step, equality_tol):
    """The first k' > k whose candidate reaches 0.6 or has its window above
    ``value``, which blocks all candidates between.  Both tests only turn
    true as k' grows: doubling and bisection take O(log k') tests."""
    def past(j):
        cand = _candidate(j, step)
        return cand >= 0.6 or cand - equality_tol > value

    lo, hi = k, k + 1
    while not past(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    return hi


@dataclass
class Wall:
    labels: list                # group elements sharing this wall
    edge_ids: np.ndarray        # sorted indices into the edge arrays
    side: np.ndarray            # int8 per domain id: +1 above, -1 below

    @property
    def label(self):
        return self.labels[0]


@dataclass
class WallSystem:
    config: WallConfig
    walls: list
    domain: np.ndarray          # common valid domain (component of basepoint)
    empty_pullbacks: list       # g whose crossing set is empty in-window

    @cached_property
    def domain_ids(self):
        return np.flatnonzero(self.domain)

    def side_at(self, wall, v):
        """``wall``'s side at the vertices ``v``, 0 off the domain."""
        inside = self.domain[v]
        out = np.zeros(len(v), dtype=np.int8)
        out[inside] = wall.side[np.searchsorted(self.domain_ids, v[inside])]
        return out

    def wall_edge_mask(self, t):
        mask = np.zeros(t.n_edges(), dtype=bool)
        for w in self.walls:
            mask[w.edge_ids] = True
        return mask


def build_walls(h, cfg, images):
    """One wall per distinct crossing edge set over the pulled fields of
    the sample ``images``, on their common domain."""
    if images.equality_tol != cfg.equality_tol:
        raise ValueError(f"sample images taken at equality_tol "
                         f"{images.equality_tol!r}, not {cfg.equality_tol!r}")
    t = h.truncation
    dom = images.domain
    ids = np.flatnonzero(dom)
    eu, ev, _ = t.edges()
    inner = np.flatnonzero(dom[eu] & dom[ev])
    # the common domain lies in every pullback domain: images are >= 0
    pu, pv = np.searchsorted(ids, eu[inner]), np.searchsorted(ids, ev[inner])

    by_key = {}
    order = []
    empty = []
    for g, img in zip(images.sample, images.images):
        above = h.values[img] > cfg.threshold
        crossing = inner[above[pu] != above[pv]]
        if len(crossing) == 0:
            empty.append(str(g))
            continue
        key = tuple(crossing.tolist())
        if key in by_key:
            by_key[key].labels.append(str(g))
            continue
        side = np.where(above, 1, -1).astype(np.int8)
        wall = Wall(labels=[str(g)], edge_ids=crossing, side=side)
        by_key[key] = wall
        order.append(key)
    walls = [by_key[k] for k in order]
    return WallSystem(config=cfg, walls=walls, domain=dom,
                      empty_pullbacks=empty)


def assert_noncrossing(t, system):
    """Discrete non-crossing: distinct walls use distinct edges, and no
    wall separates the endpoints of another wall's edges.

    Two level cuts through one edge correspond to continuum walls meeting
    the same segment at different interior points; the edge-level
    resolution cannot represent the sliver between them, so such
    configurations are surfaced as diagnostics instead of being guessed
    at.
    """
    eu, ev, _ = t.edges()
    owner = {}
    for i, w in enumerate(system.walls):
        for e in w.edge_ids.tolist():
            if e in owner:
                raise CrossingWalls(
                    f"walls {system.walls[owner[e]].label} and {w.label} "
                    f"both cut the edge ({t.word(int(eu[e]))},"
                    f"{t.word(int(ev[e]))}); the sliver between their level "
                    "crossings has no vertex at this scale"
                )
            owner[e] = i
    endpoint_ids = [
        np.unique(np.concatenate([eu[w.edge_ids], ev[w.edge_ids]]))
        for w in system.walls
    ]
    for i, w1 in enumerate(system.walls):
        for j, pts in enumerate(endpoint_ids):
            if i == j:
                continue
            sides = system.side_at(w1, pts)
            if (sides > 0).any() and (sides < 0).any():
                raise CrossingWalls(
                    f"wall {w1.label} separates points of wall "
                    f"{system.walls[j].label}"
                )


@dataclass
class IndecomposableRegion:
    id: int
    members: np.ndarray
    adjacent_walls: list
    n_pieces: int = 1            # regions may be disconnected sets

    @property
    def size(self):
        return len(self.members)


@dataclass
class RegionDecomposition:
    labels: np.ndarray           # per vertex, -1 off the domain
    regions: list


def indecomposable_regions(t, system):
    """Maximal vertex classes unseparated by any wall (side-signature
    classes; such sets need not be connected).

    The independent route deletes wall edges and floods; each of its
    components must carry one signature, otherwise some wall separates
    points no wall edge cuts apart and CrossingWalls is raised.  A
    signature class spanning several flood components is a legitimately
    disconnected region and is reported through ``n_pieces``.
    """
    eu, ev, _ = t.edges()
    dom = system.domain
    wall_mask = system.wall_edge_mask(t)
    keep = dom[eu] & dom[ev] & ~wall_mask

    ids = system.domain_ids
    # side signature folded in one wall at a time in base 3, renumbered
    # after every 20 walls: codes below len(ids) < 2**31 then grow by at
    # most 3**20 < 2**32 before the next renumbering, so int64 never wraps
    sig = np.zeros(len(ids), dtype=np.int64)
    for k, w in enumerate(system.walls, 1):
        sig = 3 * sig + (w.side + 1)
        if k % 20 == 0:
            _, sig = np.unique(sig, return_inverse=True)
    # deterministic region ids ordered by smallest member
    _, first, sig = np.unique(sig, return_index=True, return_inverse=True)
    region = np.argsort(np.argsort(first))[sig]
    labels = np.full(t.n, -1, dtype=np.int64)
    labels[ids] = region
    n_regions = len(first)

    # each flood component must sit inside one signature class
    flood = t.component_labels(keep)[ids].astype(np.int64)
    pairs = np.unique(flood * n_regions + region)
    if len(pairs) != len(np.unique(flood)):
        raise CrossingWalls(
            "a wall separates vertices inside one wall-free component"
        )

    pieces = np.bincount(pairs % n_regions, minlength=n_regions)
    sizes = np.bincount(region, minlength=n_regions)
    members = np.split(ids[np.argsort(region, kind="stable")],
                       np.cumsum(sizes)[:-1])
    regions = [IndecomposableRegion(id=lab, members=members[lab],
                                    adjacent_walls=[],
                                    n_pieces=int(pieces[lab]))
               for lab in range(n_regions)]
    return RegionDecomposition(labels=labels, regions=regions)


@dataclass
class WallTree:
    regions: list
    walls: list
    incidence: list              # per wall: (minus region id, plus region id)
    region_of_vertex: np.ndarray

    @property
    def n_nodes(self):
        return len(self.regions)

    @property
    def n_edges(self):
        return len(self.walls)


def _refuse_walls_off_the_domain(system, eu, ev):
    """NotATree for the first wall with an edge leaving the domain."""
    dom = system.domain
    for w in system.walls:
        if not (dom[eu[w.edge_ids]] & dom[ev[w.edge_ids]]).all():
            raise NotATree(f"wall {w.label} has edges leaving the domain")


def build_wall_tree(t, system, decomposition):
    """Incidence of regions and walls, with the tree checks.

    Every wall must touch exactly two regions (its sides); the graph must
    be connected and satisfy the Euler count, and an independent union-find
    pass must find no cycle.
    """
    labels = decomposition.labels
    eu, ev, _ = t.edges()
    assert_noncrossing(t, system)
    _refuse_walls_off_the_domain(system, eu, ev)
    incidence = []
    for w in system.walls:
        us, vs = eu[w.edge_ids], ev[w.edge_ids]
        below = system.side_at(w, us) < 0
        lo = np.where(below, us, vs)
        hi = np.where(below, vs, us)
        minus = np.unique(labels[lo])
        plus = np.unique(labels[hi])
        if len(minus) != 1 or len(plus) != 1:
            raise NotATree(
                f"wall {w.label} touches {len(minus)} minus-regions and "
                f"{len(plus)} plus-regions (need exactly 1 + 1)",
            )
        incidence.append((int(minus[0]), int(plus[0])))
        w_idx = len(incidence) - 1
        decomposition.regions[int(minus[0])].adjacent_walls.append(w_idx)
        decomposition.regions[int(plus[0])].adjacent_walls.append(w_idx)

    n = len(decomposition.regions)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in incidence:
        ra, rb = find(a), find(b)
        if ra == rb:
            raise NotATree("wall incidence contains a cycle",
                           cycle=[a, b])
        parent[ra] = rb
    connected = len({find(i) for i in range(n)}) == 1
    euler = len(incidence) == n - 1
    if not (connected and euler):
        raise NotATree(
            f"wall graph disconnected or Euler count failed "
            f"({len(incidence)} edges, {n} nodes)"
        )
    return WallTree(regions=decomposition.regions, walls=system.walls,
                    incidence=incidence,
                    region_of_vertex=decomposition.labels)


def wall_tree_dot(tree):
    lines = ["graph walltree {"]
    for r in tree.regions:
        lines.append(f'  r{r.id} [shape=ellipse, label="R{r.id} ({r.size})"];')
    for i, (a, b) in enumerate(tree.incidence):
        label = "|".join(tree.walls[i].labels)
        lines.append(f'  r{a} -- r{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The action on the tree
# ---------------------------------------------------------------------------

@dataclass
class ActionReport:
    region_maps: dict            # g -> list (region -> region, -1 off-window)
    wall_images: dict            # g -> list of per-wall outcomes
    stabilizer_sizes: list       # per wall: sampled stabilizer cardinality
    inversions: list             # (g, wall) pairs with swapped sides
    h_wall_invariance: dict      # g -> equal | disjoint | out_of_window
    fixed_regions: list          # regions fixed by every sampled g
    boundary_trace_constant: dict  # g -> {min: bool, max: bool}
    region_splits: dict          # g -> count of regions straddling unsampled walls
    anomalies: list              # genuine invariance violations

    def to_json_dict(self, tree=None):
        out = {
            "action": self.region_maps,
            "wall_images": self.wall_images,
            "stabilizers": self.stabilizer_sizes,
            "inversions": self.inversions,
            "h_wall_invariance": self.h_wall_invariance,
            "fixed_regions": self.fixed_regions,
            "boundary_trace_constant": self.boundary_trace_constant,
            "region_splits": self.region_splits,
            "anomalies": self.anomalies,
        }
        if tree is not None:
            out["nodes"] = [
                {"id": r.id, "size": int(r.size), "pieces": r.n_pieces}
                for r in tree.regions
            ]
            out["edges"] = [
                {"wall": "|".join(tree.walls[i].labels),
                 "regions": [a, b]}
                for i, (a, b) in enumerate(tree.incidence)
            ]
        return out


def action_on_tree(t, system, tree, images):
    """The sampled right action on regions and walls, read from the
    ``images`` of the sample the walls come from.

    Reports per-element region maps, wall images (equal / disjoint /
    out-of-window), sampled edge stabilizers, inversion and fixed-region
    probes, and whether the pullback's min/max shell traces are constant.
    Walls must be edge-disjoint and lie on the domain, as
    ``build_wall_tree`` checks; a wall leaving the domain is NotATree.
    """
    if not np.array_equal(images.domain, system.domain):
        raise ValueError("sample images kept on another domain")
    eu, ev, el = t.edges()
    _refuse_walls_off_the_domain(system, eu, ev)
    labels = tree.region_of_vertex
    n_regions = tree.n_nodes

    # the right action keeps edge letters: the edge (u, l*u) goes to
    # (ug, l*ug).  Each wall edge is found from either end by its code
    # u * L + l, so no table over the ball is needed.
    L = t.n_letters
    inverse = np.array([t.presentation.engine().inverse_letter(l)
                        for l in range(L)])
    walls = system.walls
    sizes = [len(w.edge_ids) for w in walls]
    edges = (np.concatenate([w.edge_ids for w in walls]) if walls
             else np.zeros(0, dtype=np.int64))
    owner = np.repeat(np.arange(len(walls)), sizes)
    bounds = np.cumsum([0] + sizes)
    wu, wv, wl = eu[edges], ev[edges], el[edges]
    codes = np.concatenate([wu * L + wl, wv * L + inverse[wl]])
    by_code = np.argsort(codes)
    codes = codes[by_code]
    code_edge = np.tile(edges, 2)[by_code]
    code_owner = np.tile(owner, 2)[by_code]

    ids = system.domain_ids
    source = labels[ids]
    pu, pv = np.searchsorted(ids, wu), np.searchsorted(ids, wv)

    region_maps = {}
    wall_images = {}
    inversions = []
    h_wall = {}
    stab_counts = [0] * len(walls)
    anomalies = []
    trace_const = {}
    region_splits = {}

    for g, img, trace in zip(images.sample, images.images,
                             images.shell_traces):
        gname = str(g)

        # region map by unanimous vote of in-window images; an image that
        # straddles walls outside the sampled family is recorded as a split
        target = np.where(img >= 0, labels[img], -1)
        hit = (source >= 0) & (target >= 0)
        pairs = np.unique(source[hit] * n_regions + target[hit])
        src, tgt = np.divmod(pairs, n_regions)
        counts = np.bincount(src, minlength=n_regions)
        single = counts[src] == 1
        rmap = np.full(n_regions, -1)
        rmap[src[single]] = tgt[single]
        region_maps[gname] = rmap = rmap.tolist()
        region_splits[gname] = int((counts > 1).sum())

        # wall images; an image pair that is no edge is an anomaly
        iu, iv = img[pu], img[pv]
        inside = (iu >= 0) & (iv >= 0)
        onto = inside & (t.nbr[iu, wl] == iv)
        query = np.where(inside, iu.astype(np.int64) * L + wl, -1)
        at = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
        found = codes[at] == query
        keys = np.where(found, code_edge[at], -1)
        hits = np.where(found, code_owner[at], -1)
        outcomes = []
        for i, w in enumerate(walls):
            part = slice(bounds[i], bounds[i + 1])
            mine = hits[part]
            j = int(mine[0])
            if not onto[part].all():
                if inside[part].all():
                    anomalies.append(f"image of wall {w.label} under {gname} "
                                     "leaves the edge set")
                outcomes.append("out_of_window")
            elif (j >= 0 and (mine == j).all()
                  and len(np.unique(keys[part])) == sizes[j]):
                outcomes.append(f"wall_{j}")
                if j == i:
                    stab_counts[i] += 1
                    # inversion probe: does g swap the two sides?
                    a, b = tree.incidence[i]
                    if rmap[a] == b and rmap[b] == a and a != b:
                        inversions.append((gname, i))
            elif (mine >= 0).any():
                outcomes.append("partial_overlap")
                anomalies.append(
                    f"image of wall {w.label} under {gname} partially "
                    "overlaps another wall"
                )
            else:
                outcomes.append("disjoint")
        wall_images[gname] = outcomes

        # precise invariance of the base wall
        if walls:
            base = outcomes[0]
            if base not in ("wall_0", "out_of_window"):
                base = ("overlap" if (hits[:sizes[0]] == 0).any()
                        else "disjoint")
            h_wall[gname] = "equal" if base == "wall_0" else base

        # shell traces of min/max against h: constancy probe
        if trace is not None:
            trace_const[gname] = trace

    fixed = [r.id for r in tree.regions
             if all(rmap[r.id] == r.id for rmap in region_maps.values())]

    return ActionReport(
        region_maps=region_maps, wall_images=wall_images,
        stabilizer_sizes=stab_counts, inversions=inversions,
        h_wall_invariance=h_wall, fixed_regions=fixed,
        boundary_trace_constant=trace_const, region_splits=region_splits,
        anomalies=anomalies,
    )
