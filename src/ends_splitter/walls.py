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
block by block, into running extremes and arrays on the common domain
only; no array of pulled values spans the ball.  The common domain is the
ball B_{R-s}, s the longest sampled length: ids are breadth-first, so it
is the ids below its size, and every stage reads it on vertex ids
directly.  Each stage after the pass takes what the stage before
returned: the threshold and the walls read the images, the tree reads
the walls, which hold the images, and the action reads the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CrossingWalls, EndsSplitterError, NoRegularValue,
                     NotATree, ScenarioError)
from .groups import join_labels, unique_sorted
from .harmonic import pullback

# ids of an id map that the wall pass reads at once, which bounds its
# temporaries whatever the ball's size
_BLOCK = 1 << 16

RELATIONS = ("eq_h", "lt_h", "gt_h", "eq_one_minus_h", "lt_one_minus_h",
             "gt_one_minus_h")


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
    extremes = [[-np.inf, np.inf], [-np.inf, np.inf]]
    _fold(extremes, *_diffs(vals, base))
    return _verdict(g, equality_tol, extremes, [(0, inside, vals, base)])


def _diffs(vals, base):
    """The pulled values minus h and minus 1 - h."""
    return vals - base, vals - (1.0 - base)


def _fold(extremes, *arrays):
    """Fold the max and min of each array into its running [max, min],
    which stays [-inf, inf] while every array is empty."""
    for ext, a in zip(extremes, arrays):
        if len(a):
            ext[:] = max(ext[0], float(a.max())), min(ext[1], float(a.min()))


def _verdict(g, equality_tol, extremes, blocks):
    """g's trichotomy verdict from the [max, min] of its two ``_diffs``.
    ``blocks`` gives ``(first id, domain mask, pulled values, h there)``
    over the pullback domain in id order; only a violation reads it, for
    its witness: the first vertex in id order that realizes the extreme of
    the relation that fails least."""
    failures = {}
    for rel, (hi, lo) in zip(("h", "one_minus_h"), extremes):
        failures[f"eq_{rel}"] = max(hi, -lo)
        # lt fails by the amount diff exceeds 0; gt symmetric
        failures[f"lt_{rel}"] = max(hi, 0.0) if lo < -equality_tol else np.inf
        failures[f"gt_{rel}"] = max(-lo, 0.0) if hi > equality_tol else np.inf

    for rel in RELATIONS:
        if failures[rel] <= equality_tol:
            return TrichotomyVerdict(g=str(g), relation=rel,
                                     max_slack=failures[rel])
    best = min(RELATIONS, key=lambda r: failures[r])
    hi, lo = extremes["minus" in best]
    extreme = {"eq": max(hi, -lo), "lt": hi, "gt": lo}[best[:2]]
    for a, inside, vals, base in blocks:
        diff = _diffs(vals, base)["minus" in best]
        at = np.flatnonzero((np.abs(diff) if best.startswith("eq") else diff)
                            == extreme)
        if len(at):
            return TrichotomyVerdict(
                g=str(g), relation="violation",
                max_slack=float(failures[best]),
                witness=int(a + np.flatnonzero(inside)[at[0]]))


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
    (``sample_images``).  The common domain is the ids below
    ``domain_size``: the ball B_{R-s}, where every sampled map is defined.
    Only ``images`` has one array per element, and each has the domain's
    length."""
    equality_tol: float
    sample: list                # the elements, in the order of the lists below
    verdicts: list              # trichotomy verdict per element
    near: np.ndarray            # distinct values that can block a threshold
    shell_traces: list          # per element: {min, max} constancy or None
    domain_size: int            # the domain is the ids below it
    images: list                # per element: int32 id map on the domain


def sample_images(h, sample, equality_tol=1e-9):
    """One pass over the sample's full-ball id maps, holding one chain of
    them at a time (``Truncation.right_action_stream``).  Each map is read
    in blocks of ``_BLOCK`` ids, so no temporary spans the ball.  A block
    folds the element's trichotomy diffs and shell trace into running
    extremes, and gives its pulled values near [0.5, 0.6] for the
    threshold.  Max and min are exact in any order, so the verdicts are
    those of ``trichotomy``; a violation's witness takes a second pass
    over the blocks.

    The images are kept on the common domain B_{R-s}, R the radius and s
    the longest sampled length: for v in it and |g| <= s every prefix
    product v * l1 ... lj has length <= R, so every map is defined there.
    For the ball sample B_s it is exactly the joint domain of the maps: a
    longer v leaves the map of some g of length s whose first syllable
    lies in another factor than v's last.  For any other sample it lies
    inside the joint domain.  EndsSplitterError if s exceeds R.
    """
    t = h.truncation
    s = max((g.length() for g in sample), default=0)
    if s > t.radius:
        raise EndsSplitterError(
            f"a sampled element has length {s}, past the truncation radius "
            f"{t.radius}")
    m = t.spheres()[t.radius - s].stop
    lo, hi = 0.5 - equality_tol, 0.6 + equality_tol
    verdicts, traces = [None] * len(sample), [None] * len(sample)
    images, near = [None] * len(sample), [np.zeros(0)]
    for i, img in t.right_action_stream(sample):
        # [max, min] of the two diffs, then of min(h, pulled) and
        # max(h, pulled) on the shell
        extremes = [[-np.inf, np.inf] for _ in range(4)]
        for a, inside, vals, base in _pulled(h, img):
            near.append(vals[(vals >= lo) & (vals <= hi)])
            shell = t.shell_mask[a:a + _BLOCK][inside]
            _fold(extremes, *_diffs(vals, base),
                  np.minimum(base, vals)[shell], np.maximum(base, vals)[shell])
        verdicts[i] = _verdict(sample[i], equality_tol, extremes[:2],
                               _pulled(h, img))
        mn, mx = extremes[2:]
        traces[i] = None if math.isinf(mn[0]) else {
            "min": bool(mn[0] - mn[1] <= 2 * equality_tol),
            "max": bool(mx[0] - mx[1] <= 2 * equality_tol)}
        near = [unique_sorted(np.concatenate(near))]    # distinct values
        images[i] = img[:m].copy()     # not a view that holds the map
    return SampleImages(equality_tol=equality_tol, sample=list(sample),
                        verdicts=verdicts,
                        near=near[0],
                        shell_traces=traces, domain_size=m, images=images)


def _pulled(h, img):
    """``(a, inside, pulled values, h there)`` for each block of
    ``_BLOCK`` ids from a, with ``inside`` the block's mask of the
    pullback domain of the id map ``img``."""
    for a in range(0, len(img), _BLOCK):
        m = img[a:a + _BLOCK]
        inside = m >= 0
        yield a, inside, h.values[m[inside]], h.values[a:a + _BLOCK][inside]


def choose_threshold(images, step=1e-3):
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
            return float(cand)
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
    images: SampleImages        # the sample the walls come from, not a copy
    walls: list
    empty_pullbacks: list       # g whose crossing set is empty in-window

    def side_at(self, wall, v):
        """``wall``'s side at the vertices ``v``, 0 off the domain."""
        inside = v < self.images.domain_size
        out = np.zeros(len(v), dtype=np.int8)
        out[inside] = wall.side[v[inside]]
        return out

    def wall_edge_mask(self, t):
        mask = np.zeros(t.n_edges(), dtype=bool)
        for w in self.walls:
            mask[w.edge_ids] = True
        return mask


def build_walls(h, images, threshold):
    """One wall per distinct crossing edge set over the pulled fields of
    the sample ``images``, on their common domain."""
    t = h.truncation
    eu, ev, _ = t.edges()
    # eu < ev: an edge lies on the domain when ev does.  The domain lies
    # in every pullback domain, so images are >= 0 there
    inner = np.flatnonzero(ev < images.domain_size)
    pu, pv = eu[inner], ev[inner]

    by_key = {}
    order = []
    empty = []
    for g, img in zip(images.sample, images.images):
        above = h.values[img] > threshold
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
    return WallSystem(images=images, walls=walls, empty_pullbacks=empty)


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
        unique_sorted(np.concatenate([eu[w.edge_ids], ev[w.edge_ids]]))
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
    n_pieces: int = 1            # regions may be disconnected sets

    @property
    def size(self):
        return len(self.members)


def indecomposable_regions(t, system):
    """Maximal vertex classes unseparated by any wall (side-signature
    classes; such sets need not be connected).

    The independent route deletes wall edges and floods; each of its
    components must carry one signature, otherwise some wall separates
    points no wall edge cuts apart and CrossingWalls is raised.  A
    signature class spanning several flood components is a legitimately
    disconnected region and is reported through ``n_pieces``.  Returns
    the region label per vertex (-1 off the domain) and the regions.
    """
    eu, ev, _ = t.edges()
    m = system.images.domain_size
    keep = (ev < m) & ~system.wall_edge_mask(t)

    # side signature folded in one wall at a time in base 3, renumbered
    # after every 20 walls: codes below m < 2**31 then grow by at most
    # 3**20 < 2**32 before the next renumbering, so int64 never wraps
    sig = np.zeros(m, dtype=np.int64)
    for k, w in enumerate(system.walls, 1):
        sig = 3 * sig + (w.side + 1)
        if k % 20 == 0:
            _, sig = np.unique(sig, return_inverse=True)
    # deterministic region ids ordered by smallest member
    _, first, sig = np.unique(sig, return_index=True, return_inverse=True)
    region = np.argsort(np.argsort(first))[sig]
    labels = np.full(t.n, -1, dtype=np.int32)
    labels[:m] = region
    n_regions = len(first)

    # each flood component must sit inside one signature class.  The pair
    # code flood * n_regions + region can pass 2**31, so it is int64
    flood = join_labels(np.arange(m), eu[keep], ev[keep])
    pairs = unique_sorted(flood * n_regions + region)
    if len(pairs) != len(unique_sorted(flood)):
        raise CrossingWalls(
            "a wall separates vertices inside one wall-free component"
        )

    pieces = np.bincount(pairs % n_regions, minlength=n_regions)
    sizes = np.bincount(region, minlength=n_regions)
    members = np.split(np.argsort(region, kind="stable"),
                       np.cumsum(sizes)[:-1])
    regions = [IndecomposableRegion(id=lab, members=members[lab],
                                    n_pieces=int(pieces[lab]))
               for lab in range(n_regions)]
    return labels, regions


@dataclass
class WallTree:
    system: WallSystem           # its walls are the tree's edges
    regions: list
    incidence: list              # per wall: (minus region id, plus region id)
    region_of_vertex: np.ndarray

    @property
    def n_nodes(self):
        return len(self.regions)

    @property
    def n_edges(self):
        return len(self.system.walls)


def build_wall_tree(t, system):
    """The indecomposable regions of ``system`` and their incidence with
    its walls, with the tree checks.

    Every wall must lie on the domain and touch exactly two regions (its
    sides), and the graph must be connected with one edge fewer than
    nodes; in a connected graph a cycle breaks that count.
    """
    labels, regions = indecomposable_regions(t, system)
    eu, ev, _ = t.edges()
    assert_noncrossing(t, system)
    for w in system.walls:
        if not (ev[w.edge_ids] < system.images.domain_size).all():
            raise NotATree(f"wall {w.label} has edges leaving the domain")
    incidence = []
    for w in system.walls:
        us, vs = eu[w.edge_ids], ev[w.edge_ids]
        below = system.side_at(w, us) < 0
        lo = np.where(below, us, vs)
        hi = np.where(below, vs, us)
        minus = unique_sorted(labels[lo])
        plus = unique_sorted(labels[hi])
        if len(minus) != 1 or len(plus) != 1:
            raise NotATree(
                f"wall {w.label} touches {len(minus)} minus-regions and "
                f"{len(plus)} plus-regions (need exactly 1 + 1)",
            )
        incidence.append((int(minus[0]), int(plus[0])))

    n = len(regions)
    a, b = np.array(incidence, dtype=np.intp).reshape(-1, 2).T
    roots = join_labels(np.arange(n), a, b)
    if (roots != 0).any() or len(incidence) != n - 1:
        raise NotATree(
            f"wall graph disconnected or Euler count failed "
            f"({len(incidence)} edges, {n} nodes)"
        )
    return WallTree(system=system, regions=regions, incidence=incidence,
                    region_of_vertex=labels)


def wall_tree_dot(tree):
    lines = ["graph walltree {"]
    for r in tree.regions:
        lines.append(f'  r{r.id} [shape=ellipse, label="R{r.id} ({r.size})"];')
    for i, (a, b) in enumerate(tree.incidence):
        label = "|".join(tree.system.walls[i].labels)
        lines.append(f'  r{a} -- r{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The action on the tree
# ---------------------------------------------------------------------------

@dataclass
class ActionReport:
    region_maps: dict            # g -> list (region -> region, -1 if unmapped)
    wall_images: dict            # g -> list of per-wall outcomes
    stabilizer_sizes: list       # per wall: sampled stabilizer cardinality
    inversions: list             # (g, wall) pairs with swapped sides
    h_wall_invariance: dict      # g -> equal | overlap | disjoint
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
                {"wall": "|".join(tree.system.walls[i].labels),
                 "regions": [a, b]}
                for i, (a, b) in enumerate(tree.incidence)
            ]
        return out


def action_on_tree(t, tree):
    """The sampled right action on regions and walls, read from the images
    of the sample the tree's walls come from.

    Reports per-element region maps, wall images (a wall, a partial
    overlap, or disjoint), sampled edge stabilizers, inversion and
    fixed-region probes, and whether the pullback's min/max shell traces
    are constant.  The walls lie on the domain, as ``build_wall_tree``
    checks, and every image of a domain vertex lies in the ball.
    """
    images, walls = tree.system.images, tree.system.walls
    eu, ev, el = t.edges()
    labels = tree.region_of_vertex
    n_regions = tree.n_nodes

    # the right action keeps edge letters: the edge (u, l*u) goes to
    # (ug, l*ug).  Each wall edge is found from either end by its code
    # u * L + l, in int64 past the int32 ids, so no table over the ball is
    # needed.
    L = t.n_letters
    inverse = np.array([t.presentation.engine().inverse_letter(l)
                        for l in range(L)])
    sizes = [len(w.edge_ids) for w in walls]
    edges = (np.concatenate([w.edge_ids for w in walls]) if walls
             else np.zeros(0, dtype=np.int64))
    owner = np.repeat(np.arange(len(walls)), sizes)
    bounds = np.cumsum([0] + sizes)
    wu, wv = eu[edges].astype(np.int64), ev[edges].astype(np.int64)
    wl = el[edges]
    codes = np.concatenate([wu * L + wl, wv * L + inverse[wl]])
    by_code = np.argsort(codes)
    codes = codes[by_code]
    code_edge = np.tile(edges, 2)[by_code]
    code_owner = np.tile(owner, 2)[by_code]

    # int64 region labels: the pair code below can pass 2**31
    source = labels[:images.domain_size].astype(np.int64)

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
        target = labels[img]
        hit = target >= 0
        pairs = unique_sorted(source[hit] * n_regions + target[hit])
        src, tgt = np.divmod(pairs, n_regions)
        counts = np.bincount(src, minlength=n_regions)
        single = counts[src] == 1
        rmap = np.full(n_regions, -1)
        rmap[src[single]] = tgt[single]
        region_maps[gname] = rmap = rmap.tolist()
        region_splits[gname] = int((counts > 1).sum())

        # wall images: the image of the edge (u, l*u) is (ug, l*ug)
        query = img[wu].astype(np.int64) * L + wl
        at = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
        found = codes[at] == query
        keys = np.where(found, code_edge[at], -1)
        hits = np.where(found, code_owner[at], -1)
        outcomes = []
        for i, w in enumerate(walls):
            part = slice(bounds[i], bounds[i + 1])
            mine = hits[part]
            j = int(mine[0])
            if (j >= 0 and (mine == j).all()
                    and len(unique_sorted(keys[part])) == sizes[j]):
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
            h_wall[gname] = ("equal" if outcomes[0] == "wall_0"
                             else "overlap" if (hits[:sizes[0]] == 0).any()
                             else "disjoint")

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
