"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against plain-Python data
structures (strings, dicts, deques) so failures in the package's
vectorized code paths cannot hide in shared helpers.
"""

from collections import deque

import numpy as np

from ends_splitter.ends import complement_components, is_cluster
from ends_splitter.errors import (
    CrossingWalls,
    EndsSplitterError,
    NoRegularValue,
)
from ends_splitter.groups import Truncation, build_truncation, group_ball
from ends_splitter.harmonic import (
    _color_classes,
    boundary_values,
    mean_value_defect,
    pullback,
)
from ends_splitter.walls import (
    ActionReport,
    IndecomposableRegion,
    RegionDecomposition,
    WallConfig,
)


# -- free group words as strings (inverse = uppercase) -----------------------

def free_reduce(word):
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase() and out[-1] != ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def free_ball_words(rank, radius):
    letters = []
    for i in range(rank):
        g = "abcdfghijklmnopqr"[i]
        letters.extend([g, g.upper()])
    seen = {""}
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for l in letters:
                u = free_reduce(l + w)   # prepend: matches the package
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


# -- Z/2 * Z/3 via an explicit multiplication table ---------------------------

def z2z3_elements(radius):
    """Alternating words in s (order 2) and t (order 3), by geodesic
    length, as canonical strings."""

    def norm(syllables):
        out = []
        for g, e in syllables:
            e = e % (2 if g == "s" else 3)
            if e == 0:
                continue
            if out and out[-1][0] == g:
                e2 = (out[-1][1] + e) % (2 if g == "s" else 3)
                out.pop()
                if e2:
                    out.append((g, e2))
            else:
                out.append((g, e))
        return tuple(out)

    def length(syllables):
        total = 0
        for g, e in syllables:
            total += 1 if g == "s" else min(e, 3 - e)
        return total

    seen = {(): 0}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g, e in (("s", 1), ("t", 1), ("t", 2)):
                u = norm(((g, e),) + w)
                lu = length(u)
                if lu <= radius and u not in seen:
                    seen[u] = lu
                    nxt.append(u)
        frontier = nxt
    return seen


# -- the breadth-first layout, one engine call per (vertex, letter) -----------

def build_generic(p, radius):
    """Sphere-by-sphere normal-form enumeration: breadth-first, fixed
    letter order, first seen wins.  Returns the truncation and the
    normal-form word of each vertex; the layout oracle for
    ``groups.build_truncation``."""
    eng = p.engine()
    L = eng.n_letters

    words = [eng.identity]
    index = {eng.identity: 0}
    dist_list = [0]
    parent_list = [-1]
    pletter_list = [0]

    sphere = [eng.identity]
    for k in range(1, radius + 1):
        nxt = []
        for w in sphere:
            for l in range(L):
                u = eng.mul_letter_left(l, w)
                if eng.length(u) != k or u in index:
                    continue
                index[u] = len(words)
                words.append(u)
                dist_list.append(k)
                parent_list.append(index[w])
                pletter_list.append(l)
                nxt.append(u)
        sphere = nxt

    n = len(words)
    nbr = np.full((n, L), -1, dtype=np.int64)
    for v, w in enumerate(words):
        for l in range(L):
            u = eng.mul_letter_left(l, w)
            nbr[v, l] = index.get(u, -1)

    dist = np.asarray(dist_list, dtype=np.int32)
    t = Truncation(
        presentation=p, radius=radius, nbr=nbr, dist=dist,
        parent=np.asarray(parent_list, dtype=np.int64),
        parent_letter=np.asarray(pletter_list, dtype=np.int8),
        shell_mask=dist == radius,
    )
    return t, words


# -- left translates, nets and sweep classes, one vertex at a time ----------

def enumerate_elements(p, r):
    """All group elements of word length <= r, breadth-first with the fixed
    letter order (identity first): a ball's vertices in id order."""
    return group_ball(build_truncation(p, max(r, 1)), r)


def path_translates(t, ids, r):
    """``w * v`` for each id v and each element w != e of length <= r, in
    id order, chasing w's geodesic letters innermost first; -1 where the
    chase leaves the ball.  The oracle for ``Truncation.left_translates``."""
    paths = [e.letters() for e in enumerate_elements(t.presentation, r)
             if e.word] if r > 0 else []
    out = np.empty((len(ids), len(paths)), dtype=np.int64)
    for j, path in enumerate(paths):
        cur = np.array(ids, dtype=np.int64)
        for l in reversed(path):
            ok = cur >= 0
            cur[ok] = t.nbr[cur[ok], l]
        out[:, j] = cur
    return out


def first_fit(table, alive):
    """Members in id order: v joins unless a member u < v has v in
    ``table[u]``.  The oracle for ``groups._first_fit``."""
    blocked = np.zeros(len(table), dtype=bool)
    members = []
    for v in range(len(table)):
        if not alive[v] or blocked[v]:
            continue
        members.append(v)
        row = table[v]
        blocked[row[row > v]] = True
    return members


def greedy_net(t, delta):
    """Greedy delta-separated set in id order, blocking each member's
    (delta - 1)-ball of left translates; the net oracle."""
    block_matrix = path_translates(t, np.arange(t.n), delta - 1)
    blocked = np.zeros(t.n, dtype=bool)
    members = []
    for v in range(t.n):
        if blocked[v]:
            continue
        members.append(v)
        row = block_matrix[v]
        blocked[row[row >= 0]] = True
    return np.asarray(members, dtype=np.int64)


def color_classes(t):
    """Interior sweep classes: the distance-parity split when the graph is
    bipartite, else greedy coloring of the interior in id order."""
    inter = t.interior_ids()
    parity = t.dist % 2
    eu, ev, _ = t.edges()
    if (parity[eu] != parity[ev]).all():
        return [inter[parity[inter] == 0], inter[parity[inter] == 1]]
    color = np.full(t.n, -1, dtype=np.int64)
    for v in inter:
        nb = t.nbr[v]
        nb = nb[nb >= 0]
        used = set(color[nb].tolist())
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return [inter[color[inter] == c] for c in range(int(color.max()) + 1)]


# -- graph algorithms on adjacency dicts --------------------------------------

def adjacency_dict(t):
    adj = {}
    for v in range(t.n):
        nb = t.nbr[v]
        adj[v] = sorted(int(x) for x in nb if x >= 0)
    return adj


def flood_components(adj, removed):
    removed = set(int(v) for v in removed)
    seen = set(removed)
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        dq = deque([start])
        seen.add(start)
        while dq:
            v = dq.popleft()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    dq.append(w)
        comps.append(sorted(comp))
    return comps


def kept_edge_components(t, edge_keep):
    """Components of the graph on the edges of ``t.edges()`` selected by
    ``edge_keep``, flooded over an adjacency dict: sorted member lists in
    smallest-member order."""
    eu, ev, _ = t.edges()
    adj = {v: [] for v in range(t.n)}
    for u, v in zip(eu[edge_keep].tolist(), ev[edge_keep].tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return flood_components(adj, [])


def bfs_distances(adj, sources, allowed=None):
    dist = {}
    dq = deque()
    for s in sources:
        if allowed is None or s in allowed:
            dist[s] = 0
            dq.append(s)
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w in dist:
                continue
            if allowed is not None and w not in allowed:
                continue
            dist[w] = dist[v] + 1
            dq.append(w)
    return dist


def refine_end_classes(t, coarse, fine):
    """Map each end class at the finer radius to the class containing it at
    the coarser radius."""
    mapping = {}
    table = np.full(t.n, -1, dtype=np.int64)
    for c in coarse:
        table[c.members] = c.id
    for f in fine:
        owners = np.unique(table[f.members])
        owners = owners[owners >= 0]
        if len(owners) != 1:
            raise EndsSplitterError("end classes failed to refine")
        mapping[f.id] = int(owners[0])
    return mapping


# -- the neck survey, one complement flood per center --------------------------

def flood_neck_components(t, x, R):
    """Complement components of the (R-1)-ball at x, ordered by smallest
    member id; the oracle for ``necks.find_necks``."""
    return complement_components(t, t.word_ball([int(x)], R - 1))


def flood_neck_label(t, chi, comps):
    """Cluster verdicts of the unbounded components and the class label
    under the precedence order; the oracle for ``necks.classify_neck``."""
    verdicts = [is_cluster(t, chi, c) for c in comps if c.unbounded]
    if sum(v is None for v in verdicts) >= 2:
        return verdicts, "special_type_2"
    if 0 in verdicts and 1 in verdicts:
        return verdicts, "special_type_1"
    return verdicts, "regular_0" if 0 in verdicts else "regular_1"


# -- dense Dirichlet solve -----------------------------------------------------

def dense_dirichlet(t, boundary_values):
    """Direct dense solve of the mean-value system; boundary_values is a
    full-length array with shell entries fixed."""
    inter = np.flatnonzero(t.interior_mask)
    pos = {int(v): i for i, v in enumerate(inter)}
    n = len(inter)
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    for i, v in enumerate(inter):
        nb = t.nbr[v]
        nb = nb[nb >= 0]
        a[i, i] = len(nb)
        for w in nb:
            w = int(w)
            if w in pos:
                a[i, pos[w]] -= 1.0
            else:
                rhs[i] += boundary_values[w]
    sol = np.linalg.solve(a, rhs)
    full = np.array(boundary_values, dtype=float)
    full[inter] = sol
    return full


def dirichlet_lambda1_radial_free(rank, radius):
    """Ground Dirichlet eigenvalue of the free-group ball via the radial
    reduction (the ground state is radial on a regular tree ball)."""
    d = 2 * rank
    m = radius   # interior radial indices 0..radius-1
    mat = np.zeros((m, m))
    for i in range(m):
        mat[i, i] = d
        if i > 0:
            mat[i, i - 1] = -1.0
        if i + 1 < m:
            # the identity has d children, deeper vertices d - 1
            mat[i, i + 1] = -float(d) if i == 0 else -(d - 1.0)
    # sphere-count weights make the radial operator self-adjoint
    w = np.ones(m)
    for i in range(1, m):
        w[i] = d * (d - 1) ** (i - 1)
    s = np.sqrt(w)
    sym = (mat / s[None, :]) * s[:, None]
    if not np.allclose(sym, sym.T):
        raise AssertionError("radial reduction lost self-adjointness")
    vals = np.linalg.eigvalsh(sym)
    return float(vals[0])


def gauss_seidel_loop(t, chi, cfg):
    """The Gauss-Seidel loop with a full ``mean_value_defect`` at every
    check (every fourth sweep and after the last one).  Returns the
    clipped values, the sweep count and the last defect, without raising
    on nonconvergence."""
    bvals = boundary_values(t, chi)
    x = np.full(t.n, 0.5, dtype=np.float64)
    x[t.shell_mask] = bvals[t.shell_mask].astype(np.float64)
    adj = t.csr_adjacency()
    deg = t.degrees().astype(np.float64)
    rows = [(adj[ids], deg[ids], ids) for ids in _color_classes(t)]
    for iters in range(1, cfg.max_iterations + 1):
        for a, d, ids in rows:
            x[ids] = a.dot(x) / d
        if iters % 4 == 0 or iters == cfg.max_iterations:
            res = mean_value_defect(t, x)
            if res <= cfg.tolerance:
                break
    return np.clip(x, 0.0, 1.0), iters, res


def dirichlet_energy(t, values):
    total = 0.0
    for v in range(t.n):
        for w in t.nbr[v]:
            w = int(w)
            if w > v:
                d = values[v] - values[w]
                total += d * d
    return total


# -- per-vertex loops the package has vectorised ------------------------------

def field_csv_per_vertex(h, path):
    """``field.csv`` written one ``Truncation.word`` call per vertex."""
    t = h.truncation
    with open(path, "w") as fh:
        fh.write("word,value\n")
        for v in range(t.n):
            fh.write(f"{t.word(v)},{h.values[v]:.17g}\n")


def decay_profile(t, values, anchor_ids, members, theta):
    """Max |value - theta| per distance inside ``members`` from the members
    adjacent to ``anchor_ids``, one member at a time."""
    adj = adjacency_dict(t)
    anchors = set(int(v) for v in anchor_ids)
    allowed = set(int(v) for v in members)
    touch = [v for v in sorted(allowed) if any(w in anchors for w in adj[v])]
    dist = bfs_distances(adj, touch, allowed)
    by_distance = {}
    for v in sorted(allowed):
        if v not in dist:
            continue
        d = dist[v]
        dev = abs(values[v] - theta)
        cur = by_distance.get(d, 0.0)
        if dev > cur:
            by_distance[d] = float(dev)
        elif d not in by_distance:
            by_distance[d] = cur
    return by_distance


# -- one-sided branch decay recursion -----------------------------------------

def branch_profile(branching, depth, root_value):
    """Values of a harmonic function on a regular branch with zero shell
    data, pinned to root_value at depth 0: v(d) = c * (b^-d - b^-depth)."""
    b = float(branching)
    scale = root_value / (1.0 - b ** (-depth))
    return [scale * (b ** (-d) - b ** (-depth)) for d in range(depth + 1)]


# -- tiny DOT parser ------------------------------------------------------------

def parse_dot(text):
    """Counts nodes and edges of the subset of DOT these exports use."""
    nodes = set()
    edges = []
    body = text.strip()
    assert body.startswith("graph") and body.endswith("}")
    for line in body.splitlines()[1:-1]:
        line = line.strip().rstrip(";")
        if not line:
            continue
        if "--" in line:
            left, right = line.split("--")
            right = right.split("[")[0]
            edges.append((left.strip(), right.strip()))
        else:
            name = line.split("[")[0].strip()
            if name:
                nodes.add(name)
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
    return nodes, edges


# -- the right action, all maps held ------------------------------------------

def right_action_maps(t, elements):
    """The maps of ``Truncation.right_action_stream``, all held at once, in
    element order."""
    maps = [None] * len(elements)
    for i, img in t.right_action_stream(elements):
        maps[i] = img
    return maps


# -- the wall layer, one Python container at a time -----------------------------
#
# The package's wall code works on whole arrays: id maps shared across the
# sample, a (vertex, letter) -> edge table, integer region signatures and a
# filtered threshold search.  These compute the same results one pullback
# and one dict entry at a time, as the reference the array code must match.

def choose_threshold(h, sample, equality_tol=1e-9, step=1e-3,
                     sample_radius=None):
    """Smallest t = 1/2 + k*step that keeps distance >= equality_tol from
    every sampled pullback value; NoRegularValue if none below 0.6 works."""
    values = []
    for g in sample:
        f = pullback(h, g)
        values.append(f.values[f.domain])
    allv = np.unique(np.concatenate(values))
    k = 1
    while True:
        cand = 0.5 + k * step
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
                else max((g.length() for g in sample), default=0),
                equality_tol=equality_tol, step=step,
            )
        k += 1


def build_walls(h, cfg, sample):
    """The walls from whole-ball pullbacks, one element at a time: a list
    of (labels, edge ids, side per domain vertex) for each distinct
    crossing edge set, the common domain (the basepoint's component of
    the joint pullback domain, by plain BFS) and the elements whose
    crossing set is empty."""
    t = h.truncation
    pulled = [pullback(h, g) for g in sample]
    joint = np.ones(t.n, dtype=bool)
    for f in pulled:
        joint &= f.domain
    reach = bfs_distances(adjacency_dict(t), [0],
                          set(np.flatnonzero(joint).tolist()))
    domain = np.zeros(t.n, dtype=bool)
    domain[list(reach)] = True
    eu, ev, _ = t.edges()
    walls, index, empty = [], {}, []
    for g, f in zip(sample, pulled):
        above = f.values > cfg.threshold
        cut = tuple(e for e in range(len(eu))
                    if domain[eu[e]] and domain[ev[e]]
                    and above[eu[e]] != above[ev[e]])
        if not cut:
            empty.append(str(g))
        elif cut in index:
            walls[index[cut]][0].append(str(g))
        else:
            index[cut] = len(walls)
            walls.append(([str(g)], list(cut),
                          [1 if above[v] else -1
                           for v in np.flatnonzero(domain)]))
    return walls, domain, empty


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

    flood = t.component_labels(keep)

    ids = np.flatnonzero(dom)
    if system.walls:
        # sides are kept per domain vertex, in id order
        side_matrix = np.stack([w.side for w in system.walls], axis=1)
    else:
        side_matrix = np.zeros((len(ids), 1), dtype=np.int8)
    _, inverse = np.unique(side_matrix, axis=0, return_inverse=True)

    # deterministic region ids ordered by smallest member
    order = {}
    for pos, v in enumerate(ids):
        key = int(inverse[pos])
        if key not in order:
            order[key] = len(order)
    labels = np.full(t.n, -1, dtype=np.int64)
    labels[ids] = [order[int(k)] for k in inverse]

    # each flood component must sit inside one signature class
    pairs = {(int(flood[v]), int(labels[v])) for v in ids}
    flood_ids = {f for f, _ in pairs}
    if len(pairs) != len(flood_ids):
        raise CrossingWalls(
            "a wall separates vertices inside one wall-free component"
        )

    pieces = {}
    for f, s in pairs:
        pieces[s] = pieces.get(s, 0) + 1
    regions = []
    for lab in range(len(order)):
        members = np.flatnonzero(labels == lab)
        regions.append(IndecomposableRegion(
            id=lab, members=members, adjacent_walls=[],
            n_pieces=pieces.get(lab, 1)))
    return RegionDecomposition(labels=labels, regions=regions)


def action_on_tree(t, h, system, tree, sample):
    """The sampled right action on regions and walls.

    Reports per-element region maps, wall images (equal / disjoint /
    out-of-window), sampled edge stabilizers, inversion and fixed-region
    probes, and whether the pullback's min/max shell traces are constant.
    """
    eu, ev, _ = t.edges()
    labels = tree.region_of_vertex
    edge_index = {}
    for i, w in enumerate(system.walls):
        for e in w.edge_ids:
            edge_index[(int(eu[e]), int(ev[e]))] = i

    pair_index = {}
    for e in range(len(eu)):
        pair_index[(int(eu[e]), int(ev[e]))] = e

    region_maps = {}
    wall_images = {}
    inversions = []
    h_wall = {}
    stab_counts = [0] * len(system.walls)
    anomalies = []
    trace_const = {}
    region_splits = {}

    full_ids = np.arange(t.n, dtype=np.int64)
    for g in sample:
        gname = str(g)
        img = t.rmul_ids(full_ids, g)

        # region map by unanimous vote of in-window images; an image that
        # straddles walls outside the sampled family is recorded as a split
        rmap = [-1] * tree.n_nodes
        splits = 0
        for r in tree.regions:
            tgt = img[r.members]
            tgt = tgt[tgt >= 0]
            lab = np.unique(labels[tgt])
            lab = lab[lab >= 0]
            if len(lab) == 1:
                rmap[r.id] = int(lab[0])
            elif len(lab) > 1:
                splits += 1
        region_maps[gname] = rmap
        region_splits[gname] = splits

        # wall images
        outcomes = []
        for i, w in enumerate(system.walls):
            us, vs = eu[w.edge_ids], ev[w.edge_ids]
            iu, iv = img[us], img[vs]
            ok = (iu >= 0) & (iv >= 0)
            if not ok.all():
                outcomes.append("out_of_window")
                continue
            keys = set()
            missing = False
            for a, b in zip(iu.tolist(), iv.tolist()):
                key = (a, b) if (a, b) in pair_index else (b, a)
                if key not in pair_index:
                    missing = True
                    break
                keys.add(pair_index[key])
            if missing:
                anomalies.append(
                    f"image of wall {w.label} under {gname} leaves the edge set"
                )
                outcomes.append("out_of_window")
                continue
            target = None
            for j, w2 in enumerate(system.walls):
                if keys == set(w2.edge_ids.tolist()):
                    target = j
                    break
            if target is not None:
                outcomes.append(f"wall_{target}")
                if target == i:
                    stab_counts[i] += 1
                    # inversion probe: does g swap the two sides?
                    a, b = tree.incidence[i]
                    if rmap[a] == b and rmap[b] == a and a != b:
                        inversions.append((gname, i))
            else:
                overlap = any(keys & set(w2.edge_ids.tolist())
                              for w2 in system.walls)
                outcomes.append("disjoint" if not overlap else "partial_overlap")
                if overlap:
                    anomalies.append(
                        f"image of wall {w.label} under {gname} partially "
                        "overlaps another wall"
                    )
        wall_images[gname] = outcomes

        # precise invariance of the base wall
        base = set(system.walls[0].edge_ids.tolist()) if system.walls else set()
        if system.walls:
            us, vs = eu[system.walls[0].edge_ids], ev[system.walls[0].edge_ids]
            iu, iv = img[us], img[vs]
            if ((iu < 0) | (iv < 0)).any():
                h_wall[gname] = "out_of_window"
            else:
                keys = set()
                valid = True
                for a, b in zip(iu.tolist(), iv.tolist()):
                    key = (a, b) if (a, b) in pair_index else (b, a)
                    if key not in pair_index:
                        valid = False
                        break
                    keys.add(pair_index[key])
                if not valid:
                    h_wall[gname] = "out_of_window"
                elif keys == base:
                    h_wall[gname] = "equal"
                elif keys & base:
                    h_wall[gname] = "overlap"
                else:
                    h_wall[gname] = "disjoint"

        # shell traces of min/max against h: constancy probe
        f = pullback(h, g)
        shell = t.shell_ids()
        sh = shell[f.domain[shell]]
        if len(sh):
            mn = np.minimum(h.values[sh], f.values[sh])
            mx = np.maximum(h.values[sh], f.values[sh])
            trace_const[gname] = {
                "min": bool(np.ptp(mn) <= 2 * system.config.equality_tol),
                "max": bool(np.ptp(mx) <= 2 * system.config.equality_tol),
            }

    fixed = []
    for r in tree.regions:
        if all(region_maps[str(g)][r.id] == r.id for g in sample):
            fixed.append(r.id)

    return ActionReport(
        region_maps=region_maps, wall_images=wall_images,
        stabilizer_sizes=stab_counts, inversions=inversions,
        h_wall_invariance=h_wall, fixed_regions=fixed,
        boundary_trace_constant=trace_const, region_splits=region_splits,
        anomalies=anomalies,
    )
