"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against plain-Python data
structures (strings, dicts, deques) so failures in the package's
vectorized code paths cannot hide in shared helpers.
"""

import heapq
from collections import deque

import numpy as np

from ends_splitter.ends import ComplementComponent
from ends_splitter.errors import (
    CrossingWalls,
    EndsSplitterError,
    NonConvergence,
    NoRegularValue,
)
from ends_splitter.groups import Truncation, build_truncation, group_ball
from ends_splitter.harmonic import PartialField, boundary_values, pullback
from ends_splitter.walls import (RELATIONS, ActionReport, IndecomposableRegion,
                                  TrichotomyVerdict)


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


def mul_letter_right(eng, w, l):
    """The normal form of w * l for a word w of the engine ``eng``: the
    right-hand twin of its ``mul_letter_left``."""
    f, d = eng.letters[l]
    if w and w[-1][0] == f:
        e = eng._canon(f, w[-1][1] + d)
        if e == 0:
            return w[:-1]
        return w[:-1] + ((f, e),)
    return w + ((f, eng._canon(f, d)),)


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


def class_of_vertex(t, chi):
    """Vertex -> end class id of ``chi``, -1 off the classes."""
    table = np.full(t.n, -1, dtype=np.int64)
    for c in chi.classes:
        table[c.members] = c.id
    return table


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
        comp = [start]                  # the queue: each vertex once
        seen.add(start)
        for v in comp:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
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


def is_tree(n, edges):
    """Whether the graph on nodes 0..n-1 with the distinct ``edges`` is a
    tree: a flood from node 0 reaches every node, over n - 1 edges."""
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return len(edges) == n - 1 and len(bfs_distances(adj, [0])) == n


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

def flood_complement(t, adj, removed):
    """``ends.complement_components`` by a plain flood over ``adj``, the
    truncation's ``adjacency_dict``."""
    return [ComplementComponent(members=np.array(c, dtype=np.int64),
                                unbounded=bool(t.shell_mask[c].any()), id=i)
            for i, c in enumerate(flood_components(adj, removed))]


def flood_dual_graph(t, adj, groups, R):
    """Component sizes, shell flags and nerve edges (k index, c index) of
    ``necks.dual_graph``: the complement of the groups' (R-1)-balls by a
    flood, and a group R-ball meeting a component's members or their
    removed neighbours."""
    removed = set(t.word_ball([v for g in groups for v in g], R - 1).tolist())
    comps = flood_components(adj, sorted(removed))
    balls = [set(t.word_ball(g, R).tolist()) for g in groups]
    edges = []
    for j, members in enumerate(comps):
        closure = set(members) | {u for v in members for u in adj[v]
                                  if u in removed}
        edges += [(i, j) for i, ball in enumerate(balls) if ball & closure]
    return ([len(c) for c in comps],
            [bool(t.shell_mask[c].any()) for c in comps], edges)


def is_cluster(t, vals, component):
    """theta if every end class reaching the shell through the component
    carries chi-value theta, from ``vals``, chi's ``shell_values(t)``;
    None when the component sees both values.

    The shell trace is the refined end set of the component, so nested or
    partially overlapping end classes are handled uniformly.
    """
    if not component.unbounded:
        raise EndsSplitterError("cluster verdicts are defined for unbounded "
                                "components only")
    trace = component.members[t.shell_mask[component.members]]
    seen = np.unique(vals[trace])
    seen = seen[seen >= 0]
    if len(seen) == 1:
        return int(seen[0])
    return None


def flood_neck_components(t, adj, x, R):
    """Complement components of the (R-1)-ball at x, ordered by smallest
    member id; the oracle for ``necks.find_necks``, equal to
    ``flood_complement`` of the ball.

    The truncation is connected, so each component holds a neighbour of
    the ball.  A search from each neighbour not yet placed either empties
    its component or meets e, or a vertex already known to lie with e;
    e's component is then every vertex left.  Taking the smallest id
    first only speeds the way to e: ids are breadth-first."""
    removed = set(t.word_ball([int(x)], R - 1).tolist())
    found, with_e = [], set()
    for s in sorted({w for v in removed for w in adj[v]} - removed):
        if s in with_e or any(s in c for c in found):
            continue
        comp, heap = {s}, [s]
        while heap and heap[0] != 0 and heap[0] not in with_e:
            for w in adj[heapq.heappop(heap)]:
                if w not in removed and w not in comp:
                    comp.add(w)
                    heapq.heappush(heap, w)
        if heap:
            with_e |= comp
        else:
            found.append(comp)
    members = [np.array(sorted(c), dtype=np.int64) for c in found]
    if with_e:
        rest = np.ones(t.n, dtype=bool)
        rest[list(removed)] = False
        for m in members:
            rest[m] = False
        members.append(np.flatnonzero(rest))
    members.sort(key=lambda m: m[0])
    return [ComplementComponent(members=m, id=i,
                                unbounded=bool(t.shell_mask[m].any()))
            for i, m in enumerate(members)]


def flood_neck_label(t, vals, comps):
    """Cluster verdicts of the unbounded components and the class label
    under the precedence order, from chi's ``shell_values(t)``; the oracle
    for ``necks.classify_neck``."""
    verdicts = [is_cluster(t, vals, c) for c in comps if c.unbounded]
    if sum(v is None for v in verdicts) >= 2:
        return verdicts, "special_type_2"
    if 0 in verdicts and 1 in verdicts:
        return verdicts, "special_type_1"
    return verdicts, "regular_0" if 0 in verdicts else "regular_1"


def flood_special_sets(t, survey, chi):
    """``necks.special_sets`` by plain floods: labels by center word and
    the center ids of K, K_I and K_II, from one complement flood per neck
    and ``is_cluster``; with whether every unbounded complement component
    of the K_I ball system is a cluster (False when K_I is empty)."""
    adj = adjacency_dict(t)
    vals = chi.shell_values(t)

    def components(removed):
        return flood_complement(t, adj, removed)

    labels, ids = {}, {"K": [], "K_I": [], "K_II": []}
    for x, word in zip(survey.centers.tolist(), survey.center_words):
        removed = t.word_ball([x], survey.R - 1)
        _, labels[word] = flood_neck_label(t, vals, components(removed))
        if labels[word].startswith("special"):
            ids["K"].append(x)
            ids["K_I" if labels[word] == "special_type_1" else "K_II"].append(
                x)
    covered = bool(ids["K_I"]) and all(
        is_cluster(t, vals, c) is not None
        for c in components(t.word_ball(ids["K_I"], survey.R - 1))
        if c.unbounded)
    return labels, ids, covered


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


def mean_value_defect(t, values):
    """Max over interior vertices of |value - mean of neighbors|, through
    the adjacency matrix."""
    means = t.csr_adjacency().dot(values) / t.degrees()
    return float(np.abs(values - means)[t.interior_mask].max())


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
    rows = [(adj[ids], deg[ids], ids) for ids in color_classes(t)]
    for iters in range(1, cfg.max_iterations + 1):
        for a, d, ids in rows:
            x[ids] = a.dot(x) / d
        if iters % 4 == 0 or iters == cfg.max_iterations:
            res = mean_value_defect(t, x)
            if res <= cfg.tolerance:
                break
    return np.clip(x, 0.0, 1.0), iters, res


# -- the full-ball sweep: one cell per vertex ---------------------------------

class SweepClass:
    """One color class of the full-ball sweep layout: its vertex ids, its
    cells (a slice of the layout), its degrees, and ``cols``, a table with
    one row per letter whose column i holds the cells of the neighbours of
    ids[i] in ascending id order, after the zero cell once per missing
    neighbour."""

    def __init__(self, ids, cells, deg, cols):
        self.ids, self.cells, self.deg, self.cols = ids, cells, deg, cols

    def update(self, x, out=None):
        acc = x.take(self.cols[0])
        for col in self.cols[1:]:
            acc += x.take(col)
        return np.divide(acc, self.deg, out=out)


def sweep_rows(t):
    """The full-ball sweep layout: a ``SweepClass`` per color class.  x
    keeps the classes one after another, then the shell in id order, then
    one cell that holds 0.0 for the missing neighbours of a vertex."""
    classes = [c for c in color_classes(t) if len(c)]
    order = np.concatenate([*classes, t.shell_ids()])
    cell = np.empty(t.n + 1, dtype=np.intp)
    cell[order] = np.arange(t.n)
    cell[-1] = t.n                      # nbr's -1 reads the zero cell
    deg, rows, start = t.degrees(), [], 0
    for ids in classes:
        stop = start + len(ids)
        cols = np.ascontiguousarray(cell[np.sort(t.nbr[ids], axis=1).T])
        rows.append(SweepClass(ids, slice(start, stop),
                               deg[ids].astype(np.float64), cols))
        start = stop
    return rows


def full_ball_solve(t, chi, cfg):
    """``solve_dirichlet`` swept over every vertex of the ball: the same
    colors, column order, check schedule and final clip, one cell per
    vertex.  Returns the values, the sweep count and the residual, or
    raises ``NonConvergence`` as the solver does."""
    bvals = boundary_values(t, chi)
    rows = sweep_rows(t)
    inner = rows[-1].cells.stop
    x = np.zeros(t.n + 1, dtype=np.float64)
    x[:inner] = 0.5
    x[inner:t.n] = bvals[t.shell_mask]

    def defect(head):
        return max([float(np.abs(head - x[rows[0].cells]).max())]
                   + [float(np.abs(r.update(x) - x[r.cells]).max())
                      for r in rows[1:-1]])

    head = rows[0].update(x)
    for iters in range(1, cfg.max_iterations + 1):
        x[rows[0].cells] = head
        for r in rows[1:]:
            r.update(x, out=x[r.cells])
        head = rows[0].update(x)
        if iters % 4 == 0 or iters == cfg.max_iterations:
            res = defect(head)
            if res <= cfg.tolerance:
                break
    if res > cfg.tolerance:
        raise NonConvergence("full-ball sweep did not converge",
                             residual=res, iterations=iters)
    values = np.empty(t.n, dtype=np.float64)
    values[t.shell_mask] = x[inner:t.n]
    for r in rows:
        values[r.ids] = x[r.cells]
    return np.clip(values, 0.0, 1.0), iters, res


def quotient_instabilities(t, cls, base_radius):
    """The classes of the vertex partition ``cls`` whose members differ in
    color, degree, shell flag, end class at ``base_radius`` (by flood, -1
    inside the ball it removes) or in the classes of their neighbours in
    ascending id order, checked one vertex at a time against the first
    member seen; an empty list for a partition the sweep keeps."""
    adj = adjacency_dict(t)
    color = np.full(t.n, -1, dtype=np.int64)
    for c, ids in enumerate(color_classes(t)):
        color[ids] = c
    end = np.full(t.n, -1, dtype=np.int64)
    inside = [v for v in range(t.n) if t.dist[v] < base_radius]
    for i, comp in enumerate(flood_components(adj, inside)):
        end[comp] = i
    seen, unstable = {}, set()
    for v in range(t.n):
        nb = adj[v]
        row = (int(color[v]), len(nb), bool(t.shell_mask[v]), int(end[v]),
               tuple(int(cls[w]) for w in nb))
        if seen.setdefault(int(cls[v]), row) != row:
            unstable.add(int(cls[v]))
    return sorted(unstable)


def coarsest_stable_partition(t, base_radius):
    """The coarsest refinement of the seed partition (depth, color, shell
    flag and end class at ``base_radius`` by flood, -1 inside the ball it
    removes) in which the members of each class have the same classes of
    neighbours in ascending id order: Jacobi rounds key every vertex on
    its class and its neighbours' classes of the round before, until a
    round splits nothing.  Returns each vertex's class, a list of ints."""
    adj = adjacency_dict(t)
    color = {}
    for c, ids in enumerate(color_classes(t)):
        color.update(dict.fromkeys(ids.tolist(), c))
    end = dict.fromkeys(range(t.n), -1)
    inside = [v for v in range(t.n) if t.dist[v] < base_radius]
    for i, comp in enumerate(flood_components(adj, inside)):
        end.update(dict.fromkeys(comp, i))

    def dense(keys):
        labels = {}
        return [labels.setdefault(k, len(labels)) for k in keys]

    cls = dense((int(t.dist[v]), color.get(v, -1), bool(t.shell_mask[v]),
                 end[v]) for v in range(t.n))
    while True:
        split = dense((cls[v], tuple(cls[w] for w in adj[v]))
                      for v in range(t.n))
        if max(split) == max(cls):
            return cls
        cls = split


def dirichlet_energy(t, values):
    total = 0.0
    for v in range(t.n):
        for w in t.nbr[v]:
            w = int(w)
            if w > v:
                d = values[v] - values[w]
                total += d * d
    return total


def edge_energy(f, edge_filter=None):
    """``harmonic.energy``'s total as the edge table gives it: the squared
    differences over ``t.edges()``, kept by ``edge_filter`` and a
    ``PartialField``'s domain at both ends, summed whole by ``np.sum``."""
    eu, ev, _ = f.truncation.edges()
    keep = np.ones(len(eu), dtype=bool) if edge_filter is None \
        else edge_filter.copy()
    if isinstance(f, PartialField):
        keep &= f.domain[eu] & f.domain[ev]
    diffs = (f.values[eu] - f.values[ev])[keep]
    return float((diffs * diffs).sum())


def edge_energy_form(u, v):
    """``harmonic.energy_form`` as the edge table gives it: the products of
    edge differences over the edges of the common domain, summed whole."""
    dom = np.ones(u.truncation.n, dtype=bool)
    for f in (u, v):
        if isinstance(f, PartialField):
            dom &= f.domain
    eu, ev, _ = u.truncation.edges()
    keep = dom[eu] & dom[ev]
    du = u.values[eu] - u.values[ev]
    dv = v.values[eu] - v.values[ev]
    return float((du * dv)[keep].sum())


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

def trichotomy(h, g, equality_tol=1e-9):
    """The trichotomy verdict of g from its whole pullback: each relation
    fails by the extremes of one whole-domain difference, and a violation's
    witness is the domain's first vertex, by ``np.argmax``, where the
    relation that fails least is worst."""
    f = pullback(h, g)
    ids = np.flatnonzero(f.domain)
    vals, base = f.values[ids], h.values[ids]
    refs = {"h": base, "one_minus_h": 1.0 - base}
    failures = {}
    for rel, ref in refs.items():
        diff = vals - ref
        hi, lo = float(diff.max()), float(diff.min())
        failures[f"eq_{rel}"] = max(hi, -lo)
        failures[f"lt_{rel}"] = max(hi, 0.0) if lo < -equality_tol else np.inf
        failures[f"gt_{rel}"] = max(-lo, 0.0) if hi > equality_tol else np.inf
    for rel in RELATIONS:
        if failures[rel] <= equality_tol:
            return TrichotomyVerdict(g=str(g), relation=rel,
                                     max_slack=failures[rel])
    best = min(RELATIONS, key=failures.get)
    diff = vals - refs["one_minus_h" if "minus" in best else "h"]
    worst = {"eq": np.abs(diff), "lt": diff, "gt": -diff}[best[:2]]
    return TrichotomyVerdict(g=str(g), relation="violation",
                             max_slack=float(failures[best]),
                             witness=int(ids[np.argmax(worst)]))


def shell_trace(h, g, equality_tol=1e-9):
    """Whether min(h, pullback) and max(h, pullback) are constant within
    2 * equality_tol on the shell vertices in g's pullback domain; None
    when there are none."""
    f = pullback(h, g)
    shell = h.truncation.shell_ids()
    sh = shell[f.domain[shell]]
    if not len(sh):
        return None
    mn = np.minimum(h.values[sh], f.values[sh])
    mx = np.maximum(h.values[sh], f.values[sh])
    return {"min": bool(np.ptp(mn) <= 2 * equality_tol),
            "max": bool(np.ptp(mx) <= 2 * equality_tol)}


def choose_threshold(h, sample, equality_tol=1e-9, step=1e-3):
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
            return float(cand)
        k += 1


def build_walls(h, threshold, sample):
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
        above = f.values > threshold
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
    disconnected region and is reported through ``n_pieces``.  Returns
    the region label per vertex (-1 off the domain) and the regions.
    """
    eu, ev, _ = t.edges()
    dom = system.images.domain
    wall_mask = system.wall_edge_mask(t)
    keep = dom[eu] & dom[ev] & ~wall_mask

    flood = np.empty(t.n, dtype=np.int64)
    for members in kept_edge_components(t, keep):
        flood[members] = members[0]

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
            id=lab, members=members,
            n_pieces=pieces.get(lab, 1)))
    return labels, regions


def action_on_tree(t, h, tree, sample):
    """The sampled right action on regions and walls.

    Reports per-element region maps, wall images (equal / disjoint /
    out-of-window), sampled edge stabilizers, inversion and fixed-region
    probes, and whether the pullback's min/max shell traces are constant.
    """
    system = tree.system
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
        trace = shell_trace(h, g, system.images.equality_tol)
        if trace is not None:
            trace_const[gname] = trace

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
