"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against plain-Python data
structures (strings, dicts, deques) so failures in the package's
vectorized code paths cannot hide in shared helpers.
"""

from collections import deque

import numpy as np


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
