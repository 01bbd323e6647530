"""Discrete Dirichlet problems for end functions, energies, pullbacks, and
spectral estimates.

Boundary data lives on shell vertices through their end class; every other
vertex is an interior unknown with the mean-value equation.  The energy of
a field is the sum of squared differences over edges, summed in the fixed
edge order so reports are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EndsSplitterError,
    InvalidBoundary,
    MismatchedTruncations,
    NonConvergence,
    ScenarioError,
)
from .ends import end_classes
from .groups import _first_fit, unique_sorted

# ids whose neighbour rows the partition sorts, or the energy streams, at
# once, which keeps them in cache and their temporaries small
_BLOCK = 1 << 14


@dataclass
class SolverConfig:
    tolerance: float = 1e-9          # max mean-value defect on the interior
    max_iterations: int = 10 ** 6

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ScenarioError("solver tolerance must be finite and > 0")
        if self.max_iterations < 1:
            raise ScenarioError("max_iterations must be >= 1")


@dataclass
class HarmonicField:
    truncation: object
    values: np.ndarray
    boundary_spec: object            # EndFunction or None for synthetic fields
    residual: float
    iterations: int

    def interior_range(self):
        vals = self.values[self.truncation.interior_mask]
        return float(vals.min()), float(vals.max())

    def to_csv(self, path):
        """One ``word,value`` row per vertex, in vertex-id order, streamed
        a block at a time, formatting each distinct bit pattern once.  A
        block's rows are its words joined to their cells, as fixed-width
        bytes with the NUL padding dropped: exact, since neither a word nor
        a ``{:.17g}`` cell holds a NUL byte."""
        cell = ",{:.17g}\n".format
        with open(path, "wb") as fh:
            fh.write(b"word,value\n")
            for ids, words in self.truncation.word_blocks():
                bits, inv = np.unique(self.values[ids].view(np.uint64),
                                      return_inverse=True)
                vals = bits.view(np.float64).tolist()
                cells = np.array(list(map(cell, vals)), dtype="S")
                fh.write(np.strings.add(words, cells[inv]).tobytes()
                         .replace(b"\0", b""))


@dataclass
class PartialField:
    """A field defined on part of a truncation (pullbacks, lattice ops,
    certificate regions); its energy keeps the edges with both ends in
    ``domain``."""

    truncation: object
    values: np.ndarray
    domain: np.ndarray               # boolean mask


def _common_domain(u, v):
    """The mask where both fields are defined; MismatchedTruncations
    unless they live on one truncation."""
    if u.truncation is not v.truncation:
        raise MismatchedTruncations("fields live on different truncations")
    dom = np.ones(u.truncation.n, dtype=bool)
    for f in (u, v):
        if isinstance(f, PartialField):
            dom &= f.domain
    return dom


# ---------------------------------------------------------------------------
# Dirichlet solve
# ---------------------------------------------------------------------------

def boundary_values(t, chi):
    """Shell values transported through end classes; InvalidBoundary if a
    shell vertex is in no end class."""
    vals = chi.shell_values(t)
    shell = t.shell_ids()
    missing = shell[vals[shell] < 0]
    if len(missing):
        raise InvalidBoundary(
            f"{len(missing)} shell vertices belong to no end class at base "
            f"radius {chi.base_radius} (first: {t.word(int(missing[0]))!r})"
        )
    return vals


def _sweep_defect(x, head, rows):
    """The max interior mean-value defect of x right after a sweep over
    the colors ``rows``, given ``head``, color 0's next update.

    Each color's defect is |update - x| over its cells.  The last color was
    just updated from the same x in the same column order, so its defect is
    exactly 0; the middle colors (none on a bipartite ball) are evaluated.
    """
    return max([float(np.abs(head - x[rows[0].cells]).max())]
               + [float(np.abs(r.update(x) - x[r.cells]).max())
                  for r in rows[1:-1]])


def _colors(t):
    """Each vertex's sweep color as int8, -1 on the shell: the first-fit
    coloring in id order, whose color c is the first-fit independent set
    of what colors < c leave.  On a bipartite ball that is the red-black
    split by parity.  A color depends on smaller ids only, so the shell is
    colored up to the last interior vertex: a ball whose id 0 is a shell
    vertex keeps that order.
    """
    color = np.full(t.n, -1, dtype=np.int8)
    alive = np.zeros(t.n, dtype=bool)
    alive[:np.flatnonzero(~t.shell_mask)[-1] + 1] = True
    c = 0
    while alive.any():
        member = _first_fit(t, lambda v: np.take(t.nbr, v, axis=0), alive)
        alive &= ~member
        color[member] = c
        c += 1
    color[t.shell_mask] = -1
    return color


def _sorted_rows(t, ids):
    """The neighbours of ``ids`` (a slice or an id array) in the sweep's
    column order, ascending with the missing ones (-1) first: one int32
    array per column, sorted by an odd-even transposition across them."""
    rows = list(t.nbr[ids].T.copy())
    for k in range(len(rows)):
        for i in range(k % 2, len(rows) - 1, 2):
            low = np.minimum(rows[i], rows[i + 1])
            np.maximum(rows[i], rows[i + 1], out=rows[i + 1])
            rows[i] = low
    return rows


def _dense(key):
    """int32 labels 0, 1, ... of the distinct values of ``key`` in
    ascending order, and how many there are."""
    distinct = unique_sorted(key)
    labels = np.empty(len(key), dtype=np.int32)
    for a in range(0, len(key), _BLOCK):    # no intp copy of the whole
        labels[a:a + _BLOCK] = np.searchsorted(distinct, key[a:a + _BLOCK])
    return labels, len(distinct)


def _keys(first, bound, cols, width):
    """int64 keys of the tuples (first[i], cols[0][i], cols[1][i], ...),
    equal exactly where the tuples are, for ``first`` below ``bound`` and
    ``cols`` below ``width``.  The tuples are packed, and relabelled
    whenever one more column could pass 2**62.  An int64 ``first`` becomes
    the key itself."""
    key = first.astype(np.int64, copy=False)
    for col in cols:
        if not col.any():                   # a column of zeros splits none
            continue
        if bound > (1 << 62) // width:
            key, bound = _dense(key)
            key = key.astype(np.int64)
        key *= width
        key += col
        bound *= width
    return key


def _partition(t, table):
    """A vertex partition that the sweep keeps constant on each class: the
    class of each vertex as int32 (one more entry is left for missing
    neighbours), the class count and the vertex colors.

    Every member of a class has the same depth, color, shell flag, end
    class in ``table`` and ordered neighbour classes, so a sweep does the
    same floating-point operations on each, for every end function at
    that base radius.  Each sphere is seeded with its vertices' end
    classes and colors (-1 marks the shell), and ``_refine`` splits them,
    from the shell in, then from e out and so on, until a pass splits
    nothing.  A pass never separates two vertices that such a partition
    keeps together, so it ends at the coarsest one.
    """
    color = _colors(t)
    spheres, hues = t.spheres(), int(color.max()) + 2   # color + 1 < hues
    cls, counts = np.empty(t.n + 1, dtype=np.int32), []
    for sl in spheres:
        cls[sl], k = _dense(table[sl].astype(np.int64) * hues + color[sl])
        counts.append(k)
    order = range(len(spheres))[::-1]
    while _refine(t, cls, counts, order):
        order = order[::-1]
    offset = 0
    for sl, k in zip(spheres, counts):
        cls[sl] += offset
        offset += k
    return cls, offset, color


def _refine(t, cls, counts, order):
    """One pass over the spheres in ``order``, whose classes ``cls``
    numbers within each sphere and ``counts`` counts: key each vertex of
    sphere d on its class and, in column order, its neighbours' classes as
    they stand, which read 0 when missing and 1 + 3 * class + (their
    sphere - d + 1) otherwise, and write the keys' dense labels back at
    once.  Returns whether any class split."""
    spheres, split = t.spheres(), False
    for d in order:
        sl, lo = spheres[d], spheres[d - 1].start if d else 0
        hi = spheres[d + 1].stop if d + 1 < len(spheres) else t.n
        # entry 0 for the missing neighbours, then the codes of ids lo to hi
        table = np.zeros(hi - lo + 1, dtype=np.int32)
        np.multiply(cls[lo:hi], 3, out=table[1:])
        table[1:] += t.dist[lo:hi]
        table[1:] -= d - 2
        codes = np.empty((t.n_letters, sl.stop - sl.start), dtype=np.int32)
        for a in range(sl.start, sl.stop, _BLOCK):
            block = slice(a, min(a + _BLOCK, sl.stop))
            out = codes[:, a - sl.start:block.stop - sl.start]
            for row, dest in zip(_sorted_rows(t, block), out):
                row -= lo - 1                   # -1 reads entry 0 too
                table.take(row, mode="clip", out=dest)
        width = 3 * max(counts[max(d - 1, 0):d + 2]) + 1
        key = _keys(cls[sl], counts[d], codes, width)
        # the keys lead with the class, so unless one splits, their dense
        # labels are the classes
        if len(unique_sorted(key)) > counts[d]:
            cls[sl], counts[d] = _dense(key)
            split = True
    return split


@dataclass
class _SweepClass:
    """One color in the sweep layout: the cells of its classes (a slice of
    the layout), their degrees, and ``cols``, a table with one row per
    letter whose column i holds the cells of the neighbours of class i in
    ascending id order, as in its members' rows of ``csr_adjacency``,
    after the zero cell once per missing neighbour."""

    cells: slice
    deg: np.ndarray
    cols: np.ndarray

    def update(self, x, out=None):
        """The classes' neighbour means: the rows of ``cols`` summed in
        order, as the rows of ``csr_adjacency`` sum them.  Every cell is in
        range by construction, so ``take`` may skip its bounds checks."""
        acc = x.take(self.cols[0], mode="clip")
        for col in self.cols[1:]:
            acc += x.take(col, mode="clip")
        return np.divide(acc, self.deg, out=out)


@dataclass
class _Quotient:
    """The sweep layout on the classes of ``_partition``.  x holds one cell
    per class, the interior classes color by color, then the shell's, then
    one cell that holds 0.0 for missing neighbours; ``cls`` gives each
    vertex's cell, then the zero cell's."""

    cls: np.ndarray
    rows: list                      # a _SweepClass per color
    shell: slice                    # the shell classes' cells
    shell_ids: np.ndarray           # a member of each shell class


def _quotient(t, base_radius, table=None):
    """The sweep layout of ``_partition`` on ``end_classes``'s table at
    ``base_radius``, built once per truncation and base radius and shared
    by every end function there."""
    key = ("quotient", base_radius)
    if key not in t._caches:
        if table is None:
            table = end_classes(t, base_radius)[0].table
        cls, count, color = _partition(t, table)
        first = np.full(count, t.n, dtype=np.int32)    # each class's least
        np.minimum.at(first, cls[:-1], np.arange(t.n, dtype=np.int32))
        hue = color[first]
        order = np.lexsort((hue, hue < 0))     # by color, the shell last
        rank = np.empty(count, dtype=np.int32)
        rank[order] = np.arange(count, dtype=np.int32)
        cls[:-1] = rank[cls[:-1]]
        cls[-1] = count
        first, hue = first[order], hue[order]
        table = cls[np.stack(_sorted_rows(t, first))].astype(np.intp)
        deg = (table < count).sum(axis=0).astype(np.float64)
        inner = int((hue >= 0).sum())
        bounds = [0, *(np.flatnonzero(np.diff(hue[:inner])) + 1).tolist(),
                  inner]
        rows = [_SweepClass(slice(a, b), deg[a:b],
                            np.ascontiguousarray(table[:, a:b]))
                for a, b in zip(bounds, bounds[1:])]
        t._caches[key] = _Quotient(cls, rows, slice(inner, count),
                                   first[inner:])
    return t._caches[key]


def solve_dirichlet(t, chi, cfg=None):
    """Harmonic extension of chi into the truncation.

    The result satisfies the mean-value equation on every interior vertex
    up to cfg.tolerance, which pins the field to the unique energy
    minimizer with these boundary values.  The sweep runs on one cell per
    class of the partition it keeps constant (``_quotient``), so each
    value is the one a sweep over every vertex would compute.
    """
    cfg = cfg or SolverConfig()
    bvals = boundary_values(t, chi)
    q = _quotient(t, chi.base_radius, chi.class_table(t))
    rows = q.rows
    x = np.zeros(q.shell.stop + 1, dtype=np.float64)   # in the sweep layout
    x[:q.shell.start] = 0.5
    x[q.shell] = bvals[q.shell_ids]

    # Gauss-Seidel: sweep the colors in turn, checking the defect every
    # fourth sweep and after the last one, so the loop ends on a check.
    # Color 0's update is computed at the end of the sweep before the one
    # that writes it, where a check reads it too.
    head = rows[0].update(x)
    for iters in range(1, cfg.max_iterations + 1):
        x[rows[0].cells] = head
        for r in rows[1:]:
            r.update(x, out=x[r.cells])
        head = rows[0].update(x)
        if iters % 4 == 0 or iters == cfg.max_iterations:
            res = _sweep_defect(x, head, rows)
            if res <= cfg.tolerance:
                break

    if res > cfg.tolerance:
        raise NonConvergence(
            f"solver hit {iters} iterations with defect {res:.3e} above "
            f"tolerance {cfg.tolerance:.1e}", residual=res, iterations=iters,
        )
    values = x.take(q.cls[:-1])
    np.clip(values, 0.0, 1.0, out=values)
    return HarmonicField(truncation=t, values=values, boundary_spec=chi,
                         residual=res, iterations=iters)


# ---------------------------------------------------------------------------
# Energy and the bilinear form
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    total: float


def _pairwise_sum(chunks, n, leaf):
    """``np.sum``'s bits for the ``n`` float64 terms that the arrays
    ``chunks`` yield in order, holding about a leaf and a chunk of them at
    a time.

    numpy sums a contiguous float64 array by one pairwise tree, whose
    nodes of more than 128 terms split at n // 2 rounded down to a
    multiple of 8.  Each node of at most ``leaf`` (>= 128) terms is summed
    with ``.sum()``, which walks the same subtree, and the nodes above are
    added up that tree as numpy adds them (``_tree_sum``).
    """
    chunks, rest = iter(chunks), np.empty(0)

    def leaf_sum(k):
        nonlocal rest
        parts, have = [rest], len(rest)
        while have < k:
            parts.append(next(chunks))
            have += len(parts[-1])
        if len(parts) > 1:
            rest = np.concatenate(parts)
        terms, rest = rest[:k], rest[k:]
        return terms.sum()

    return float(_tree_sum(leaf_sum, n, leaf))


def _tree_sum(leaf_sum, k, leaf):
    """numpy's pairwise tree over k terms, whose nodes of at most ``leaf``
    terms ``leaf_sum(size)`` sums in order.  Not a closure that calls
    itself: that is a reference cycle, which keeps the row blocks it
    reaches until the collector runs, and numpy arrays never trigger it."""
    if k <= leaf:
        return leaf_sum(k)
    half = k // 2 - k // 2 % 8
    return _tree_sum(leaf_sum, half, leaf) + _tree_sum(leaf_sum, k - half,
                                                       leaf)


def _edge_sum(u, v, dom=None):
    """The sum over kept edges ab of (u(a) - u(b)) * (v(a) - v(b)), with
    the bits of ``np.sum`` over those terms in ``edges()`` order, streamed
    from ``nbr`` row blocks in one pass.

    A block's terms are its forward slots in row-major order, which is
    ``edges()``'s order.  With no ``dom`` every edge is kept and no edge
    table is built.  A ``dom`` (a vertex mask) keeps the edges with both
    ends in it, read as one mask over the cached ``edges()``, whose count
    fixes the summation tree.
    """
    t = u.truncation
    if dom is None:
        count = t.n_edges()
    else:
        eu, ev, _ = t.edges()
        mask = dom[eu] & dom[ev]
        count = int(np.count_nonzero(mask))

    def terms():
        seen = 0
        for a, nb, keep in t.forward_slots(_BLOCK):
            if dom is not None:
                m = int(np.count_nonzero(keep))
                keep[keep] = mask[seen:seen + m]
                seen += m
            rows = slice(a, a + len(nb))
            du = (u.values[rows, None] - u.values[nb])[keep]
            yield du * (du if v is u else
                        (v.values[rows, None] - v.values[nb])[keep])

    return _pairwise_sum(terms(), count, _BLOCK)


def energy(f):
    """Dirichlet energy: sum over edges of the squared difference.  A
    ``PartialField`` keeps the edges with both ends in its domain; a
    ``HarmonicField`` lives on every vertex and builds no edge table.
    """
    dom = f.domain if isinstance(f, PartialField) else None
    return EnergyReport(total=_edge_sum(f, f, dom))


def energy_form(u, v):
    """Bilinear form: sum over common-domain edges of the product of edge
    differences.  energy_form(u, u) == energy(u).total.  A common domain
    of every vertex keeps every edge, so it streams with no edge table."""
    dom = _common_domain(u, v)
    return _edge_sum(u, v, None if dom.all() else dom)


def field_difference(u, v):
    dom = _common_domain(u, v)
    return PartialField(truncation=u.truncation, values=u.values - v.values,
                        domain=dom)


# ---------------------------------------------------------------------------
# Pullbacks and lattice operations
# ---------------------------------------------------------------------------

def pullback(h, g):
    """The field v -> h(v * g) on {v : v * g stays in the ball}."""
    t = h.truncation
    ids = t.rmul_ids(np.arange(t.n, dtype=np.int64), g)
    dom = ids >= 0
    vals = np.zeros(t.n, dtype=np.float64)
    vals[dom] = h.values[ids[dom]]
    return PartialField(truncation=t, values=vals, domain=dom)


@dataclass
class CrossingSet:
    """The discrete locus where two fields exchange order: edges whose
    difference changes strict sign, plus near-equality vertices."""

    edge_mask: np.ndarray
    equal_vertices: np.ndarray

    def edge_count(self):
        return int(self.edge_mask.sum())


def lattice_ops(h, k):
    """Pointwise max/min of two fields on their common domain, with the
    crossing locus; values within 1e-9 count as equal."""
    t, dom = h.truncation, _common_domain(h, k)
    g_plus = PartialField(t, np.maximum(h.values, k.values), dom)
    g_minus = PartialField(t, np.minimum(h.values, k.values), dom)

    eu, ev, _ = t.edges()
    keep = dom[eu] & dom[ev]
    du = h.values[eu] - k.values[eu]
    dv = h.values[ev] - k.values[ev]
    crossing = keep & (du * dv < 0)
    equal = np.flatnonzero(dom & (np.abs(h.values - k.values) <= 1e-9))
    return g_plus, g_minus, CrossingSet(edge_mask=crossing, equal_vertices=equal)


# ---------------------------------------------------------------------------
# Spectral estimates
# ---------------------------------------------------------------------------

@dataclass
class SpectralReport:
    cheeger_lower: float
    lambda1_lower: float
    lambda1_estimate: float
    iterations: int


def spectral_gap(t, tol=1e-12, max_iterations=10 ** 4):
    """Smallest Dirichlet eigenvalue of the interior Laplacian by inverse
    power iteration, with a sweep-cut lower bound.

    The sweep over the converged vector yields a boundary-to-volume ratio
    eta with eta^2/4 below the Rayleigh quotient, so the reported pair is
    ordered by construction.
    """
    # local: only this function needs them, and scipy slows the import
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import splu
    inter = t.interior_ids()
    if len(inter) < 2:
        raise EndsSplitterError("need at least 2 interior vertices")
    deg = t.degrees().astype(np.float64)
    adj = t.csr_adjacency()
    sub = adj[inter][:, inter].tocsr()
    l_int = csr_matrix(
        (deg[inter], (np.arange(len(inter)), np.arange(len(inter)))),
        shape=sub.shape,
    ) - sub

    lu = splu(l_int.tocsc())
    v = np.ones(len(inter))
    v /= np.linalg.norm(v)
    lam = None
    it = 0
    converged = False
    for it in range(1, max_iterations + 1):
        w = lu.solve(v)
        w /= np.linalg.norm(w)
        lam_new = float(w @ (l_int.dot(w)))
        if lam is not None and abs(lam_new - lam) <= tol * max(lam_new, 1e-30):
            lam = lam_new
            v = w
            converged = True
            break
        lam = lam_new
        v = w
    if not converged:
        raise NonConvergence(
            f"inverse iteration did not settle within {max_iterations} "
            "steps", residual=lam, iterations=it,
        )

    eta = _sweep_cut(t, inter, np.abs(v))
    report = SpectralReport(
        cheeger_lower=eta,
        lambda1_lower=eta * eta / 4.0,
        lambda1_estimate=lam,
        iterations=it,
    )
    if report.lambda1_lower > report.lambda1_estimate + 1e-9:
        raise NonConvergence(
            "sweep bound exceeded the Rayleigh quotient; iteration did not "
            "converge", residual=report.lambda1_lower - report.lambda1_estimate,
            iterations=it,
        )
    return report


def _sweep_cut(t, inter, vec):
    """Min over sweep prefixes of |boundary edges| / degree volume."""
    order = inter[np.argsort(-vec, kind="stable")]
    deg = t.degrees()
    in_set = np.zeros(t.n, dtype=bool)
    vol = 0
    boundary = 0
    best = math.inf
    for v in order:
        nb = t.nbr[v]
        nb = nb[nb >= 0]
        inside = int(in_set[nb].sum())
        boundary += int(deg[v]) - 2 * inside
        vol += int(deg[v])
        in_set[v] = True
        best = min(best, boundary / vol)
    return float(best)


# ---------------------------------------------------------------------------
# Decay profiles
# ---------------------------------------------------------------------------

@dataclass
class DecayProfile:
    theta: int
    by_distance: dict

    def ratios(self):
        out = {}
        ds = sorted(self.by_distance)
        for d in ds:
            if d + 1 in self.by_distance and self.by_distance[d] > 0:
                out[d] = self.by_distance[d + 1] / self.by_distance[d]
        return out


def decay_profile(h, anchor_ids, component, theta):
    """Per-distance max deviation |h - theta| inside a component, measured
    in its induced path metric from the attachment layer (distance 0)."""
    t = h.truncation
    anchor_ids = np.asarray(anchor_ids, dtype=np.int64)
    allowed = np.zeros(t.n, dtype=bool)
    allowed[component.members] = True
    anchor_mask = np.zeros(t.n, dtype=bool)
    anchor_mask[anchor_ids] = True
    touch = component.members[
        (anchor_mask[t.nbr[component.members]]
         & (t.nbr[component.members] >= 0)).any(axis=1)
    ]
    if len(touch) == 0:
        raise EndsSplitterError("component does not touch the anchor")
    dist = t.graph_distances_from(touch, allowed_mask=allowed)
    d = dist[component.members]
    reached = component.members[d >= 0]
    d = d[d >= 0]
    best = np.zeros(int(d.max()) + 1)
    np.maximum.at(best, d, np.abs(h.values[reached] - theta))
    by_distance = {int(k): float(best[k]) for k in unique_sorted(d)}
    return DecayProfile(theta=theta, by_distance=by_distance)
