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
)
from .groups import _first_fit, unique_sorted


@dataclass
class SolverConfig:
    tolerance: float = 1e-9          # max mean-value defect on the interior
    max_iterations: int = 10 ** 6

    def __post_init__(self):
        if self.tolerance <= 0:
            raise EndsSplitterError("solver tolerance must be positive")
        if self.max_iterations < 1:
            raise EndsSplitterError("max_iterations must be >= 1")


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
        a block at a time, formatting each distinct bit pattern once."""
        cell = ",{:.17g}\n".format
        with open(path, "w") as fh:
            fh.write("word,value\n")
            for ids, words in self.truncation.word_blocks():
                bits, inv = np.unique(self.values[ids].view(np.uint64),
                                      return_inverse=True)
                cells = list(map(cell, bits.view(np.float64).tolist()))
                rows = [None] * (2 * len(words))
                rows[0::2] = words
                rows[1::2] = map(cells.__getitem__, inv.tolist())
                fh.write("".join(rows))


@dataclass
class PartialField:
    """A field defined on part of a truncation (pullbacks, lattice ops)."""

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
    the color classes ``rows``, given ``head``, class 0's next update.

    Each class's defect is |update - x| over its cells.  The last class was
    just updated from the same x in the same column order, so its defect is
    exactly 0; the middle classes (none on a bipartite ball) are evaluated.
    """
    return max([float(np.abs(head - x[rows[0].cells]).max())]
               + [float(np.abs(r.update(x) - x[r.cells]).max())
                  for r in rows[1:-1]])


def _color_classes(t):
    """Independent interior vertex classes for sweep ordering: the
    first-fit coloring in id order, whose class c is the first-fit
    independent set of what classes < c leave.  On a bipartite ball that
    is the red-black split by parity; the shell is colored too, so a ball
    whose id 0 is a shell vertex keeps that order.
    """
    alive, classes = np.ones(t.n, dtype=bool), []
    while alive.any():
        member = _first_fit(t, lambda v: np.take(t.nbr, v, axis=0), alive)
        alive &= ~member
        inter = np.flatnonzero(member & ~t.shell_mask)
        if len(inter):
            classes.append(inter)
    return classes


@dataclass
class _SweepClass:
    """One color class in the sweep layout: its vertex ids, its cells (a
    slice of the layout), its degrees, and ``cols``, a table with one row
    per letter whose column i holds the cells of the neighbours of ids[i]
    in ascending id order, as in its row of ``csr_adjacency``, after the
    zero cell once per missing neighbour."""

    ids: np.ndarray
    cells: slice
    deg: np.ndarray
    cols: np.ndarray

    def update(self, x, out=None):
        """The class's neighbour means: the rows of ``cols`` summed in
        order, as the rows of ``csr_adjacency`` sum them.  Every cell is in
        range by construction, so ``take`` may skip its bounds checks."""
        acc = x.take(self.cols[0], mode="clip")
        for col in self.cols[1:]:
            acc += x.take(col, mode="clip")
        return np.divide(acc, self.deg, out=out)


def _sweep_rows(t):
    """The sweep layout, built once per truncation: a ``_SweepClass`` per
    color class.  The solver keeps x with the classes stored one after
    another, then the shell in id order, then one cell that holds 0.0 for
    the missing neighbours of a vertex of low degree."""
    if "sweep_rows" not in t._caches:
        classes = _color_classes(t)
        order = np.concatenate([*classes, t.shell_ids()])
        cell = np.empty(t.n + 1, dtype=np.intp)
        cell[order] = np.arange(t.n)
        cell[-1] = t.n                  # nbr's -1 reads the zero cell
        deg, rows, start = t.degrees(), [], 0
        for ids in classes:
            stop = start + len(ids)
            cols = np.ascontiguousarray(cell[np.sort(t.nbr[ids], axis=1).T])
            rows.append(_SweepClass(ids, slice(start, stop),
                                    deg[ids].astype(np.float64), cols))
            start = stop
        t._caches["sweep_rows"] = rows
    return t._caches["sweep_rows"]


def solve_dirichlet(t, chi, cfg=None):
    """Harmonic extension of chi into the truncation.

    The result satisfies the mean-value equation on every interior vertex
    up to cfg.tolerance, which pins the field to the unique energy
    minimizer with these boundary values.
    """
    cfg = cfg or SolverConfig()
    bvals = boundary_values(t, chi)
    shell = t.shell_mask
    rows = _sweep_rows(t)
    inner = rows[-1].cells.stop
    x = np.zeros(t.n + 1, dtype=np.float64)        # in the sweep layout
    x[:inner] = 0.5
    x[inner:t.n] = bvals[shell]

    # Gauss-Seidel: sweep the color classes in turn, checking the defect
    # every fourth sweep and after the last one, so the loop ends on a check.
    # Class 0's update is computed at the end of the sweep before the one
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
    values = np.empty(t.n, dtype=np.float64)
    values[shell] = x[inner:t.n]
    for r in rows:
        values[r.ids] = x[r.cells]
    np.clip(values, 0.0, 1.0, out=values)
    return HarmonicField(truncation=t, values=values, boundary_spec=chi,
                         residual=res, iterations=iters)


# ---------------------------------------------------------------------------
# Energy and the bilinear form
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    total: float


def energy(f, edge_filter=None):
    """Dirichlet energy: sum over edges of the squared difference.

    ``edge_filter`` restricts to a boolean edge mask.  A ``HarmonicField``
    lives on every vertex, so only a ``PartialField`` masks its domain.
    """
    eu, ev, _ = f.truncation.edges()
    keep = edge_filter
    if isinstance(f, PartialField):
        inside = f.domain[eu] & f.domain[ev]
        keep = inside if keep is None else inside & keep
    if keep is not None and not keep.all():
        # only the kept edges, in edge order: the sum's terms are the same
        eu, ev = eu[keep], ev[keep]
    diffs = f.values[eu] - f.values[ev]
    return EnergyReport(total=float((diffs * diffs).sum()))


def energy_form(u, v):
    """Bilinear form: sum over common-domain edges of the product of edge
    differences.  energy_form(u, u) == energy(u).total."""
    dom = _common_domain(u, v)
    eu, ev, _ = u.truncation.edges()
    keep = dom[eu] & dom[ev]
    du = u.values[eu] - u.values[ev]
    dv = v.values[eu] - v.values[ev]
    return float((du * dv)[keep].sum())


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


def lattice_ops(h, k, equality_tol=1e-9):
    """Pointwise max/min of two fields on their common domain, with the
    crossing locus."""
    t, dom = h.truncation, _common_domain(h, k)
    g_plus = PartialField(t, np.maximum(h.values, k.values), dom)
    g_minus = PartialField(t, np.minimum(h.values, k.values), dom)

    eu, ev, _ = t.edges()
    keep = dom[eu] & dom[ev]
    du = h.values[eu] - k.values[eu]
    dv = h.values[ev] - k.values[ev]
    crossing = keep & (du * dv < 0)
    equal = np.flatnonzero(dom & (np.abs(h.values - k.values) <= equality_tol))
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
