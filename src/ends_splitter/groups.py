"""Cayley-graph truncations for groups with infinitely many ends.

Supported presentations are free groups of rank >= 2 and free products of
cyclic groups (at least two factors, not Z/2 * Z/2).  A free group F_n is
built as the free product Z * ... * Z, with its own letter names and its
powers spelled out (``aab``, not ``a2b``), so one normal-form engine serves
every presentation.  Normal forms are linear-time, so vertices of a
truncation are canonical words and the word metric is exact.

Conventions used throughout the package:

* The graph on a truncation joins ``v`` to ``l * v`` for each generator
  letter ``l`` (letters act on the left).  Distances from the identity are
  word lengths.
* The group acts on vertices on the right, ``v -> v * g``; this action is a
  graph automorphism and is what pullbacks of fields use.
* Vertex ids are breadth-first from the identity with a fixed letter order,
  so every construction is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EndsSplitterError, PresentationError

# Generator name pools.  'e' is reserved for the identity.
_FREE_NAMES = "abcdfghijklmnopqr"
_CYCLIC_NAMES = "stuvwxyz"

# vertices per block of Truncation.word_blocks and of _first_fit
_WORD_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# Presentations and word engines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """A presentation from the built-in family.

    ``kind`` is ``"free"`` (with ``rank``) or ``"free_product_cyclic"``
    (with ``orders``, where an order of 0 encodes an infinite cyclic
    factor).  Validation enforces infinitely many ends: free rank >= 2, or
    >= 2 cyclic factors that are not exactly Z/2 * Z/2.
    """

    kind: str
    rank: int = 0
    orders: tuple = ()

    def __post_init__(self):
        if self.kind == "free":
            if self.rank < 2:
                raise PresentationError(
                    f"{self.describe()}: free groups need rank >= 2 to have "
                    "infinitely many ends (rank 1 is two-ended)"
                )
            if self.rank > len(_FREE_NAMES):
                raise PresentationError(f"{self.describe()}: rank too large")
        elif self.kind == "free_product_cyclic":
            if len(self.orders) < 2:
                raise PresentationError(
                    f"{self.describe()}: a single cyclic factor has at most "
                    "two ends; need >= 2 factors"
                )
            for o in self.orders:
                if o != 0 and o < 2:
                    raise PresentationError(
                        f"{self.describe()}: cyclic orders must be >= 2 "
                        "(0 for an infinite factor)"
                    )
            if tuple(self.orders) == (2, 2):
                raise PresentationError(
                    f"{self.describe()}: Z/2 * Z/2 is two-ended"
                )
            if len(self.orders) > len(_CYCLIC_NAMES):
                raise PresentationError(f"{self.describe()}: too many factors")
        else:
            raise PresentationError(f"unknown presentation kind {self.kind!r}")

    @classmethod
    def free(cls, rank):
        return cls(kind="free", rank=rank)

    @classmethod
    def free_product_of_cyclics(cls, orders):
        return cls(kind="free_product_cyclic", orders=tuple(orders))

    @classmethod
    def from_config(cls, cfg):
        kind = cfg.get("kind")
        if kind == "free":
            return cls.free(_integer(cfg["rank"]))
        if kind == "free_product_cyclic":
            # 0, null and "inf" all name Z
            return cls.free_product_of_cyclics(
                [0 if o is None or o == "inf" else _integer(o)
                 for o in cfg["orders"]])
        raise PresentationError(f"unknown presentation kind {kind!r}")

    def describe(self):
        if self.kind == "free":
            return f"FreeGroup(rank={self.rank})"
        parts = "*".join("Z" if o == 0 else f"Z/{o}" for o in self.orders)
        return f"FreeProductOfCyclics({parts})"

    def engine(self):
        return _engine_for(self)


def _integer(value):
    # bools, floats and strings are refused rather than truncated by int()
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


@lru_cache(maxsize=None)
def _engine_for(p):
    if p.kind == "free":                # F_n = Z * ... * Z, powers spelled out
        return CyclicProductEngine((0,) * p.rank, _FREE_NAMES, spelled=True)
    return CyclicProductEngine(p.orders, _CYCLIC_NAMES)


class CyclicProductEngine:
    """Normal-form arithmetic for a free product of cyclic groups.

    Words are tuples of syllables ``(factor, exp)``; adjacent syllables use
    distinct factors.  For a finite factor of order ``o`` the exponent is
    canonical in ``1..o-1``; for an infinite factor (order 0) it is any
    nonzero integer.  Word length charges each syllable its geodesic cost,
    ``min(e, o - e)`` for finite factors.

    Factor ``f``'s generator is named ``factor_names[f]``, and its inverse
    the same in upper case.  A power renders as ``t2``, or as ``tt`` when
    ``spelled``.
    """

    def __init__(self, orders, factor_names, spelled=False):
        self.orders = tuple(orders)
        self.identity = ()
        self.factor_names, self.spelled = factor_names, spelled
        letters = []   # (factor, delta)
        names = []
        for f, o in enumerate(self.orders):
            g = factor_names[f]
            if o == 2:
                letters.append((f, 1))
                names.append(g)
            else:
                letters.extend([(f, 1), (f, -1)])
                names.extend([g, g.upper()])
        self.letters = letters
        self.letter_names = names
        self.n_letters = len(letters)
        self._letter_index = {fd: i for i, fd in enumerate(letters)}

    def inverse_letter(self, l):
        f, d = self.letters[l]
        if self.orders[f] == 2:
            return l
        return self._letter_index[(f, -d)]

    def _canon(self, f, e):
        o = self.orders[f]
        if o:
            e %= o
        return e

    def mul_letter_left(self, l, w):
        f, d = self.letters[l]
        if w and w[0][0] == f:
            e = self._canon(f, w[0][1] + d)
            if e == 0:
                return w[1:]
            return ((f, e),) + w[1:]
        return ((f, self._canon(f, d)),) + w

    def mul(self, u, v):
        out = list(u)
        for f, e in v:
            if out and out[-1][0] == f:
                e2 = self._canon(f, out[-1][1] + e)
                if e2 == 0:
                    out.pop()
                else:
                    out[-1] = (f, e2)
            else:
                out.append((f, self._canon(f, e)))
        return tuple(out)

    def inverse(self, w):
        return tuple((f, self._canon(f, -e)) for f, e in reversed(w))

    def _syllable_length(self, f, e):
        o = self.orders[f]
        if o == 0:
            return abs(e)
        return min(e, o - e)

    def length(self, w):
        return sum(self._syllable_length(f, e) for f, e in w)

    def letters_of(self, w):
        out = []
        for f, e in w:
            o = self.orders[f]
            if o == 0:
                d = 1 if e > 0 else -1
                out.extend([self._letter_index[(f, d)]] * abs(e))
            elif e <= o - e:
                out.extend([self._letter_index[(f, 1)]] * e)
            else:
                out.extend([self._letter_index[(f, -1)]] * (o - e))
        return out

    def render(self, w):
        return "".join(itertools.starmap(self._syllable_text, w)) or "e"

    @lru_cache(maxsize=None)
    def _syllable_text(self, f, e):
        o, g = self.orders[f], self.factor_names[f]
        if o == 0 and e < 0:
            g, e = g.upper(), -e
        elif o and e > o - e:
            g, e = g.upper(), o - e
        return g * e if self.spelled or e == 1 else f"{g}{e}"


@dataclass(frozen=True)
class Element:
    """A group element in normal form, usable on any truncation of the
    same presentation."""

    presentation: Presentation
    word: tuple

    def __mul__(self, other):
        eng = self.presentation.engine()
        return Element(self.presentation, eng.mul(self.word, other.word))

    def inverse(self):
        eng = self.presentation.engine()
        return Element(self.presentation, eng.inverse(self.word))

    def length(self):
        return self.presentation.engine().length(self.word)

    def letters(self):
        return self.presentation.engine().letters_of(self.word)

    def __str__(self):
        return self.presentation.engine().render(self.word)

    def __repr__(self):
        return f"Element({self})"


# ---------------------------------------------------------------------------
# Truncations
# ---------------------------------------------------------------------------

@dataclass
class Truncation:
    """The ball of radius ``radius`` around the identity, with its shell.

    ``nbr[v, l]`` is the id of ``l * v`` or -1 when that product leaves the
    ball.  ``parent`` strips the leading letter; ``parent_letter[v]`` is
    that letter, so ``v == parent_letter[v] * parent[v]`` for v != 0.
    Immutable after construction; safe for concurrent reads.

    Ids are below 2**31 (``build_truncation`` refuses larger balls), so
    ``nbr`` and ``parent`` are int32; arithmetic on ids that can pass 2**31,
    such as ``v * n_letters + l``, is done in int64.
    """

    presentation: Presentation | None
    radius: int
    nbr: np.ndarray
    dist: np.ndarray
    parent: np.ndarray
    parent_letter: np.ndarray
    shell_mask: np.ndarray
    _caches: dict = field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.nbr.shape[0]

    @property
    def n_letters(self):
        return self.nbr.shape[1]

    @property
    def interior_mask(self):
        return ~self.shell_mask

    def interior_ids(self):
        return np.flatnonzero(self.interior_mask)

    def shell_ids(self):
        return np.flatnonzero(self.shell_mask)

    def degrees(self):
        """int8 neighbour count per vertex, at most ``n_letters``."""
        if "deg" not in self._caches:
            self._caches["deg"] = (self.nbr >= 0).sum(axis=1, dtype=np.int8)
        return self._caches["deg"]

    def spheres(self):
        """Id slices of equal distance from e, built once: sphere k is
        ``spheres()[k]`` (ids are breadth-first)."""
        if "spheres" not in self._caches:
            bounds = [0, *(np.flatnonzero(np.diff(self.dist)) + 1).tolist(),
                      self.n]
            self._caches["spheres"] = [slice(a, b)
                                       for a, b in zip(bounds, bounds[1:])]
        return self._caches["spheres"]

    # -- words and elements -------------------------------------------------

    def element(self, v):
        """Group element of vertex ``v`` in normal form."""
        eng = self.presentation.engine()
        path = []                       # v = parent_letter[v] * parent[v]
        while v != 0:
            path.append(eng.letters[self.parent_letter.item(v)])
            v = self.parent.item(v)
        return Element(self.presentation, eng.mul(eng.identity, path))

    def word(self, v):
        if self.presentation is None:
            return f"v{v}"
        return str(self.element(v))

    def word_blocks(self):
        """``(ids, words)`` pairs covering every vertex in id order: ``ids``
        is a slice of at most ``_WORD_BLOCK`` consecutive ids of one sphere
        and ``words`` a fixed-width bytes array of their ``word(v)``, ASCII
        with no NUL byte.

        Words are rendered once each; one sphere is kept to build the next.
        """
        if self.presentation is None:       # a path: one vertex per sphere
            for sl in self.spheres():
                yield sl, np.array([f"v{sl.start}"], dtype="S")
            return
        # v's word is fix[s, l] before the tail of its parent's word past
        # cut[s, l] characters, for the parent's state s and v's letter l.
        # A letter that joins s's syllable rewrites its rendering; one that
        # ends with the old rendering keeps it in the tail (aab -> aaab), so
        # spelled powers slice nothing.  Parents are one sphere in, and so
        # are the states they hand on.  States are rendered here, not in
        # _syllables, which also serves radii too large to build
        syl, L = _syllables(self.presentation, self.radius), self.n_letters
        heads = [self.presentation.engine().render(w) for w in syl.words]
        fix, cut = [], []
        for (s, l), c in np.ndenumerate(syl.child):
            new, drop = heads[c], len(heads[s]) if syl.joins[s, l] else 0
            if drop and new.endswith(heads[s]):
                new, drop = new[:-drop], 0
            fix.append(new)
            cut.append(drop)
        fix, cut = np.array(fix, dtype="S"), np.array(cut)
        prev, state = np.array([b"e"]), np.zeros(1, dtype=np.intp)
        yield slice(0, 1), prev
        for sphere in self.spheres()[1:]:
            par = self.parent[sphere] - (sphere.start - len(prev))
            pstate, letters = state[par], self.parent_letter[sphere]
            state = syl.child[pstate, letters]
            cur = []
            for a in range(0, len(par), _WORD_BLOCK):
                b = min(a + _WORD_BLOCK, len(par))
                keys = pstate[a:b].astype(np.intp) * L + letters[a:b]
                tails, cuts = prev[par[a:b]], cut[keys]
                if cuts.any():
                    tails = np.strings.slice(tails, cuts, None)
                chunk = np.strings.add(fix[keys], tails)
                if sphere.stop < self.n:    # the shell's words are never parents
                    cur.append(chunk)
                yield slice(sphere.start + a, sphere.start + b), chunk
            if cur:
                prev = np.concatenate(cur)

    def letter_id(self, letter):
        """Accepts a letter id or a one-character generator/inverse name."""
        if isinstance(letter, (int, np.integer)):
            return int(letter)
        eng = self.presentation.engine()
        return eng.letter_names.index(letter)

    # -- edges ---------------------------------------------------------------

    def forward_slots(self, block):
        """``(a, rows, forward)`` for each block of ``block`` rows of
        ``nbr``, from id a: the rows, and the mask of their slots whose
        neighbour is above the row's id.  Those slots, row-major, are the
        edges in ``edges()``'s order."""
        for a in range(0, self.n, block):
            nb = self.nbr[a:a + block]
            ids = np.arange(a, a + len(nb), dtype=np.int32)
            yield a, nb, nb > ids[:, None]

    def edges(self):
        """Undirected edge arrays (eu, ev, eletter), eu < ev, sorted by
        (eu, eletter), as int32, int32 and int8.  The fixed order makes
        energy sums reproducible.  They are filled a block of rows at a
        time, so no index array spans the n * L slots."""
        if "edges" not in self._caches:
            m, at = self.n_edges(), 0
            eu, ev = np.empty(m, dtype=np.int32), np.empty(m, dtype=np.int32)
            el = np.empty(m, dtype=np.int8)
            for a, nb, forward in self.forward_slots(_WORD_BLOCK):
                slot = np.flatnonzero(forward)      # (u - a) * L + letter
                end = at + len(slot)
                ev[at:end] = nb.ravel()[slot]
                eu[at:end], el[at:end] = np.divmod(slot, self.n_letters)
                eu[at:end] += a
                at = end
            self._caches["edges"] = (eu, ev, el)
        return self._caches["edges"]

    def n_edges(self):
        """The number of edges, counted once as an int without building
        ``edges()``: each is seen from both ends."""
        if "n_edges" not in self._caches:
            self._caches["n_edges"] = int((self.nbr >= 0).sum()) // 2
        return self._caches["n_edges"]

    def csr_adjacency(self):
        """The adjacency matrix in CSR form, each row's columns ascending,
        for ``spectral_gap``; no command reads it, and it is built on every
        call."""
        from scipy.sparse import coo_matrix

        eu, ev, _ = self.edges()
        data = np.ones(2 * len(eu))
        rows = np.concatenate([eu, ev])
        cols = np.concatenate([ev, eu])
        a = coo_matrix((data, (rows, cols)), shape=(self.n, self.n))
        return a.tocsr()

    # -- the block tree -------------------------------------------------------

    def blocks(self):
        """``(anchor, block, cyclic)``, built once: the graph's blocks
        (biconnected pieces), which make the Bass-Serre tree of the free
        product.  A factor of order >= 3 spans cycles, cut where the ball
        ends (``cyclic`` marks its letters); any other letter spans edges.
        Each v != e lies in one block through its parent, numbered
        ``block[v]`` (-1 at e), whose vertex nearest e is ``anchor[v]``;
        every other block at v is anchored at v.
        """
        if "blocks" not in self._caches:
            p, L = self.presentation, self.n_letters
            first, cyclic = np.arange(L), np.zeros(L, dtype=bool)
            cyclic[self.cycle_letters()] = True
            if p is not None:
                letters = p.engine().letters    # each to its factor's first
                first = np.array([letters.index((f, 1)) for f, _ in letters])
            lead = first[self.parent_letter]
            anchor = self.parent.astype(np.int32)
            for sl in self.spheres()[2:]:           # sphere 1 hangs off e
                par = self.parent[sl]
                same = (lead[par] == lead[sl]) & cyclic[lead[sl]]
                anchor[sl] = np.where(same, anchor[par], par)
            # a cycle is numbered by its member s * anchor, an edge by its
            # far end
            block = np.where(cyclic[lead], self.nbr[anchor, lead],
                             np.arange(self.n, dtype=np.int32))
            block[0] = -1
            self._caches["blocks"] = (anchor, block, cyclic)
        return self._caches["blocks"]

    def cycle_letters(self):
        """The letters of factors of order >= 3, the only ones whose edges
        close cycles and so can lie off the breadth-first tree."""
        eng = self.presentation and self.presentation.engine()
        return [l for l, (f, _) in enumerate(eng.letters)
                if eng.orders[f] >= 3] if eng else []

    # -- the right action ----------------------------------------------------

    def right_mult_table(self, letter):
        """int32 id table for v -> v * letter, -1 where the product leaves
        the ball, built by walking spheres outward.  It is cached until a
        ``right_action_stream`` that reads it ends."""
        letter = self.letter_id(letter)
        key = ("rmul", letter)
        if key not in self._caches:
            r = np.full(self.n, -1, dtype=np.int32)
            r[0] = self.nbr[0, letter]
            # v = parent_letter * parent, so v*l = parent_letter * (parent*l);
            # walk spheres outward so parents are resolved first
            for ids in self.spheres()[1:]:
                rp = r[self.parent[ids]]
                r[ids] = np.where(
                    rp >= 0, self.nbr[rp, self.parent_letter[ids]], -1)
            self._caches[key] = r
        return self._caches[key]

    def rmul_ids(self, ids, element):
        """Vectorized v -> v * g on an id array; -1 where the product leaves
        the ball."""
        out = np.asarray(ids, dtype=np.int64).copy()
        for l in element.letters():
            table = self.right_mult_table(l)
            ok = out >= 0
            out[ok] = table[out[ok]]
        return out

    def right_action_stream(self, elements):
        """``(i, rmul_ids(arange(n), elements[i]))`` as int32 for every i,
        one element at a time.

        The map of g = l * w (l the first letter of g's geodesic) is one
        gather from the map of w.  Elements come in the order of their
        geodesics read backwards, so each map extends one on a stack that
        holds a single chain w, l * w, ...: at most one map per letter of
        the longest element.  A letter's own map is a read-only view of its
        ``right_mult_table``, and e's is a fresh ``arange`` that no map
        derives from.  A map is built once, and the letter tables leave
        ``_caches`` when the stream ends.
        """
        words = [tuple(reversed(g.letters())) for g in elements]
        stack = []
        try:
            for i in sorted(range(len(words)), key=words.__getitem__):
                word = words[i]
                while stack and word[:len(stack[-1][0])] != stack[-1][0]:
                    stack.pop()
                for k in range(len(stack), len(word)):
                    table = self.right_mult_table(word[k])
                    if stack:
                        img = stack[-1][1][table]
                        img[table < 0] = -1
                    else:
                        img = table.view()
                        img.flags.writeable = False
                    stack.append((word[:k + 1], img))
                yield i, (stack[-1][1] if word
                          else np.arange(self.n, dtype=np.int32))
        finally:
            for l in range(self.n_letters):
                self._caches.pop(("rmul", l), None)

    def left_translates(self, ids, r):
        """``w * v`` for each id v (one row each) and each element w != e of
        length <= r (one column each, in id order), -1 where the chase
        leaves the ball.  r must not exceed the radius.

        The chase runs through the adjacency tables innermost letter first:
        w * v = l * (w' * v) for w = l * w' with w' the parent of w, so each
        sphere of w's is one gather from the sphere before.
        """
        if r > self.radius:
            raise ValueError("translate radius exceeds the truncation radius")
        spheres = self.spheres()[:max(r, 0) + 1]
        out = np.empty((spheres[-1].stop, len(ids)), dtype=np.int64)
        out[0] = ids
        for sl in spheres[1:]:
            prev = out[self.parent[sl]]
            cur = self.nbr[prev, self.parent_letter[sl, None]]
            cur[prev < 0] = -1
            out[sl] = cur
        return out[1:].T

    def word_ball(self, center_ids, r):
        """Ids of the exact word-metric ball of radius r around a vertex
        set, clipped to the truncation: balls around x are left translates
        {w * x : |w| <= r}."""
        centers = np.atleast_1d(np.asarray(center_ids, dtype=np.int64))
        near = self.left_translates(centers, r)
        return unique_sorted(np.concatenate([centers, near[near >= 0]]))

    def word_distance(self, u, v):
        """Exact word-metric distance between two vertices (length of the
        left quotient, matching edges v ~ l * v)."""
        a = self.element(u)
        b = self.element(v)
        return (b * a.inverse()).length()

    def graph_distances_from(self, sources, allowed_mask=None):
        """BFS distances inside the truncation (induced metric when
        allowed_mask is given); -1 marks unreachable."""
        # the slot past the ball answers for nbr's -1s as reached
        dist = np.full(self.n + 1, -1, dtype=np.int64)
        dist[self.n] = 0
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        if allowed_mask is not None:
            sources = sources[allowed_mask[sources]]
        dist[sources] = 0
        frontier = sources
        d = 0
        while len(frontier):
            d += 1
            # one cast of the int32 ids for the four gathers below
            nxt = self.nbr[frontier].ravel().astype(np.intp)
            nxt = nxt[dist[nxt] < 0]
            if allowed_mask is not None:
                nxt = nxt[allowed_mask[nxt]]
            # the next frontier holds each new vertex once: the copy whose
            # tag -2 - (its position) was written last
            tags = -2 - np.arange(len(nxt))
            dist[nxt] = tags
            frontier = nxt[dist[nxt] == tags]
            dist[frontier] = d
        return dist[:-1]


def join_labels(labels, u, v):
    """``labels``, each a root (``labels[labels] == labels``), joined along
    the edges ``(u[i], v[i])`` to the smallest label of each union.

    Hook and shortcut (Shiloach and Vishkin, J. Algorithms 3, 1982): each
    round hooks the larger label of every edge whose ends still differ
    onto the smaller one, then jumps pointers until every label is a root.
    Labels only point to smaller ones, so no cycle forms, and each round
    lowers some label, so the rounds end.
    """
    while True:
        lu, lv = labels[u], labels[v]
        open_ = lu != lv
        if not open_.any():
            return labels
        # an edge whose ends share a label keeps sharing it
        u, v, lu, lv = u[open_], v[open_], lu[open_], lv[open_]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up


def unique_sorted(a):
    """The distinct values of the 1-d array ``a`` in ascending order, as
    ``np.unique(a)`` gives them, without its first call's import of
    ``numpy.ma``."""
    a = np.sort(a)
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _first_fit(t, rows, alive):
    """The first-fit independent subset of the mask ``alive`` in id order,
    as a mask: v joins unless a member u < v has v in the row of u.
    ``rows(ids)`` returns those rows, one per id, padded with -1.

    It settles one block of ids at a time, at most ``_WORD_BLOCK`` of one
    sphere (which bounds the rows held at once), so smaller ids are settled
    when a block starts.  Each round admits every open vertex of the block
    that no smaller open vertex of the block can block; the smallest open
    vertex always joins.  A block needs a second round only where rows
    link ids inside it.
    """
    blocked, member = ~alive, np.zeros(t.n, dtype=bool)
    for sl in t.spheres():
        for a in range(sl.start, sl.stop, _WORD_BLOCK):
            b = min(a + _WORD_BLOCK, sl.stop)
            cand = a + np.flatnonzero(~blocked[a:b])
            while len(cand):
                row = rows(cand)
                later = row > cand[:, None]
                threat = np.zeros(b - a, dtype=bool)
                threat[row[later & (row < b)] - a] = True
                joins = ~threat[cand - a]
                later[~joins] = False
                member[cand[joins]] = blocked[cand[joins]] = True
                blocked[row[later]] = True
                cand = cand[~blocked[cand]]
    return member


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

# Tables of the layout.  A vertex's state is the leading syllable of its
# normal form (state 0: the identity), the one-syllable word ``words[s]``,
# and for a vertex v of state s and a letter l, tree[s, l] says whether
# l * v is v's child, child[s, l] is that child's state and joins[s, l]
# whether l joins v's leading syllable (or e's) rather than starting one.
_Syllables = namedtuple("_Syllables", "tree child joins words closing")


@lru_cache(maxsize=None)
def _syllables(p, radius):
    """Layout tables for the ball of ``p`` of radius ``radius``, found by
    a breadth-first walk over one-syllable words in letter order.

    One element has two parents: the antipode s^(o/2) of a factor of even
    order o >= 4, reached along both of its factor's chains.  As among
    vertices, the first parent seen keeps it, which is the s side.  The
    edges off the tree close the finite factors' cycles; ``closing`` lists
    them as (state x, letter l, |x|, geodesic letters of l * x) with
    |l * x| <= |x|, so both ends are built by sphere |x|.
    """
    eng = p.engine()
    L = eng.n_letters
    words, index = [eng.identity], {eng.identity: 0}
    tree, child, joins, merged = [], [], [], set()
    for s, x in enumerate(words):               # grows while walked
        tree.append([False] * L)
        child.append([0] * L)
        joins.append([False] * L)
        for l in range(L):
            y = eng.mul_letter_left(l, x)
            head = y[:1]
            if (eng.length(y) != eng.length(x) + 1
                    or eng.length(head) > radius or y in merged):
                continue
            if len(y) == 1:                     # l joins x's syllable (or e's)
                merged.add(y)
                joins[s][l] = True
            if head not in index:
                index[head] = len(words)
                words.append(head)
            tree[s][l] = True
            child[s][l] = index[head]
    closing = []
    for s, x in enumerate(words):
        for l in range(L):
            y = eng.mul_letter_left(l, x)
            if (len(y) != 1 or eng.length(y) > eng.length(x)
                    or tree[index[y]][eng.inverse_letter(l)]):
                continue
            closing.append((s, l, eng.length(x), eng.letters_of(y)))
    child = np.array(child, dtype=np.min_scalar_type(len(words)))
    return _Syllables(np.array(tree, dtype=bool), child,
                      np.array(joins, dtype=bool), words, closing)


def _sphere_sizes(p, radius):
    """The layout tables and sphere sizes of the ball of radius ``radius``,
    counted before any array of the ball is allocated; EndsSplitterError
    once the ball reaches 2**31 vertices, past the int32 vertex ids.

    The layout walk takes one state per power of each Z factor up to its
    radius, so the count runs on walks of radius 16, 32, ... first: a
    refused ball walks at most twice the radius where the count passes.
    """
    rho = min(radius, 16)
    while True:
        syl = _syllables(p, rho)
        # counts[s]: vertices of state s on the current sphere
        src, dst = np.nonzero(syl.tree)[0], syl.child[syl.tree]
        counts, sizes, n = np.eye(1, len(syl.words))[0], [1], 1
        while len(sizes) <= rho:
            counts = np.bincount(dst, weights=counts[src],
                                 minlength=len(syl.words))
            sizes.append(int(counts.sum()))
            n += sizes[-1]
            if n >= 2 ** 31:
                raise EndsSplitterError(
                    f"{p.describe()}: the ball of radius {radius} has at "
                    "least 2**31 vertices, past the int32 vertex ids")
        if rho == radius:
            return syl, sizes
        rho = min(2 * rho, radius)


def build_truncation(p, radius):
    """The ball of the Cayley graph with full adjacency and a marked shell.

    Vertex ids are contiguous breadth-first from the identity (id 0): the
    children of a sphere come in (parent id, letter) order, and a vertex
    reached from two parents is the child of the one seen first.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not isinstance(p, Presentation):
        raise PresentationError(f"not a presentation: {p!r}")
    syl, sizes = _sphere_sizes(p, radius)
    n, L = sum(sizes), p.engine().n_letters
    inverse = np.array([p.engine().inverse_letter(l) for l in range(L)],
                       dtype=np.int8)
    # int64, so flat slot indices up to n * L do not wrap
    starts = np.cumsum([0] + sizes, dtype=np.int64)

    nbr = np.full((n, L), -1, dtype=np.int32)
    dist = np.repeat(np.arange(radius + 1, dtype=np.int32), sizes)
    parent = np.full(n, -1, dtype=np.int32)
    parent_letter = np.zeros(n, dtype=np.int8)
    fanout = syl.tree.sum(axis=1)
    letter_grid = np.arange(L, dtype=np.int8)
    state = np.zeros(1, dtype=syl.child.dtype)  # the previous sphere's
    for k in range(1, radius + 1):
        lo, hi, end = starts[k - 1:k + 2]
        grows = syl.tree[state]                 # children in (parent, letter)
        par = np.repeat(np.arange(lo, hi, dtype=np.int32), fanout[state])
        letters = np.broadcast_to(letter_grid, grows.shape)[grows]
        nbr[lo:hi][grows] = np.arange(hi, end, dtype=np.int32)
        # the flat index of (child, inverse letter)
        nbr.reshape(-1)[np.arange(hi * L, end * L, L) + inverse[letters]] = par
        parent[hi:end], parent_letter[hi:end] = par, letters
        state = syl.child[state][grows]
        for x, l, depth, path in syl.closing:
            v = w = hi + np.flatnonzero(state == x)
            for _ in range(depth):              # down x's chain to its anchor
                w = parent[w]
            for m in path:                      # and up l * x's chain
                w = nbr[w, m]
            nbr[v, l], nbr[w, inverse[l]] = w, v

    return Truncation(
        presentation=p, radius=radius, nbr=nbr, dist=dist, parent=parent,
        parent_letter=parent_letter, shell_mask=dist == radius,
    )


def path_truncation(n_interior):
    """A path with ``n_interior`` interior vertices and both endpoints
    marked as shell.

    Stand-in for a two-ended truncation in spectral calibration; the
    presentation family itself rejects two-ended groups, so this bypasses
    presentations entirely.
    """
    n = n_interior + 2
    nbr = np.full((n, 2), -1, dtype=np.int32)
    nbr[:-1, 0] = np.arange(1, n)
    nbr[1:, 1] = np.arange(0, n - 1)
    dist = np.arange(n, dtype=np.int32)
    parent = np.arange(-1, n - 1, dtype=np.int32)
    shell = np.zeros(n, dtype=bool)
    shell[0] = shell[-1] = True
    return Truncation(
        presentation=None, radius=n - 1, nbr=nbr, dist=dist, parent=parent,
        parent_letter=np.zeros(n, dtype=np.int8), shell_mask=shell,
    )


# ---------------------------------------------------------------------------
# Group samples and nets
# ---------------------------------------------------------------------------

def group_ball(t, r):
    """Elements of word length <= r, for action and pullback samples."""
    if r > t.radius:
        raise ValueError("sample radius exceeds the truncation radius")
    return [t.element(v) for v in range(t.spheres()[max(r, 0)].stop)]


@dataclass
class Net:
    """The first-fit delta-separated vertex set in id order: a vertex joins
    unless an earlier member lies within word distance spacing - 1.

    Members are pairwise at word distance >= spacing, and every vertex is
    within word distance spacing of a member.  The identity is a member.
    """

    spacing: int
    member_ids: np.ndarray

    @property
    def size(self):
        return len(self.member_ids)


def build_net(t, delta):
    if delta < 1:
        raise ValueError("net spacing must be >= 1")
    # past the radius the identity's translates already cover the ball
    r = min(delta - 1, t.radius)
    members = np.flatnonzero(_first_fit(
        t, lambda ids: t.left_translates(ids, r), np.ones(t.n, dtype=bool)))
    return Net(spacing=delta, member_ids=members)
