"""Cayley-graph truncations for groups with infinitely many ends.

Supported presentations are free groups of rank >= 2 and free products of
cyclic groups (at least two factors, not Z/2 * Z/2).  Both have linear-time
normal forms, so vertices of a truncation are canonical words and the word
metric is exact.

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

from .errors import PresentationError

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
    if p.kind == "free":
        return FreeEngine(p.rank)
    return CyclicProductEngine(p.orders)


class FreeEngine:
    """Reduced-word arithmetic for a free group.

    Letters are integers; letter ``2i`` is generator ``i`` and ``2i + 1``
    its inverse, so ``inv(l) == l ^ 1``.  Words are tuples of letters with
    no adjacent cancelling pair.
    """

    def __init__(self, rank):
        self.rank = rank
        self.n_letters = 2 * rank
        names = []
        for i in range(rank):
            g = _FREE_NAMES[i]
            names.extend([g, g.upper()])
        self.letter_names = names
        self.identity = ()

    def inverse_letter(self, l):
        return l ^ 1

    def mul_letter_left(self, l, w):
        if w and w[0] == (l ^ 1):
            return w[1:]
        return (l,) + w

    def mul_letter_right(self, w, l):
        if w and w[-1] == (l ^ 1):
            return w[:-1]
        return w + (l,)

    def mul(self, u, v):
        out = list(u)
        for l in v:
            if out and out[-1] == (l ^ 1):
                out.pop()
            else:
                out.append(l)
        return tuple(out)

    def inverse(self, w):
        return tuple((l ^ 1) for l in reversed(w))

    def length(self, w):
        return len(w)

    def letters_of(self, w):
        return list(w)

    def render(self, w):
        if not w:
            return "e"
        return "".join(self.letter_names[l] for l in w)


class CyclicProductEngine:
    """Normal-form arithmetic for a free product of cyclic groups.

    Words are tuples of syllables ``(factor, exp)``; adjacent syllables use
    distinct factors.  For a finite factor of order ``o`` the exponent is
    canonical in ``1..o-1``; for an infinite factor (order 0) it is any
    nonzero integer.  Word length charges each syllable its geodesic cost,
    ``min(e, o - e)`` for finite factors.
    """

    def __init__(self, orders):
        self.orders = tuple(orders)
        self.identity = ()
        letters = []   # (factor, delta)
        names = []
        for f, o in enumerate(self.orders):
            g = _CYCLIC_NAMES[f]
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

    def mul_letter_right(self, w, l):
        f, d = self.letters[l]
        if w and w[-1][0] == f:
            e = self._canon(f, w[-1][1] + d)
            if e == 0:
                return w[:-1]
            return w[:-1] + ((f, e),)
        return w + ((f, self._canon(f, d)),)

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
        if not w:
            return "e"
        parts = []
        for f, e in w:
            o = self.orders[f]
            g = _CYCLIC_NAMES[f]
            if o == 0 and e < 0:
                g, e = g.upper(), -e
            elif o and e > o - e:
                g, e = g.upper(), o - e
            parts.append(g if e == 1 else f"{g}{e}")
        return "".join(parts)


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
        if "deg" not in self._caches:
            self._caches["deg"] = (self.nbr >= 0).sum(axis=1).astype(np.int64)
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
        w = eng.identity
        while v != 0:                   # v = parent_letter[v] * parent[v]
            w = eng.mul_letter_right(w, int(self.parent_letter[v]))
            v = int(self.parent[v])
        return Element(self.presentation, w)

    def word(self, v):
        if self.presentation is None:
            return f"v{v}"
        return str(self.element(v))

    def word_blocks(self):
        """``(ids, words)`` pairs covering every vertex in id order: ``ids``
        is a slice of at most ``_WORD_BLOCK`` consecutive ids and ``words``
        the list of their ``word(v)``.

        Words are rendered once each; one sphere is kept to build the next.
        """
        if self.presentation is None:
            words = (f"v{v}" for v in range(self.n))
        else:
            words = self._sphere_words()
        for start in range(0, self.n, _WORD_BLOCK):
            stop = min(start + _WORD_BLOCK, self.n)
            yield slice(start, stop), list(
                itertools.islice(words, stop - start))

    def _sphere_words(self):
        # v's word is its leading syllable's head before its parent's word,
        # minus the parent's head when v's letter merges into that syllable;
        # parents are one sphere in, and so are the states they hand on
        _, child, cut, heads, _ = _syllables(self.presentation, self.radius)
        prev, state = ["e"], np.zeros(1, dtype=np.intp)
        yield "e"
        for sphere in self.spheres()[1:]:
            par = self.parent[sphere] - (sphere.start - len(prev))
            pstate, letters = state[par], self.parent_letter[sphere]
            state, cuts = child[pstate, letters], cut[pstate, letters]
            cur = []
            for a in range(0, len(par), _WORD_BLOCK):
                b = a + _WORD_BLOCK
                tails = [prev[p] for p in par[a:b].tolist()]
                for i in np.flatnonzero(cuts[a:b]).tolist():
                    tails[i] = tails[i][cuts[a + i]:]
                chunk = [heads[s] + w
                         for s, w in zip(state[a:b].tolist(), tails)]
                if sphere.stop < self.n:    # the shell's words are never parents
                    cur.extend(chunk)
                yield from chunk
            prev = cur

    def letter_id(self, letter):
        """Accepts a letter id or a one-character generator/inverse name."""
        if isinstance(letter, (int, np.integer)):
            return int(letter)
        eng = self.presentation.engine()
        return eng.letter_names.index(letter)

    # -- edges ---------------------------------------------------------------

    def edges(self):
        """Undirected edge arrays (eu, ev, eletter), eu < ev, sorted by
        (eu, eletter).  The fixed order makes energy sums reproducible."""
        if "edges" not in self._caches:
            L = self.n_letters
            u = np.repeat(np.arange(self.n, dtype=np.int64), L)
            l = np.tile(np.arange(L, dtype=np.int8), self.n)
            v = self.nbr.ravel().astype(np.int64)
            keep = (v >= 0) & (u < v)
            self._caches["edges"] = (u[keep], v[keep], l[keep])
        return self._caches["edges"]

    def n_edges(self):
        return len(self.edges()[0])

    def csr_adjacency(self):
        """The adjacency matrix in CSR form, each row's columns ascending;
        built on every call, since no command keeps it."""
        from scipy.sparse import coo_matrix

        eu, ev, _ = self.edges()
        data = np.ones(2 * len(eu))
        rows = np.concatenate([eu, ev])
        cols = np.concatenate([ev, eu])
        a = coo_matrix((data, (rows, cols)), shape=(self.n, self.n))
        return a.tocsr()

    def component_labels(self, edge_keep):
        """Connected-component label per vertex of the graph on the edges
        of ``edges()`` selected by the boolean mask ``edge_keep``: the
        smallest vertex id of its component.

        Every vertex gets a label; one left without kept edges is its own
        component.  Hook and shortcut (Shiloach and Vishkin, J. Algorithms
        3, 1982): each round hooks the larger label of every edge whose
        ends still differ onto the smaller one, then jumps pointers until
        every label is a root.  Labels only point to smaller ids, so no
        cycle forms, and each round lowers some label, so the rounds end.
        """
        eu, ev, _ = self.edges()
        u, v = eu[edge_keep], ev[edge_keep]
        labels = np.arange(self.n)
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
            if p is not None and p.kind == "free_product_cyclic":
                letters = p.engine().letters    # each to its factor's first
                first = np.array([letters.index((f, 1)) for f, _ in letters])
                cyclic = np.array([p.orders[f] >= 3 for f, _ in letters])
            lead = first[self.parent_letter]
            anchor = self.parent.astype(np.int32)
            for sl in self.spheres()[2:]:           # sphere 1 hangs off e
                par = self.parent[sl]
                same = (lead[par] == lead[sl]) & cyclic[lead[sl]]
                anchor[sl] = np.where(same, anchor[par], par)
            # a cycle is numbered by its member s * anchor, an edge by its
            # far end
            block = np.where(cyclic[lead], self.nbr[anchor, lead],
                             np.arange(self.n)).astype(np.int32)
            block[0] = -1
            self._caches["blocks"] = (anchor, block, cyclic)
        return self._caches["blocks"]

    # -- the right action ----------------------------------------------------

    def right_mult_table(self, letter):
        """int32 id table for v -> v * letter, -1 where the product leaves
        the ball.  Built once per letter by walking spheres outward."""
        letter = self.letter_id(letter)
        key = ("rmul", letter)
        if key not in self._caches:
            assert self.n < 2 ** 31
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
        holds a single chain e, w, l * w, ...: at most one map per letter of
        the longest element, plus e's.  A map is built once, and a caller
        that drops each map before asking for the next holds no other.
        """
        assert self.n < 2 ** 31
        words = [tuple(reversed(g.letters())) for g in elements]
        stack = [((), np.arange(self.n, dtype=np.int32))]
        for i in sorted(range(len(words)), key=words.__getitem__):
            word = words[i]
            while word[:len(stack[-1][0])] != stack[-1][0]:
                stack.pop()
            for k in range(len(stack[-1][0]), len(word)):
                rest = stack[-1][1]
                table = self.right_mult_table(word[k])
                stack.append((word[:k + 1],
                              np.where(table >= 0, rest[table], -1)))
            yield i, stack[-1][1]

    def left_translates(self, ids, r):
        """``w * v`` for each id v (one row each) and each element w != e of
        length <= r (one column each, in id order), -1 where the chase
        leaves the ball.

        The chase runs through the adjacency tables innermost letter first:
        w * v = l * (w' * v) for w = l * w' with w' the parent of w, so each
        sphere of w's is one gather from the sphere before.
        """
        ball = self
        if r > self.radius:
            key = ("ball", r)
            if key not in self._caches:
                self._caches[key] = build_truncation(self.presentation, r)
            ball = self._caches[key]
        spheres = ball.spheres()[:max(r, 0) + 1]
        out = np.empty((spheres[-1].stop, len(ids)), dtype=np.int64)
        out[0] = ids
        for sl in spheres[1:]:
            prev = out[ball.parent[sl]]
            cur = self.nbr[prev, ball.parent_letter[sl, None]]
            cur[prev < 0] = -1
            out[sl] = cur
        return out[1:].T

    def word_ball(self, center_ids, r):
        """Ids of the exact word-metric ball of radius r around a vertex
        set, clipped to the truncation: balls around x are left translates
        {w * x : |w| <= r}."""
        centers = np.atleast_1d(np.asarray(center_ids, dtype=np.int64))
        near = self.left_translates(centers, r)
        return np.unique(np.concatenate([centers, near[near >= 0]]))

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
            nxt = self.nbr[frontier].ravel()
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

# Tables of the layout and the word renderer.  A vertex's state is the
# leading syllable of its normal form (state 0: the identity), and for a
# vertex v of state s and a letter l, tree[s, l] says whether l * v is v's
# child, child[s, l] is that child's state and cut[s, l] how many leading
# characters of v's word the child's word drops; heads[s] renders s.
_Syllables = namedtuple("_Syllables", "tree child cut heads closing")


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
    tree, child, cut, merged = [], [], [], set()
    for s, x in enumerate(words):               # grows while walked
        tree.append([False] * L)
        child.append([0] * L)
        cut.append([0] * L)
        for l in range(L):
            y = eng.mul_letter_left(l, x)
            head = y[:1]
            if (eng.length(y) != eng.length(x) + 1
                    or eng.length(head) > radius or y in merged):
                continue
            if len(y) == 1:                     # l joins x's syllable (or e's)
                merged.add(y)
                cut[s][l] = len(eng.render(x))
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
    return _Syllables(np.array(tree, dtype=bool), child, np.array(cut),
                      [eng.render(w) for w in words], closing)


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
    syl = _syllables(p, radius)
    L = p.engine().n_letters
    inverse = np.array([p.engine().inverse_letter(l) for l in range(L)],
                       dtype=np.int8)

    # sphere sizes up front, so arrays are allocated once; floats cannot wrap
    moves = np.zeros((len(syl.heads),) * 2)
    np.add.at(moves, (np.nonzero(syl.tree)[0], syl.child[syl.tree]), 1)
    sizes = [int(np.linalg.matrix_power(moves, k)[0].sum())
             for k in range(radius + 1)]
    starts = np.cumsum([0] + sizes)
    n = int(starts[-1])

    nbr = np.full((n, L), -1, dtype=np.int64)
    dist = np.repeat(np.arange(radius + 1, dtype=np.int32), sizes)
    parent = np.full(n, -1, dtype=np.int64)
    parent_letter = np.zeros(n, dtype=np.int8)
    fanout = syl.tree.sum(axis=1)
    letter_grid = np.arange(L, dtype=np.int8)
    state = np.zeros(1, dtype=syl.child.dtype)  # the previous sphere's
    for k in range(1, radius + 1):
        lo, hi, end = starts[k - 1:k + 2]
        grows = syl.tree[state]                 # children in (parent, letter)
        par = np.repeat(np.arange(lo, hi), fanout[state])
        letters = np.broadcast_to(letter_grid, grows.shape)[grows]
        nbr[lo:hi][grows] = np.arange(hi, end)
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
    nbr = np.full((n, 2), -1, dtype=np.int64)
    nbr[:-1, 0] = np.arange(1, n)
    nbr[1:, 1] = np.arange(0, n - 1)
    dist = np.arange(n, dtype=np.int32)
    parent = np.arange(-1, n - 1, dtype=np.int64)
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
