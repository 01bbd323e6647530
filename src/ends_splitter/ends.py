"""Ends at truncation scale: complement components, end classes and
clusters.

A complement component is "unbounded" exactly when it touches the shell,
the only finite certificate of escaping to infinity.  Ball-shaped removed
sets follow the interior convention: the complement of a radius-r ball
removes the closed ball of radius r - 1, which is the discrete reading of
removing the open ball.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import EndsSplitterError, MismatchedTruncations, ScenarioError
from .groups import join_labels


@dataclass
class ComplementComponent:
    members: np.ndarray
    unbounded: bool
    id: int = 0

    @property
    def size(self):
        return len(self.members)


def complement_components(t, removed):
    """Connected components of the truncation minus ``removed``.

    Deterministic: components are ordered by smallest member id, and each
    one's members are ascending int32 ids.  The removed set is taken
    literally; callers that mean the complement of a radius-r ball pass the
    ball of radius r - 1.
    """
    removed_mask = np.zeros(t.n, dtype=bool)
    removed_mask[np.asarray(removed, dtype=np.int64)] = True
    labels = complement_labels(t, removed_mask)

    alive = np.flatnonzero(~removed_mask).astype(np.int32)
    by_label = alive[np.argsort(labels[alive], kind="stable")]
    bounds = np.flatnonzero(np.diff(labels[by_label])) + 1
    # a label is its component's smallest id, so groups come in that order
    groups = np.split(by_label, bounds) if len(alive) else []
    return [
        ComplementComponent(members=members,
                            unbounded=bool(t.shell_mask[members].any()), id=i)
        for i, members in enumerate(groups)
    ]


def complement_labels(t, removed_mask):
    """Per kept vertex, the smallest id of its component in the truncation
    minus ``removed_mask``, as int32, read off the tree of blocks: a kept
    vertex takes its parent's label unless the parent is removed (one pass
    outward; a parent's id is the smaller), and the kept edges off that
    tree, which only cycles of factors of order >= 3 have, join labels."""
    labels = np.arange(t.n, dtype=np.int32)
    for sl in t.spheres()[1:]:
        par = t.parent[sl]
        labels[sl] = np.where(removed_mask[par], labels[sl], labels[par])

    letters = t.cycle_letters()
    if not letters:
        return labels
    w, ids = t.nbr[:, letters], np.arange(t.n, dtype=np.int32)[:, None]
    # each cycle edge once, from its smaller end
    off = (w > ids) & (t.parent[w] != ids)
    off &= ~removed_mask[ids] & ~removed_mask[w]
    return join_labels(labels, np.nonzero(off)[0], w[off])


@dataclass
class EndClass:
    """An unbounded component of the complement of a ball around the
    identity, standing in for a clopen set of ends."""

    id: int
    base_radius: int
    table: np.ndarray = field(repr=False)    # each vertex's end class
    size: int
    unbounded: bool
    representative_word: str

    @property
    def members(self):
        """The class's vertex ids, ascending, as int32."""
        return np.flatnonzero(self.table == self.id).astype(np.int32)

    def summary(self):
        return {"id": self.id, "base_radius": self.base_radius,
                "representative_vertex_word": self.representative_word,
                "size": self.size, "unbounded": self.unbounded}


def end_classes(t, r):
    """End classes at base radius r, by smallest member: the components of
    the vertex set at distance >= r.  Each reaches the shell, since every
    vertex has a neighbour one step further out.  They share one table,
    each vertex's class in the narrowest signed dtype, -1 inside B_{r-1}.
    """
    if not (1 <= r < t.radius):
        raise ValueError(f"need 1 <= r < truncation radius, got r={r}")
    base = t.spheres()[r]
    labels = complement_labels(t, t.dist < r)[base.start:] - base.start
    # a label is its component's smallest id, which lies on the base sphere
    root = labels[:base.stop - base.start] == np.arange(base.stop - base.start)
    table = np.full(t.n, -1, dtype=np.min_scalar_type(-int(root.sum())))
    outside = table[base.start:]
    np.take((np.cumsum(root) - 1).astype(table.dtype), labels, out=outside,
            mode="clip")
    sizes = np.bincount(outside)
    reach = np.bincount(outside[t.shell_mask[base.start:]],
                        minlength=len(sizes))
    return [EndClass(id=i, base_radius=r, table=table, size=int(sizes[i]),
                     unbounded=bool(reach[i]),
                     representative_word=t.word(base.start + v))
            for i, v in enumerate(np.flatnonzero(root).tolist())]


@dataclass
class EndFunction:
    """A {0,1} assignment on the end classes at one base radius."""

    base_radius: int
    classes: list
    values: dict                     # class id -> 0/1

    def __post_init__(self):
        ids = {c.id for c in self.classes}
        if set(self.values) != ids:
            raise EndsSplitterError("end function must be total on end classes")
        for v in self.values.values():
            if v not in (0, 1):
                raise EndsSplitterError("end function values must be 0 or 1")

    @property
    def nonconstant(self):
        return set(self.values.values()) == {0, 1}

    def require_nonconstant(self):
        if not self.nonconstant:
            raise ScenarioError("chi must be nonconstant")

    def class_table(self, t):
        """The classes' table, MismatchedTruncations unless of t's ball."""
        table = self.classes[0].table
        if len(table) != t.n:
            raise MismatchedTruncations("end function of another ball")
        return table

    def shell_values(self, t):
        """Per vertex of ``t``, the value of its end class as int8, -1 off
        the classes."""
        table = self.class_table(t)
        value = np.full(int(table.max()) + 2, -1, dtype=np.int8)  # -1 last
        value[list(self.values)] = list(self.values.values())
        return value[table]

    def assignments_by_word(self):
        return {c.representative_word: int(self.values[c.id])
                for c in self.classes}


def make_end_function(t, r, values_by_word=None, rule=None, default=None):
    """Build an EndFunction from explicit per-class values or a named rule.

    ``values_by_word`` keys are representative vertex words; ``rule``
    supports ``first_letter:<generator>``, for a generator or inverse
    letter of the presentation.
    """
    if rule is not None and not rule.startswith("first_letter:"):
        raise ScenarioError(f"unknown chi rule {rule!r}")
    classes = end_classes(t, r)
    values = {}
    if rule is not None:
        gen = rule.split(":", 1)[1]
        names = t.presentation.engine().letter_names if t.presentation else []
        if gen not in names:
            raise ScenarioError(f"chi rule {rule!r} names none of {names}")
        for c in classes:
            values[c.id] = 1 if c.representative_word.startswith(gen) else 0
    else:
        by_word = {w: _zero_or_one(v, f"chi value for {w!r}")
                   for w, v in (values_by_word or {}).items()}
        if default is not None:
            default = _zero_or_one(default, "chi default")
        for c in classes:
            if c.representative_word in by_word:
                values[c.id] = by_word.pop(c.representative_word)
            elif default is not None:
                values[c.id] = default
            else:
                raise ScenarioError(
                    f"no value for end class {c.representative_word!r} "
                    "and no default given"
                )
        if by_word:
            raise ScenarioError(
                f"chi names unknown end classes: {sorted(by_word)}"
            )
    return EndFunction(base_radius=r, classes=classes, values=values)


def _zero_or_one(value, what):
    # bools and floats such as 0.7 are refused rather than truncated by int()
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value in (0, 1)):
        return int(value)
    raise ScenarioError(f"{what} must be the integer 0 or 1, got {value!r}")


def all_nonconstant_end_functions(t, r, limit=2 ** 16):
    """Every nonconstant {0,1} assignment at base radius r."""
    classes = end_classes(t, r)
    k = len(classes)
    if 2 ** k - 2 > limit:
        raise EndsSplitterError(
            f"{2 ** k - 2} assignments at base radius {r} exceed the "
            f"enumeration limit {limit}"
        )
    out = []
    for bits in itertools.product((0, 1), repeat=k):
        if len(set(bits)) < 2:
            continue
        values = {c.id: bits[i] for i, c in enumerate(classes)}
        out.append(EndFunction(base_radius=r, classes=classes, values=values))
    return out
