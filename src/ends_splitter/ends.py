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

from .errors import EndsSplitterError, ScenarioError


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

    Deterministic: components are ordered by smallest member id.  The
    removed set is taken literally; callers that mean the complement of a
    radius-r ball pass the ball of radius r - 1.
    """
    removed = np.asarray(removed, dtype=np.int64)
    removed_mask = np.zeros(t.n, dtype=bool)
    removed_mask[removed] = True
    eu, ev, _ = t.edges()
    labels = t.component_labels(~(removed_mask[eu] | removed_mask[ev]))

    alive = np.flatnonzero(~removed_mask)
    by_label = alive[np.argsort(labels[alive], kind="stable")]
    bounds = np.flatnonzero(np.diff(labels[by_label])) + 1
    # a label is its component's smallest id, so groups come in that order
    groups = np.split(by_label, bounds) if len(alive) else []
    return [
        ComplementComponent(members=members,
                            unbounded=bool(t.shell_mask[members].any()), id=i)
        for i, members in enumerate(groups)
    ]


@dataclass
class EndClass:
    """An unbounded component of the complement of a ball around the
    identity, standing in for a clopen set of ends."""

    id: int
    base_radius: int
    component: ComplementComponent
    representative_word: str

    @property
    def members(self):
        return self.component.members

    def summary(self):
        return {
            "id": self.id,
            "base_radius": self.base_radius,
            "representative_vertex_word": self.representative_word,
            "size": int(self.component.size),
            "unbounded": bool(self.component.unbounded),
        }


def end_classes(t, r):
    """End classes at base radius r: unbounded components of the complement
    of B_r(identity), i.e. of the vertex set at distance >= r."""
    if not (1 <= r < t.radius):
        raise ValueError(f"need 1 <= r < truncation radius, got r={r}")
    removed = np.flatnonzero(t.dist <= r - 1)
    comps = complement_components(t, removed)
    unbounded = [c for c in comps if c.unbounded]
    if not unbounded:
        raise EndsSplitterError(
            f"no unbounded complement component at base radius {r}; "
            "the truncation is too small"
        )
    classes = []
    for c in unbounded:
        rep = t.word(int(c.members[0]))
        classes.append(EndClass(
            id=len(classes), base_radius=r, component=c,
            representative_word=rep,
        ))
    return classes


@dataclass
class EndFunction:
    """A {0,1} assignment on the end classes at one base radius."""

    base_radius: int
    classes: list
    values: dict                     # class id -> 0/1
    _caches: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        ids = {c.id for c in self.classes}
        if set(self.values) != ids:
            raise EndsSplitterError("end function must be total on end classes")
        for v in self.values.values():
            if v not in (0, 1):
                raise EndsSplitterError("end function values must be 0 or 1")

    @property
    def nonconstant(self):
        vals = set(self.values.values())
        return vals == {0, 1}

    def require_nonconstant(self):
        if not self.nonconstant:
            raise EndsSplitterError("chi must be nonconstant")

    def class_of_vertex(self, t):
        """Vertex -> end class id (-1 off the classes), cached."""
        if "class_of" not in self._caches:
            table = np.full(t.n, -1, dtype=np.int64)
            for c in self.classes:
                table[c.members] = c.id
            self._caches["class_of"] = table
        return self._caches["class_of"]

    def shell_values(self, t):
        """Values transported to shell vertices through their end class."""
        key = "shell_values"
        if key not in self._caches:
            vals = np.full(t.n, -1, dtype=np.int8)
            for c in self.classes:
                vals[c.members] = self.values[c.id]
            self._caches[key] = vals
        return self._caches[key]

    def assignments_by_word(self):
        return {c.representative_word: int(self.values[c.id])
                for c in self.classes}


def make_end_function(t, r, values_by_word=None, rule=None, default=None):
    """Build an EndFunction from explicit per-class values or a named rule.

    ``values_by_word`` keys are representative vertex words; ``rule``
    supports ``first_letter:<generator>``, for a generator or inverse
    letter of the presentation.
    """
    classes = end_classes(t, r)
    values = {}
    if rule is not None:
        if not rule.startswith("first_letter:"):
            raise EndsSplitterError(f"unknown chi rule {rule!r}")
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
                raise EndsSplitterError(
                    f"no value for end class {c.representative_word!r} "
                    "and no default given"
                )
        if by_word:
            raise EndsSplitterError(
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


def is_cluster(t, chi, component):
    """theta if every end class reaching the shell through the component
    carries chi-value theta; None when the component sees both values.

    The shell trace is the refined end set of the component, so nested or
    partially overlapping end classes are handled uniformly.
    """
    if not component.unbounded:
        raise EndsSplitterError("cluster verdicts are defined for unbounded "
                                "components only")
    vals = chi.shell_values(t)
    trace = component.members[t.shell_mask[component.members]]
    seen = np.unique(vals[trace])
    seen = seen[seen >= 0]
    if len(seen) == 1:
        return int(seen[0])
    return None

