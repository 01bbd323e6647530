"""Reference results computed apart from the package.

Nothing here imports ``ends_splitter``.  Each reference follows from the
symmetry of a benchmark scenario and is computed with plain integer
arithmetic or a small dense numpy solve; ``test_perfbench.py`` checks each
one against a brute-force computation at small radius.
"""

import itertools

import numpy as np

FREE_LETTERS = "aAbB"          # rank-2 letter order: a, a^-1, b, b^-1


def free_ball_size(rank, radius):
    """Number of reduced words of length <= radius in the free group."""
    if radius < 0:
        return 0
    n_letters = 2 * rank
    return 1 + sum(n_letters * (n_letters - 1) ** (k - 1)
                   for k in range(1, radius + 1))


def z3z_ball_size(radius):
    """Number of elements of length <= radius in Z/3 * Z = <s> * <t>.

    Normal forms alternate syllables.  An s-syllable is s or s^-1 (length
    1); a t-syllable is t^k or t^-k (length k).  ``ends_s[n]`` and
    ``ends_t[n]`` count the words of length n whose last syllable is an s-
    or a t-syllable; the empty word may precede either.
    """
    ends_s = [0] * (radius + 1)
    ends_t = [0] * (radius + 1)
    for n in range(1, radius + 1):
        ends_s[n] = 2 * (ends_t[n - 1] + (n == 1))
        ends_t[n] = sum(2 * (ends_s[n - k] + (n == k))
                        for k in range(1, n + 1))
    return 1 + sum(ends_s) + sum(ends_t)


def free_branch_field(rank, radius, branch_values):
    """Harmonic field on a free-group ball whose shell data is constant on
    each branch at the identity.

    ``branch_values[b]`` is the shell value of the branch through the b-th
    letter.  By symmetry the field depends only on the branch and the
    depth, so the mean-value system reduces to one unknown per (branch,
    depth).  Returns ``(levels, energy)`` with ``levels[b, d]`` the value at
    depth d of branch b (``levels[b, 0]`` is the identity's value).
    """
    n_letters = 2 * rank
    branching = n_letters - 1
    if len(branch_values) != n_letters or radius < 2:
        raise ValueError("need one value per letter and radius >= 2")
    inner = radius - 1

    def index(b, d):                       # unknown for depth 1..radius-1
        return 1 + b * inner + (d - 1)

    size = 1 + n_letters * inner
    a = np.zeros((size, size))
    rhs = np.zeros(size)
    a[0, 0] = n_letters
    for b, value in enumerate(branch_values):
        a[0, index(b, 1)] -= 1.0
        for d in range(1, radius):
            row = index(b, d)
            a[row, row] = n_letters
            a[row, 0 if d == 1 else index(b, d - 1)] -= 1.0
            if d + 1 < radius:
                a[row, index(b, d + 1)] -= branching
            else:
                rhs[row] += branching * value
    sol = np.linalg.solve(a, rhs)

    levels = np.empty((n_letters, radius + 1))
    levels[:, 0] = sol[0]
    for b, value in enumerate(branch_values):
        levels[b, 1:radius] = sol[index(b, 1):index(b, radius - 1) + 1]
        levels[b, radius] = value
    edges_per_depth = branching ** np.arange(radius, dtype=np.float64)
    energy = float((edges_per_depth * np.diff(levels, axis=1) ** 2).sum())
    return levels, energy


def f2_levels(assignment, radius):
    """``free_branch_field`` for F2 with the assignment given as a map from
    the letters ``a, A, b, B`` to 0/1."""
    return free_branch_field(2, radius,
                             [assignment[l] for l in FREE_LETTERS])


def nonconstant_assignments(classes):
    """Every nonconstant 0/1 map on the given end-class names."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(classes)):
        if len(set(bits)) == 2:
            out.append(dict(zip(classes, bits)))
    return out


def z3z_end_class(word):
    """End class at base radius 1 of a rendered Z/3 * Z word.

    Letters act on the left, so the branch at the identity is the word's
    last syllable: ``s``/``S`` share the order-3 triangle, while ``t`` and
    ``T`` are the two directions of the infinite factor.
    """
    last = [ch for ch in word if ch.isalpha()][-1]
    return "s" if last in "sS" else last


def z3z_neck_class(word, assignment):
    """Class of the neck of radius 1 at a center in the trusted window.

    Removing a vertex x of the Cayley graph of Z/3 * Z leaves three
    unbounded components: two beyond x, inside x's own end class, and one
    through the identity.  At the identity the three are the end classes,
    so nonconstant data makes it special of type 1.  Elsewhere the side of
    the identity sees every end class, so x is regular with the value of
    its own class; only at t and T does that side miss x's class, and it is
    a cluster of the other value when the two remaining classes agree.
    """
    if word == "e":
        return "special_type_1"
    own_class = z3z_end_class(word)
    own = assignment[own_class]
    others = {v for c, v in assignment.items() if c != own_class}
    if word in ("t", "T") and others == {1 - own}:
        return "special_type_1"
    return f"regular_{own}"
