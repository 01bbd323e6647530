import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ends_splitter import groups, harmonic
from ends_splitter.errors import MismatchedTruncations, NonConvergence
from ends_splitter.ends import (
    all_nonconstant_end_functions,
    complement_components,
    make_end_function,
)
from ends_splitter.groups import (
    Presentation,
    Truncation,
    build_truncation,
    group_ball,
    path_truncation,
)
from ends_splitter.harmonic import (
    HarmonicField,
    PartialField,
    SolverConfig,
    decay_profile,
    energy,
    energy_form,
    field_difference,
    lattice_ops,
    pullback,
    solve_dirichlet,
    spectral_gap,
)

import oracles
from oracles import dirichlet_lambda1_radial_free
from test_groups import _LAYOUT_CASES


def synthetic_field(t, values):
    return HarmonicField(truncation=t, values=np.asarray(values, dtype=float),
                         boundary_spec=None, residual=0.0, iterations=0)


# -- the Dirichlet solver --------------------------------------------------------

def test_constant_chi_solves_to_constant(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, values_by_word={}, default=1)
    h = solve_dirichlet(t_f2_r6, chi)
    assert np.abs(h.values - 1.0).max() <= 1e-8
    assert energy(h).total <= 1e-15


def test_symmetry_pins_identity_to_one_quarter(h_first_letter_r8):
    assert abs(h_first_letter_r8.values[0] - 0.25) <= 1e-7


def test_interior_strictly_inside_open_interval(h_first_letter_r8):
    lo, hi = h_first_letter_r8.interior_range()
    assert 0.0 < lo and hi < 1.0


def test_mean_value_defect_via_plain_python(t_f2_r4):
    chi = make_end_function(t_f2_r4, 1, rule="first_letter:a")
    h = solve_dirichlet(t_f2_r4, chi)
    adj = oracles.adjacency_dict(t_f2_r4)
    worst = 0.0
    for v in range(t_f2_r4.n):
        if t_f2_r4.shell_mask[v]:
            continue
        m = sum(h.values[w] for w in adj[v]) / len(adj[v])
        worst = max(worst, abs(h.values[v] - m))
    assert worst <= 1e-9


def test_gauss_seidel_matches_dense_oracle(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    bvals = np.where(chi.shell_values(t_f2_r6) > 0, 1.0, 0.0)
    exact = oracles.dense_dirichlet(t_f2_r6, bvals)
    h = solve_dirichlet(t_f2_r6, chi, SolverConfig())
    assert np.abs(h.values - exact).max() <= 1e-6


def _vertex_order(t, x):
    """The values of x, kept in the solver's sweep layout, by vertex id."""
    return x.take(harmonic._quotient(t, 1).cls[:-1])


def test_solve_computes_each_defect_once(t_f2_r6, monkeypatch):
    # the defect is checked every fourth sweep and after the last one;
    # the check that ends the loop gives the reported residual, and each
    # check is the full mean-value defect of the swept values
    calls = []
    defect = harmonic._sweep_defect

    def counted(x, head, rows):
        calls.append(defect(x, head, rows))
        assert calls[-1] == oracles.mean_value_defect(
            t_f2_r6, _vertex_order(t_f2_r6, x))
        return calls[-1]

    monkeypatch.setattr(harmonic, "_sweep_defect", counted)
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    h = solve_dirichlet(t_f2_r6, chi)
    assert h.iterations % 4 == 0
    assert len(calls) == h.iterations // 4
    assert h.residual == calls[-1]
    calls.clear()
    with pytest.raises(NonConvergence) as err:
        solve_dirichlet(t_f2_r6, chi,
                        SolverConfig(max_iterations=6, tolerance=1e-14))
    assert len(calls) == 2                      # after sweeps 4 and 6
    assert err.value.residual == calls[-1]


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_sweep_defect_is_the_full_defect(case):
    # for any x whose last color was just updated: random values put the
    # largest defect in a middle color too, which converging solves do not;
    # the partition is stable, so each class's defect is each member's
    t = build_truncation(*_LAYOUT_CASES[case])
    quotient = harmonic._quotient(t, 1)
    rows = quotient.rows
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = np.append(rng.random(quotient.shell.stop), 0.0)  # and zero cell
        rows[-1].update(x, out=x[rows[-1].cells])
        assert harmonic._sweep_defect(x, rows[0].update(x), rows) == \
            oracles.mean_value_defect(t, _vertex_order(t, x))


@pytest.mark.parametrize("max_iterations, tolerance", [
    (10 ** 6, 1e-9), (1, 1e-14), (6, 1e-14)])
@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_solve_matches_the_full_defect_loop(case, max_iterations, tolerance):
    # values, sweep count and residual are bit for bit those of the loop
    # that evaluates every class at each check
    t = build_truncation(*_LAYOUT_CASES[case])
    name = t.presentation.engine().letter_names[0]
    chi = make_end_function(t, 1, rule=f"first_letter:{name}")
    cfg = SolverConfig(tolerance=tolerance, max_iterations=max_iterations)
    values, iterations, residual = oracles.gauss_seidel_loop(t, chi, cfg)
    if residual <= tolerance:
        h = solve_dirichlet(t, chi, cfg)
        assert h.values.view(np.uint64).tolist() == \
            values.view(np.uint64).tolist()
        assert (h.iterations, h.residual) == (iterations, residual)
    else:
        with pytest.raises(NonConvergence) as err:
            solve_dirichlet(t, chi, cfg)
        assert (err.value.iterations, err.value.residual) == \
            (iterations, residual)


@pytest.mark.parametrize("make", [
    *[lambda case=case: build_truncation(*_LAYOUT_CASES[case])
      for case in sorted(_LAYOUT_CASES)],
    *[lambda k=k: path_truncation(k) for k in (1, 2, 5, 20)],
], ids=[*sorted(_LAYOUT_CASES), "path1", "path2", "path5", "path20"])
def test_sweep_classes_match_the_coloring_oracle(make):
    t = make()
    color = harmonic._colors(t)
    assert color.dtype == np.int8 and (color[t.shell_mask] == -1).all()
    ours = [np.flatnonzero(color == c).tolist()
            for c in groups.unique_sorted(color[color >= 0])]
    theirs = [c.tolist() for c in oracles.color_classes(t) if len(c)]
    assert ours == theirs
    assert all(ours)
    # the solver's layout: built once per base radius; the classes of each
    # color take the cells after the color before, then come the shell's
    # classes, then the zero cell
    quotient = harmonic._quotient(t, 1)
    assert quotient is harmonic._quotient(t, 1)
    cls, zero = quotient.cls[:-1], quotient.shell.stop
    assert quotient.cls.dtype == np.int32 and quotient.cls[-1] == zero
    bounds = [r.cells.start for r in quotient.rows] + [quotient.shell.start]
    assert bounds[0] == 0
    for ids, a, b in zip(ours, bounds[:-1], bounds[1:], strict=True):
        assert groups.unique_sorted(cls[ids]).tolist() == list(range(a, b))
    assert groups.unique_sorted(cls[t.shell_mask]).tolist() == \
        list(range(quotient.shell.start, zero))
    assert t.shell_mask[quotient.shell_ids].all()
    assert cls[quotient.shell_ids].tolist() == list(range(bounds[-1], zero))
    # each color's table reads, column by column, the adjacency row of
    # every member of each class, so its sums run in the same order; a
    # missing neighbour reads the zero cell ahead of the row
    adj = t.csr_adjacency()
    for r, ids in zip(quotient.rows, ours, strict=True):
        assert r.cols.dtype == np.intp
        assert r.cols.shape == (t.n_letters, r.cells.stop - r.cells.start)
        sub = adj[ids]
        for i, v in enumerate(ids):
            cols = sub.indices[sub.indptr[i]:sub.indptr[i + 1]].tolist()
            k = cls[v] - r.cells.start
            assert r.cols[:, k].tolist() == \
                [zero] * (t.n_letters - len(cols)) + cls[cols].tolist()
            assert r.deg[k] == len(cols)


def _seeded_chi(t, base_radius, seed):
    """A nonconstant end function at ``base_radius`` with seeded values."""
    from ends_splitter.ends import end_classes
    words = [c.representative_word for c in end_classes(t, base_radius)]
    bits = np.random.default_rng(seed).integers(0, 2, len(words))
    bits[:2] = 1, 0
    return make_end_function(t, base_radius,
                             values_by_word=dict(zip(words, bits.tolist())))


_QUOTIENT_CASES = [(case, base) for case in sorted(_LAYOUT_CASES)
                   for base in (1, 2, 3)]


# the layout cases whose balls are trees, where the seed classes are
# stable at base radius 1
_TREE_CASES = {"F2-r6", "F3-r4", "Z*Z-r5", "Z2*Z2*Z2-r6"}


@pytest.mark.parametrize("case, base", _QUOTIENT_CASES,
                         ids=[f"{c}-base{b}" for c, b in _QUOTIENT_CASES])
def test_partition_is_stable_on_its_first_check(case, base, monkeypatch):
    # the first pass that splits nothing is the check that ends the build;
    # it comes within three passes, and first of all on a tree at base
    # radius 1
    passes = []
    refine = harmonic._refine

    def counted(t, cls, counts, order):
        passes.append(refine(t, cls, counts, order))
        return passes[-1]

    monkeypatch.setattr(harmonic, "_refine", counted)
    t = build_truncation(*_LAYOUT_CASES[case])
    quotient = harmonic._quotient(t, base)
    assert passes[-1] is False and all(passes[:-1])
    assert len(passes) <= (1 if case in _TREE_CASES and base == 1 else 3)
    assert oracles.quotient_instabilities(
        t, quotient.cls[:-1], base) == []


@pytest.mark.parametrize("case, base", _QUOTIENT_CASES,
                         ids=[f"{c}-base{b}" for c, b in _QUOTIENT_CASES])
def test_splitting_the_seeds_reaches_the_same_partition(case, base):
    # per-vertex Jacobi rounds from the seed classes end at the quotient's
    # partition, class for class: the coarsest stable one
    t = build_truncation(*_LAYOUT_CASES[case])
    theirs = oracles.coarsest_stable_partition(t, base)
    ours = harmonic._quotient(t, base).cls[:-1].tolist()
    assert max(theirs) == max(ours)
    assert len(set(zip(theirs, ours))) == max(ours) + 1


@pytest.mark.parametrize("case, base", _QUOTIENT_CASES,
                         ids=[f"{c}-base{b}" for c, b in _QUOTIENT_CASES])
def test_quotient_solve_is_the_full_ball_sweep(case, base):
    # values, sweep count and residual bit for bit, and the same sweep
    # count and residual where the solve stops short; the oracle runs on a
    # ball of its own, so nothing the solver leaves behind can reach it
    p, radius = _LAYOUT_CASES[case]
    mine, theirs = build_truncation(p, radius), build_truncation(p, radius)
    for seed in (0, 1):
        for cfg in (SolverConfig(), SolverConfig(max_iterations=6,
                                                 tolerance=1e-14)):
            chi = _seeded_chi(mine, base, seed)
            try:
                values, iterations, residual = oracles.full_ball_solve(
                    theirs, _seeded_chi(theirs, base, seed), cfg)
            except NonConvergence as err:
                with pytest.raises(NonConvergence) as ours:
                    solve_dirichlet(mine, chi, cfg)
                assert (ours.value.iterations, ours.value.residual) == \
                    (err.iterations, err.residual)
            else:
                h = solve_dirichlet(mine, chi, cfg)
                assert h.values.view(np.uint64).tolist() == \
                    values.view(np.uint64).tolist()
                assert (h.iterations, h.residual) == (iterations, residual)


def test_solve_keeps_only_the_class_map_of_ball_length(f2):
    # the truncation's tables are untouched, and of what the solve leaves
    # in its caches only the int32 class map has one entry per vertex
    t = build_truncation(f2, 7)
    tables = {name: getattr(t, name).copy() for name in
              ("nbr", "dist", "parent", "parent_letter", "shell_mask")}
    solve_dirichlet(t, make_end_function(t, 2, rule="first_letter:a"))
    for name, table in tables.items():
        assert np.array_equal(getattr(t, name), table), name
    assert set(t._caches) == {"spheres", ("quotient", 2)}
    quotient = t._caches[("quotient", 2)]
    held = [*vars(quotient).values(),
            *(v for r in quotient.rows for v in vars(r).values())]
    big = [a for a in held if isinstance(a, np.ndarray) and a.size >= t.n]
    assert len(big) == 1 and big[0] is quotient.cls
    assert quotient.cls.dtype == np.int32


@pytest.mark.parametrize("group, word, radii, energy_at", [
    # F2, one of four branches: 1/2 + 1/(2 * 3^r - 2)
    ("free", "a", range(4, 11), lambda r: 0.5 + 1 / (2 * 3 ** r - 2)),
    # Z/2 * Z/3, the s branch: 1/5 + 1/(5 * 2^(r/2) - 5), r even
    ("z2z3", "s", range(8, 19, 2), lambda r: 0.2 + 1 / (5 * 2 ** (r // 2) - 5)),
])
def test_energies_fall_to_their_closed_forms(group, word, radii, energy_at):
    # the solution at radius r, extended constant along each cone, is
    # admissible at radius r + 1 with the same energy, so the minimal
    # energy E_r cannot rise with r; here it falls strictly, and matches
    # the closed form of each radius
    p = (Presentation.free(2) if group == "free"
         else Presentation.free_product_of_cyclics([2, 3]))
    energies = []
    for r in radii:
        t = build_truncation(p, r)
        chi = make_end_function(t, 1, values_by_word={word: 1}, default=0)
        energies.append(energy(solve_dirichlet(t, chi)).total)
        assert abs(energies[-1] - energy_at(r)) <= 1e-12, r
    assert all(b < a for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("p, word, radii", [
    (Presentation.free_product_of_cyclics([3, 0]), "s", range(3, 12)),
    (Presentation.free(3), "a", range(3, 8)),
    (Presentation.free_product_of_cyclics([4, 5]), "s", range(3, 10)),
    (Presentation.free_product_of_cyclics([6, 0, 2]), "s", range(3, 8)),
], ids=["Z3*Z", "F3", "Z4*Z5", "Z6*Z*Z2"])
def test_energies_fall_strictly_without_a_closed_form(p, word, radii):
    # the paper's compactness at finite scale, on presentations with no
    # closed form: E_r falls strictly with r, by steps (3.1e-5 the least)
    # far above the solver's error
    energies = []
    for r in radii:
        t = build_truncation(p, r)
        chi = make_end_function(t, 1, values_by_word={word: 1}, default=0)
        energies.append(energy(solve_dirichlet(t, chi)).total)
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_every_nonconstant_chi_matches_dense_oracle_radius5(f2):
    from ends_splitter.ends import all_nonconstant_end_functions
    t = build_truncation(f2, 5)
    for chi in all_nonconstant_end_functions(t, 1):
        h = solve_dirichlet(t, chi)
        bvals = np.where(chi.shell_values(t) > 0, 1.0, 0.0)
        exact = oracles.dense_dirichlet(t, bvals)
        assert np.abs(h.values - exact).max() <= 1e-6
        assert abs(energy(h).total - oracles.dirichlet_energy(t, exact)) <= 1e-5


def test_nonconvergence_raises_with_residual(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, rule="first_letter:a")
    with pytest.raises(NonConvergence) as exc:
        solve_dirichlet(t_f2_r6, chi,
                        SolverConfig(tolerance=1e-13, max_iterations=2))
    assert exc.value.residual > 1e-13
    assert exc.value.iterations == 2


def test_monotone_boundary_data_gives_monotone_fields(t_f2_r6):
    lo = make_end_function(t_f2_r6, 1, values_by_word={"a": 1}, default=0)
    hi = make_end_function(t_f2_r6, 1, values_by_word={"a": 1, "b": 1},
                           default=0)
    h_lo = solve_dirichlet(t_f2_r6, lo)
    h_hi = solve_dirichlet(t_f2_r6, hi)
    assert (h_hi.values - h_lo.values).min() >= -2e-9


def test_energy_minimality_under_single_vertex_perturbation(t_f2_r4):
    chi = make_end_function(t_f2_r4, 1, rule="first_letter:a")
    h = solve_dirichlet(t_f2_r4, chi)
    base = energy(h).total
    rng = np.random.default_rng(0)
    eps = 10 * 1e-9
    interior = t_f2_r4.interior_ids()
    for v in rng.choice(interior, size=100):
        for sign in (+1, -1):
            vals = h.values.copy()
            vals[v] += sign * eps
            assert oracles.dirichlet_energy(t_f2_r4, vals) > base


def test_gradient_ratio_bounded_by_harnack_constant(h_first_letter_r8):
    # |h(u) - h(v)| / min <= deg - 1 on interior edges, by the mean-value
    # equation with nonnegative neighbors
    t = h_first_letter_r8.truncation
    eu, ev, _ = t.edges()
    keep = t.interior_mask[eu] & t.interior_mask[ev]
    hv = h_first_letter_r8.values
    ratio = np.abs(hv[eu] - hv[ev])[keep] / np.minimum(hv[eu], hv[ev])[keep]
    bound = t.n_letters - 1
    assert ratio.max() <= bound + 1e-9
    # brute-force the bound itself: both endpoints harmonic with
    # nonnegative outer neighbors (y around one endpoint, z around the
    # other) pins the edge values to c = (z + 4y)/15, n = (4z + y)/15
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        y = rng.random(3).sum()
        z = rng.random(3).sum()
        c = (z + 4 * y) / 15
        n = (4 * z + y) / 15
        if min(c, n) > 0:
            worst = max(worst, abs(c - n) / min(c, n))
    assert worst <= bound + 1e-12
    # the extreme configuration attains it
    assert abs((4 / 15 - 1 / 15) / (1 / 15) - bound) <= 1e-12


def test_window_energies_converge_across_radii(f2):
    # energy restricted to the radius-3 window settles as the truncation
    # grows; increments shrink
    energies = []
    for rho in (4, 6, 8, 10):
        t = build_truncation(f2, rho)
        chi = make_end_function(t, 1, rule="first_letter:a")
        h = solve_dirichlet(t, chi)
        window = PartialField(t, h.values, t.dist <= 3)
        energies.append(energy(window).total)
    increments = [abs(b - a) for a, b in zip(energies, energies[1:])]
    assert increments == sorted(increments, reverse=True)
    assert increments[-1] < 1e-3


# -- energies ---------------------------------------------------------------------

def test_energy_of_single_edge():
    t = path_truncation(0)   # two shell vertices joined by one edge... n=2
    f = synthetic_field(t, [0.0, 1.0])
    assert energy(f).total == 1.0


def test_energy_per_region_partitions_total(h_first_letter_r8):
    # on F2 each edge joins two adjacent spheres, so the edges inside
    # dist <= 4 and inside dist >= 4 are all the edges, once each
    t = h_first_letter_r8.truncation
    parts = [energy(PartialField(t, h_first_letter_r8.values, dom)).total
             for dom in (t.dist <= 4, t.dist >= 4)]
    assert sum(parts) == pytest.approx(energy(h_first_letter_r8).total,
                                       abs=1e-12)


def test_full_field_energy_is_the_full_domain_partial_field_energy(
        h_first_letter_r8):
    # a HarmonicField skips the domain mask; the sums are the same, bit
    # for bit, and smaller domains keep the edge table's sums
    h = h_first_letter_r8
    t = h.truncation
    whole = PartialField(truncation=t, values=h.values,
                         domain=np.ones(t.n, dtype=bool))
    assert energy(h).total == energy(whole).total
    for dom in (t.dist <= 4, np.zeros(t.n, dtype=bool)):
        part = PartialField(t, h.values, dom)
        assert energy(part).total == oracles.edge_energy(part)


# numpy's pairwise tree splits a node of more than 128 terms at n // 2
# rounded down to a multiple of 8: lengths up to 20, around 128, around the
# split points of several leaves, and past a million
_SUM_LENGTHS = [*range(21), *range(120, 137), 255, 256, 257, 263, 264, 271,
                272, 999, 1000, 1001, 2047, 2048, 2049, 2056, 16383, 16384,
                16385, 16392, 32767, 32768, 32769, 32776, 65543, 1_000_003]


@pytest.mark.parametrize("leaf", [128, 136, 1000, 1 << 14])
def test_blocked_sum_is_np_sum_bit_for_bit(leaf):
    # terms of wide-ranging magnitudes, so that any other order of
    # additions shows in the bits, cut into chunks of any size
    rng = np.random.default_rng(leaf)
    for n in _SUM_LENGTHS:
        terms = rng.standard_normal(n) * np.exp(rng.uniform(-20, 20, n))
        cuts = np.sort(rng.integers(0, n + 1, size=rng.integers(0, 12)))
        got = harmonic._pairwise_sum(np.split(terms, cuts), n, leaf)
        assert got.hex() == float(terms.sum()).hex(), (n, leaf)


@pytest.mark.parametrize("block", [128, 1 << 14])
@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_streamed_energies_are_the_edge_table_sums(case, block, monkeypatch):
    # row blocks of 128 ids make many blocks and leaves on a small ball
    monkeypatch.setattr(harmonic, "_BLOCK", block)
    p, rho = _LAYOUT_CASES[case]
    t = build_truncation(p, rho)
    rng = np.random.default_rng(7)
    h = solve_dirichlet(t, all_nonconstant_end_functions(t, 1)[0])
    noise = synthetic_field(t, rng.standard_normal(t.n))
    part = PartialField(t, rng.standard_normal(t.n), rng.random(t.n) < 0.8)
    pulled = pullback(h, group_ball(t, 2)[-1])
    # about half the vertices, none (the zero-term sum) and the pullback's
    # domain, each cut to the field's own domain
    domains = [rng.random(t.n) < 0.5, np.zeros(t.n, dtype=bool),
               pulled.domain]
    fields = (h, noise, part, pulled)
    for f in fields:
        assert energy(f).total == oracles.edge_energy(f)
        own = f.domain if isinstance(f, PartialField) else True
        for dom in domains:
            cut = PartialField(t, f.values, dom & own)
            assert energy(cut).total == oracles.edge_energy(cut)
    for u in fields:
        for v in fields:
            assert energy_form(u, v) == oracles.edge_energy_form(u, v)


def test_energies_leave_no_reference_cycle(h_first_letter_r8):
    # numpy arrays do not count towards the collector's thresholds, so a
    # cycle that held a row block would outlive many energy calls
    h = h_first_letter_r8
    part = PartialField(h.truncation, h.values, h.truncation.dist <= 5)
    gc.collect()
    gc.disable()
    try:
        energy(h)
        energy(part)
        energy_form(h, part)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_forms_on_every_vertex_build_no_edge_table(f2):
    # a common domain of every vertex keeps every edge, so the form
    # streams from the rows as a HarmonicField's energy does
    t = build_truncation(f2, 6)
    h = solve_dirichlet(t, make_end_function(t, 1, rule="first_letter:a"))
    whole = PartialField(t, 1 - h.values, np.ones(t.n, dtype=bool))
    for u, v in ((h, h), (h, whole), (whole, whole)):
        energy_form(u, v)
    assert "edges" not in t._caches


def test_energy_keeps_its_bits_on_f2_r13(f2):
    # the energy that report.json carries for tests/data/tree-f2-r13.json,
    # as the sum over the whole edge table gave it
    t = build_truncation(f2, 13)
    h = solve_dirichlet(t, make_end_function(t, 1, {"a": 1}, default=0))
    assert energy(h).total.hex() == "0x1.00000a85ea22ap-1"


def test_energy_streams_under_10_bytes_per_vertex(f2):
    # no edge table: the edge count's slot mask and one row block's terms,
    # about 6 B per vertex on F2 r11 under tracemalloc, against 25 when the
    # energy built edges()
    t = build_truncation(f2, 11)
    h = solve_dirichlet(t, make_end_function(t, 1, rule="first_letter:a"))
    tracemalloc.start()
    try:
        energy(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * t.n
    assert "edges" not in t._caches


def test_solve_peaks_under_90_bytes_per_vertex(f2):
    # int32 ids and int8 degrees: build, chi, solve and energy on F2 r10
    # peak at about 63 B per vertex under tracemalloc, in the solve (121
    # with int64 ids)
    tracemalloc.start()
    try:
        t = build_truncation(f2, 10)
        h = solve_dirichlet(t, make_end_function(t, 1, rule="first_letter:a"))
        energy(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * t.n


def test_energy_form_equals_energy_on_diagonal(h_first_letter_r8):
    h = h_first_letter_r8
    assert energy_form(h, h) == pytest.approx(energy(h).total, abs=1e-12)


def test_energy_form_with_constant_vanishes(t_f2_r4):
    chi = make_end_function(t_f2_r4, 1, rule="first_letter:a")
    h = solve_dirichlet(t_f2_r4, chi)
    const = synthetic_field(t_f2_r4, np.full(t_f2_r4.n, 0.37))
    assert abs(energy_form(h, const)) <= 1e-14


def test_energy_form_rejects_mismatched_truncations(t_f2_r4, f2):
    # each field operation, against a whole or a partial field on a ball of
    # another radius or on one of the same radius built again
    u = synthetic_field(t_f2_r4, np.zeros(t_f2_r4.n))
    for radius in (4, 6):
        other = build_truncation(f2, radius)
        whole = synthetic_field(other, np.zeros(other.n))
        part = PartialField(other, whole.values, np.ones(other.n, dtype=bool))
        for op in (energy_form, field_difference, lattice_ops):
            for v in (whole, part):
                with pytest.raises(MismatchedTruncations):
                    op(u, v)


@pytest.mark.parametrize("own_ball_first", [False, True],
                         ids=["alone", "after-own-ball"])
def test_solve_refuses_an_end_function_of_a_larger_ball(t_f2_r6, t_f2_r8,
                                                         own_ball_first):
    # an end function reaches the ball it was built on only, whether or
    # not a solve there came first; one of a smaller ball is refused too
    for t, other in ((t_f2_r8, t_f2_r6), (t_f2_r6, t_f2_r8)):
        chi = make_end_function(t, 1, {"a": 1}, default=0)
        if own_ball_first:
            assert solve_dirichlet(t, chi).values[0] == pytest.approx(0.25)
        with pytest.raises(MismatchedTruncations):
            solve_dirichlet(other, chi)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_parallelogram_identity(seed, t_f2_r4):
    rng = np.random.default_rng(seed)
    u = synthetic_field(t_f2_r4, rng.random(t_f2_r4.n))
    v = synthetic_field(t_f2_r4, rng.random(t_f2_r4.n))
    lhs = energy(field_difference(u, v)).total
    rhs = energy(u).total + energy(v).total - 2 * energy_form(u, v)
    assert abs(lhs - rhs) <= 1e-12


# -- pullbacks and lattice operations ------------------------------------------------

def test_pullback_of_identity_is_the_field(h_first_letter_r8):
    t = h_first_letter_r8.truncation
    e = group_ball(t, 0)[0]
    p = pullback(h_first_letter_r8, e)
    assert p.domain.all()
    assert np.array_equal(p.values, h_first_letter_r8.values)


def test_pullback_at_identity_vertex(h_first_letter_r8):
    t = h_first_letter_r8.truncation
    a = [g for g in group_ball(t, 1) if str(g) == "a"][0]
    p = pullback(h_first_letter_r8, a)
    assert p.values[0] == h_first_letter_r8.values[1]
    assert t.word(1) == "a"


def test_pullback_is_harmonic_inside_its_domain(h_first_letter_r8):
    t = h_first_letter_r8.truncation
    a = [g for g in group_ball(t, 1) if str(g) == "a"][0]
    p = pullback(h_first_letter_r8, a)
    adj = t.csr_adjacency()
    deg = t.degrees()
    inner = (p.domain & t.interior_mask
             & (p.domain[t.nbr] | (t.nbr < 0)).all(axis=1))
    means = adj.dot(p.values) / deg
    assert np.abs(p.values - means)[inner].max() <= 2e-9


def test_pullback_matches_translated_end_data_on_window(f2):
    # continuum identity: pulling the first-letter field back along its
    # generator gives the field of the complementary three-branch data;
    # at a finite radius they agree up to shell-imposition decay
    t = build_truncation(f2, 9)
    chi = make_end_function(t, 1, rule="first_letter:a")
    h = solve_dirichlet(t, chi)
    a = [g for g in group_ball(t, 1) if str(g) == "a"][0]
    p = pullback(h, a)
    chi_translated = make_end_function(t, 1, values_by_word={"A": 0}, default=1)
    h2 = solve_dirichlet(t, chi_translated)
    window = (t.dist <= 4) & p.domain
    assert np.abs(p.values - h2.values)[window].max() <= 1e-3


def test_lattice_ops_with_self(h_first_letter_r8):
    h = h_first_letter_r8
    gp, gm, cross = lattice_ops(h, h)
    assert np.array_equal(gp.values, h.values)
    assert np.array_equal(gm.values, h.values)
    assert cross.edge_count() == 0
    assert len(cross.equal_vertices) == h.truncation.n


def test_lattice_ops_with_complement(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    k = PartialField(t, 1.0 - h.values, np.ones(t.n, dtype=bool))
    gp, _, _ = lattice_ops(h, k)
    assert gp.values.min() >= 0.5 - 1e-12


@settings(max_examples=80, deadline=None)
@given(hu=st.floats(0, 1), hv=st.floats(0, 1), ku=st.floats(0, 1),
       kv=st.floats(0, 1))
def test_per_edge_lattice_defect_formula(hu, hv, ku, kv):
    plus = (max(hu, ku) - max(hv, kv)) ** 2
    minus = (min(hu, ku) - min(hv, kv)) ** 2
    plain = (hu - hv) ** 2 + (ku - kv) ** 2
    defect = plus + minus - plain
    du, dv = hu - ku, hv - kv
    expected = 2 * du * dv if du * dv < 0 else 0.0
    assert defect == pytest.approx(expected, abs=1e-12)


def test_lattice_energy_inequality_on_sampled_elements(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    eu, ev, _ = t.edges()
    rng = np.random.default_rng(5)
    sample = group_ball(t, 3)
    picks = rng.choice(len(sample), size=20, replace=False)
    for i in picks:
        g = sample[int(i)]
        k = pullback(h, g)
        gp, gm, cross = lattice_ops(h, k)
        edom = k.domain[eu] & k.domain[ev]
        e_h = energy(PartialField(t, h.values, k.domain)).total
        e_k = energy(k).total
        e_p = energy(gp).total
        e_m = energy(gm).total
        assert e_p + e_m <= e_h + e_k + 1e-12
        if cross.edge_count() == 0:
            assert abs(e_p + e_m - (e_h + e_k)) <= 1e-12
        # edge-by-edge: the whole defect sits on crossing edges
        du = (h.values - k.values)[eu]
        dv = (h.values - k.values)[ev]
        expected = 2 * np.where(edom & (du * dv < 0), du * dv, 0.0).sum()
        assert (e_p + e_m) - (e_h + e_k) == pytest.approx(expected, abs=1e-11)


# -- spectral ----------------------------------------------------------------------

def test_path_graph_eigenvalue_formula():
    for n in (10, 100):
        rep = spectral_gap(path_truncation(n))
        exact = 2 * (1 - np.cos(np.pi / (n + 1)))
        assert abs(rep.lambda1_estimate - exact) <= 1e-6
        assert rep.lambda1_lower <= rep.lambda1_estimate + 1e-9


def test_spectral_iteration_cap_raises(t_f2_r4):
    with pytest.raises(NonConvergence) as exc:
        spectral_gap(t_f2_r4, max_iterations=1)
    assert exc.value.iterations == 1


def test_package_import_leaves_sparse_linalg_out():
    # scipy is loaded only where a function needs it, and importing it
    # slows every command
    code = ("import sys, ends_splitter; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_invalid_boundary_detected(t_f2_r4):
    from ends_splitter.ends import EndFunction, end_classes
    from ends_splitter.errors import InvalidBoundary
    classes = end_classes(t_f2_r4, 1)[:3]   # drop one branch
    chi = EndFunction(base_radius=1, classes=classes,
                      values={c.id: 0 for c in classes})
    with pytest.raises(InvalidBoundary):
        solve_dirichlet(t_f2_r4, chi)


def test_cheeger_bound_ordering_on_tree(t_f2_r8):
    rep = spectral_gap(t_f2_r8)
    assert rep.cheeger_lower > 0
    assert rep.lambda1_lower <= rep.lambda1_estimate


def test_power_iteration_matches_radial_reduction(t_f2_r4, t_f2_r8):
    for t, rho in ((t_f2_r4, 4), (t_f2_r8, 8)):
        rep = spectral_gap(t)
        assert rep.lambda1_estimate == pytest.approx(
            dirichlet_lambda1_radial_free(2, rho), abs=1e-9)


def test_gap_persists_under_radius_doubling():
    # window effects shrink like 1/radius^2; from radius 16 on, doubling
    # moves the estimate by under 10% and it stays above the infinite-tree
    # bottom
    lam16 = dirichlet_lambda1_radial_free(2, 16)
    lam32 = dirichlet_lambda1_radial_free(2, 32)
    lam64 = dirichlet_lambda1_radial_free(2, 64)
    assert abs(lam32 - lam16) / lam16 < 0.10
    assert abs(lam64 - lam32) / lam32 < 0.10
    bottom = 4 - 2 * np.sqrt(3)
    for lam in (lam16, lam32, lam64):
        assert lam > bottom


# -- decay profiles -----------------------------------------------------------------

def test_decay_profile_matches_branch_recursion(h_first_letter_r8):
    h = h_first_letter_r8
    t = h.truncation
    chi = h.boundary_spec
    branch = [c for c in chi.classes
              if c.representative_word == "b"][0]
    prof = decay_profile(h, [0], branch, 0)
    expected = oracles.branch_profile(3, t.radius - 1, float(h.values[3]))
    for d, val in prof.by_distance.items():
        assert val == pytest.approx(expected[d], abs=1e-7)
    ratios = prof.ratios()
    for d in range(1, t.radius - 3):
        assert ratios[d] <= 0.5


def test_decay_profile_of_matching_constant_is_zero(t_f2_r6):
    chi = make_end_function(t_f2_r6, 1, values_by_word={}, default=0)
    h = solve_dirichlet(t_f2_r6, chi)
    comps = complement_components(t_f2_r6, [0])
    prof = decay_profile(h, [0], comps[0], 0)
    assert max(prof.by_distance.values()) <= 1e-9


def test_decay_attachment_row_bounded(h_first_letter_r8):
    chi = h_first_letter_r8.boundary_spec
    branch = [c for c in chi.classes
              if c.representative_word == "a"][0]
    prof = decay_profile(h_first_letter_r8, [0], branch, 1)
    assert 0 in prof.by_distance
    assert prof.by_distance[0] <= 1.0


@pytest.mark.parametrize("theta", [0, 1])
def test_decay_profile_matches_per_member_oracle_f2(h_first_letter_r8, theta):
    h = h_first_letter_r8
    for c in h.boundary_spec.classes:
        prof = decay_profile(h, [0], c, theta)
        assert prof.by_distance == oracles.decay_profile(
            h.truncation, h.values, [0], c.members, theta)


@pytest.mark.parametrize("theta", [0, 1])
def test_decay_profile_matches_per_member_oracle_z2z3(theta):
    t = build_truncation(Presentation.free_product_of_cyclics([2, 3]), 12)
    chi = make_end_function(t, 2, rule="first_letter:s")
    h = solve_dirichlet(t, chi)
    anchor = np.flatnonzero(t.dist <= 1)
    comps = complement_components(t, anchor)
    assert len(comps) >= 2
    for comp in comps:
        prof = decay_profile(h, anchor, comp, theta)
        assert prof.by_distance == oracles.decay_profile(
            t, h.values, anchor, comp.members, theta)


# -- field.csv ------------------------------------------------------------------------

def test_to_csv_matches_per_vertex_oracle(stream_truncation, tmp_path,
                                          monkeypatch):
    monkeypatch.setattr(groups, "_WORD_BLOCK", 7)
    t = stream_truncation
    values = np.random.default_rng(5).random(t.n)
    values[:4] = [0.0, 1.0, 0.25, 1e-17]
    h = synthetic_field(t, values)
    h.to_csv(tmp_path / "streamed.csv")
    oracles.field_csv_per_vertex(h, tmp_path / "per_vertex.csv")
    assert ((tmp_path / "streamed.csv").read_bytes()
            == (tmp_path / "per_vertex.csv").read_bytes())


def test_to_csv_keeps_every_bit_pattern_apart(stream_truncation, tmp_path,
                                              monkeypatch):
    # blocks of at most 7 ids, each within one sphere
    monkeypatch.setattr(groups, "_WORD_BLOCK", 7)
    t = stream_truncation
    blocks = [ids for ids, _ in t.word_blocks()]
    cut = next(b.stop for b in blocks if b.stop > 6)
    whole = next(b for b in blocks if b.start >= cut + 4)
    values = np.random.default_rng(6).random(t.n)
    x = 0.1
    values[:6] = [0.0, -0.0, x, np.nextafter(x, 1), np.nextafter(x, 0),
                  np.inf]
    values[cut - 1:cut + 2] = 0.3     # one value across a block boundary
    values[cut + 2:cut + 4] = [-0.0, 0.0]
    values[whole] = 1 / 3             # a block of one value
    h = synthetic_field(t, values)
    h.to_csv(tmp_path / "streamed.csv")
    oracles.field_csv_per_vertex(h, tmp_path / "per_vertex.csv")
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "per_vertex.csv").read_bytes()
    assert b",-0\n" in streamed and b",inf\n" in streamed


def test_to_csv_holds_under_14_bytes_per_vertex(f2, tmp_path, monkeypatch):
    # words as fixed-width bytes, one sphere of parents at a time: about 10
    # B per vertex on F2 r11 under tracemalloc, against 23 with one str per
    # word; small blocks leave the parent sphere to set the peak
    monkeypatch.setattr(groups, "_WORD_BLOCK", 4096)
    t = build_truncation(f2, 11)
    h = solve_dirichlet(t, make_end_function(t, 1, rule="first_letter:a"))
    tracemalloc.start()
    try:
        h.to_csv(tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * t.n


def test_to_csv_makes_no_word_calls(stream_truncation, tmp_path,
                                    monkeypatch):
    t = stream_truncation
    calls = []
    word = Truncation.word
    monkeypatch.setattr(Truncation, "word",
                        lambda self, v: calls.append(v) or word(self, v))
    h = synthetic_field(t, np.zeros(t.n))
    h.to_csv(tmp_path / "field.csv")
    assert calls == []
    rows = (tmp_path / "field.csv").read_text().splitlines()
    assert len(rows) == t.n + 1
