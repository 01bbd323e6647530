"""Scenario-driven command line: solve, necks, gap, tree.

Scenario files are JSON with ``"schema": 1``; unknown fields are rejected.
Every run writes into ``<out>/<scenario-name>/``.  ``report.json`` is
byte-identical for a fixed scenario and seed regardless of ``--threads``;
wall-clock timings therefore live in a separate ``timings.json``.

Exit codes: 0 success, 1 configuration, 2 numerical, 3 structural; each
error class carries its own (``errors.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from .errors import EndsSplitterError, ScenarioError
from .ends import all_nonconstant_end_functions, make_end_function
from .groups import Presentation, build_net, build_truncation, group_ball
from .harmonic import SolverConfig, energy, solve_dirichlet
from .necks import (
    dual_graph,
    dual_graph_dot,
    energy_gap_estimate,
    find_necks,
    PartitionParams,
    partition_K,
    special_sets,
)
from .walls import (
    action_on_tree,
    build_wall_tree,
    build_walls,
    check_wall_settings,
    choose_threshold,
    sample_images,
    wall_tree_dot,
)

_GROUP_FIELDS = {"free": {"kind", "rank"},
                 "free_product_cyclic": {"kind", "orders"}}
_CHI_FIELDS = {"map", "default"}
# the one solver; scenario files may still name it, and reports echo it
_SCHEME = "gauss_seidel"
_REQUIRED = object()
# kind and default of every number field, per scenario object
_NUMBERS = {
    "scenario": {"truncation_radius": (int, _REQUIRED), "base_radius": (int, 1),
                 "neck_R": (int, 1), "net_delta": (int, 1), "seed": (int, 0)},
    "solver": {"tolerance": (float, 1e-9), "max_iterations": (int, 10 ** 6)},
    "wall": {"sample_radius": (int, 3), "equality_tol": (float, 1e-9),
             "step": (float, 1e-3)},
}
# the JSON types each kind of field accepts; a bool is never a number
_JSON_TYPES = {str: str, dict: dict, int: int, float: (int, float)}


def _field(cfg, key, kind, default=_REQUIRED, where="scenario"):
    """``cfg[key]`` as ``kind``, or ``default`` when absent; a missing
    required field or a value of another JSON type is a ScenarioError."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ScenarioError(f"{where} needs {key!r}")
        return default
    value = cfg[key]
    if isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:       # an integer past every float
            pass
    raise ScenarioError(
        f"{where} field {key!r} must be {kind.__name__}, got {value!r}")


def _known_fields(cfg, allowed, where):
    unknown = set(cfg) - allowed
    if unknown:
        raise ScenarioError(f"unknown {where} fields: {sorted(unknown)}")


def _numbers(cfg, where, *others):
    """The number fields of one scenario object, read by ``_NUMBERS``; a
    field that is neither one of them nor in ``others`` is unknown."""
    _known_fields(cfg, {*_NUMBERS[where], *others}, where)
    return {key: _field(cfg, key, kind, default, where)
            for key, (kind, default) in _NUMBERS[where].items()}


class Scenario:
    def __init__(self, cfg, name):
        self.numbers = _numbers(cfg, "scenario", "schema", "name", "group",
                                "chi", "solver", "wall")
        vars(self).update(self.numbers)     # runners read them by name
        if cfg.get("schema") != 1:
            raise ScenarioError('scenario must declare "schema": 1')
        self.name = _field(cfg, "name", str, name)
        # the name is the output directory under --out: one plain part
        if self.name in ("", ".", "..") or set(self.name) & set("/\\\0"):
            raise ScenarioError(
                f"scenario name {self.name!r} must be one plain path part")
        self.group_cfg = _field(cfg, "group", dict)
        try:
            self.presentation = Presentation.from_config(self.group_cfg)
        except (KeyError, TypeError, ValueError, OverflowError) as ex:
            raise ScenarioError(
                f"cannot read group {self.group_cfg!r}: {ex!r}") from None
        _known_fields(self.group_cfg, _GROUP_FIELDS[self.presentation.kind],
                      "group")
        self.chi_spec = cfg.get("chi", None)
        for spec in (self.chi_spec if isinstance(self.chi_spec, list)
                     else [self.chi_spec]):
            if isinstance(spec, dict):
                _known_fields(spec, _CHI_FIELDS, "chi")

        solver = _field(cfg, "solver", dict, {})
        self.solver_numbers = _numbers(solver, "solver", "scheme")
        if solver.get("scheme", _SCHEME) != _SCHEME:
            raise ScenarioError(
                f"unknown solver scheme {solver['scheme']!r}; the only "
                f"scheme is {_SCHEME!r}")
        self.solver = SolverConfig(**self.solver_numbers)
        self.wall = _numbers(_field(cfg, "wall", dict, {}), "wall")

        if not (self.truncation_radius > self.base_radius
                and self.base_radius >= self.neck_R >= 1):
            raise ScenarioError(
                "need truncation_radius > base_radius >= neck_R >= 1, got "
                f"{self.truncation_radius} / {self.base_radius} / {self.neck_R}"
            )
        if self.net_delta < 1:
            raise ScenarioError(f"need net_delta >= 1, got {self.net_delta}")
        if not 0 <= self.wall["sample_radius"] <= self.truncation_radius:
            raise ScenarioError(
                "need 0 <= wall sample_radius <= truncation_radius, got "
                f"{self.wall['sample_radius']} / {self.truncation_radius}")
        check_wall_settings(self.wall["step"], self.wall["equality_tol"])

    def echo(self):
        return {**self.numbers, "name": self.name, "group": self.group_cfg,
                "chi": self.chi_spec, "wall": dict(self.wall),
                "solver": {**self.solver_numbers, "scheme": _SCHEME}}

    def resolve_chi(self, t, spec=None):
        spec = self.chi_spec if spec is None else spec
        if spec is None:
            raise ScenarioError("scenario has no chi")
        if isinstance(spec, str):
            chi = make_end_function(t, self.base_radius, rule=spec)
        elif isinstance(spec, dict):
            chi = make_end_function(
                t, self.base_radius,
                values_by_word=_field(spec, "map", dict, {}, "chi"),
                default=spec.get("default"),
            )
        else:
            raise ScenarioError("chi must be a rule string or a map object")
        chi.require_nonconstant()
        return chi

    def resolve_chi_list(self, t):
        spec = self.chi_spec
        if spec == "all":
            return all_nonconstant_end_functions(t, self.base_radius)
        if isinstance(spec, list):
            if not spec:
                raise ScenarioError("chi list is empty")
            return [self.resolve_chi(t, s) for s in spec]
        return [self.resolve_chi(t)]


def load_scenario(path, overrides=None):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except (OSError, UnicodeDecodeError) as ex:
        raise ScenarioError(f"cannot read scenario file {path}: {ex}")
    except json.JSONDecodeError as ex:
        raise ScenarioError(
            f"malformed scenario JSON at line {ex.lineno} column {ex.colno}: "
            f"{ex.msg}"
        )
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario must be a JSON object")
    name = os.path.splitext(os.path.basename(path))[0]
    if overrides:
        cfg.update(overrides)
    return Scenario(cfg, name)


def _json_dump(obj, outdir, name):
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, separators=(",", ": "))
        fh.write("\n")


class _Stages(dict):
    """Wall time of each stage by name; ``with stages(name):`` times one,
    announcing it on stderr first when ``verbose``."""

    def __init__(self, verbose):
        super().__init__()
        self.verbose = verbose

    @contextlib.contextmanager
    def __call__(self, name):
        if self.verbose:
            print(f"[stage] {name}", file=sys.stderr, flush=True)
        t0 = time.monotonic()
        yield
        self[name] = round(time.monotonic() - t0, 6)


def _prepare(scn, stages):
    with stages("build_truncation"):
        return build_truncation(scn.presentation, scn.truncation_radius)


def _base_report(scn, t, command):
    return {
        "schema": 1,
        "command": command,
        "scenario": scn.echo(),
        "truncation": {
            "vertices": int(t.n),
            "edges": t.n_edges(),
            "shell": int(t.shell_mask.sum()),
        },
        "warnings": [],
    }


def _solve_stage(scn, t, stages):
    with stages("resolve_chi"):
        chi = scn.resolve_chi(t)
    with stages("solve_dirichlet"):
        h = solve_dirichlet(t, chi, scn.solver)
    lo, hi = h.interior_range()
    block = {
        "scheme": _SCHEME,
        "tolerance": scn.solver.tolerance,
        "iterations": h.iterations,
        "residual": h.residual,
        "energy": energy(h).total,
        "min_interior": lo,
        "max_interior": hi,
        "h_identity": float(h.values[0]),
    }
    return chi, h, block


def run_solve(scn, outdir, stages):
    t = _prepare(scn, stages)
    chi, h, block = _solve_stage(scn, t, stages)
    report = _base_report(scn, t, "solve")
    report["chi"] = {"base_radius": chi.base_radius,
                     "assignments": chi.assignments_by_word(),
                     "end_classes": [c.summary() for c in chi.classes]}
    report["solve"] = block
    with stages("write_outputs"):
        h.to_csv(os.path.join(outdir, "field.csv"))
        _json_dump(report, outdir, "report.json")
    return report


def run_necks(scn, outdir, stages):
    t = _prepare(scn, stages)
    with stages("build_net"):
        net = build_net(t, scn.net_delta)
    with stages("resolve_chi"):
        chi = scn.resolve_chi(t)
    with stages("special_sets"):
        neck_report = special_sets(t, find_necks(t, net, scn.neck_R), chi)

    with stages("dual_graph"):
        k_ids = neck_report.center_ids["K"]
        dual = None
        if k_ids:
            params = PartitionParams(D=2 * scn.neck_R, d=0)
            dual = dual_graph(t, partition_K(t, k_ids, params).groups,
                              scn.neck_R)

    report = _base_report(scn, t, "necks")
    report["chi"] = {"base_radius": chi.base_radius,
                     "assignments": chi.assignments_by_word()}
    report["necks"] = neck_report.to_json_dict()
    report["warnings"] = list(neck_report.warnings)
    if dual is not None:
        report["dual"] = {
            "nodes": dual.n_nodes,
            "edges": dual.n_edges,
            "is_tree": dual.is_tree,
        }
    with stages("write_outputs"):
        _json_dump(report["necks"], outdir, "necks.json")
        if dual is not None:
            with open(os.path.join(outdir, "dual.dot"), "w") as fh:
                fh.write(dual_graph_dot(dual))
        _json_dump(report, outdir, "report.json")
    return report


def run_gap(scn, outdir, stages):
    t = _prepare(scn, stages)
    with stages("build_net"):
        net = build_net(t, scn.net_delta)
    with stages("resolve_chi"):
        chis = scn.resolve_chi_list(t)
    with stages("energy_gap_estimate"):
        bracket = energy_gap_estimate(t, net, scn.neck_R, chis,
                                      solver_cfg=scn.solver)
    report = _base_report(scn, t, "gap")
    report["gap"] = bracket.to_json_dict()
    with stages("write_outputs"):
        _json_dump(report, outdir, "report.json")
    return report


def run_tree(scn, outdir, stages):
    t = _prepare(scn, stages)
    chi, h, block = _solve_stage(scn, t, stages)

    with stages("walls"):
        sample = group_ball(t, scn.wall["sample_radius"])
        # one pass over the full-ball maps; walls, regions and the action
        # read what it keeps on the common domain
        images = sample_images(h, sample, scn.wall["equality_tol"])
        threshold = choose_threshold(images, scn.wall["step"])
        system = build_walls(h, images, threshold)

    with stages("wall_tree"):
        tree = build_wall_tree(t, system)
        action = action_on_tree(t, tree)

    report = _base_report(scn, t, "tree")
    report["solve"] = block
    report["tree"] = {
        "threshold": threshold,
        "sample_radius": scn.wall["sample_radius"],
        "sample_size": len(sample),
        "walls": tree.n_edges,
        "regions": tree.n_nodes,
        "is_tree": True,
        "empty_pullbacks": system.empty_pullbacks,
        "trichotomy": {v.g: v.relation for v in images.verdicts},
        "violations": sum(1 for v in images.verdicts if v.is_violation()),
        "inversions": len(action.inversions),
        "fixed_regions": action.fixed_regions,
    }
    with stages("write_outputs"):
        with open(os.path.join(outdir, "tree.dot"), "w") as fh:
            fh.write(wall_tree_dot(tree))
        _json_dump(action.to_json_dict(tree), outdir, "action.json")
        _json_dump(report, outdir, "report.json")
    return report


_RUNNERS = {"solve": run_solve, "necks": run_necks, "gap": run_gap,
            "tree": run_tree}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ends-splitter",
        description="harmonic end-functions, necks, and wall trees on "
                    "Cayley-graph truncations",
    )
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, default=0,
                        help="accepted for the determinism contract; results "
                             "never depend on it")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--radius", type=int, default=None)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    outroot = args.out or os.environ.get("ENDS_SPLITTER_OUT", "out")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.radius is not None:
        overrides["truncation_radius"] = args.radius

    stages = _Stages(args.verbose)
    try:
        scn = load_scenario(args.scenario, overrides)
        outdir = os.path.join(outroot, scn.name)
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as ex:
            raise ScenarioError(f"cannot create output directory: {ex}")
        try:
            report = _RUNNERS[args.command](scn, outdir, stages)
            _json_dump(stages, outdir, "timings.json")
        except OSError as ex:
            raise ScenarioError(f"cannot write outputs in {outdir}: {ex}")
    except EndsSplitterError as ex:
        _emit_error(ex)
        return ex.exit_code

    for w in report.get("warnings", []):
        print(f"warning: {w}", file=sys.stderr)
    print(json.dumps({"ok": True, "out": outdir}, sort_keys=True))
    return 0


def _emit_error(ex):
    print(json.dumps({
        "ok": False,
        "exit_code": ex.exit_code,
        "error": type(ex).__name__,
        "message": str(ex),
    }, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
