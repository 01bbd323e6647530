"""Scenario-driven command line: solve, necks, gap, tree.

Scenario files are JSON with ``"schema": 1``; unknown fields are rejected.
Every run writes into ``<out>/<scenario-name>/``.  ``report.json`` is
byte-identical for a fixed scenario and seed regardless of ``--threads``;
wall-clock timings therefore live in a separate ``timings.json``.

Exit codes: 0 success, 1 configuration, 2 numerical, 3 structural.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import (
    CrossingWalls,
    DegenerateDrop,
    EndsSplitterError,
    NeckCoverageError,
    NoRegularValue,
    NonConvergence,
    NotATree,
    PresentationError,
    ScenarioError,
)
from .ends import all_nonconstant_end_functions, make_end_function
from .groups import Presentation, build_net, build_truncation, group_ball
from .harmonic import SolverConfig, energy, solve_dirichlet
from .necks import (
    dual_graph,
    dual_graph_dot,
    energy_gap_estimate,
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
    indecomposable_regions,
    sample_images,
    wall_tree_dot,
)

_SCENARIO_FIELDS = {
    "schema", "name", "group", "truncation_radius", "base_radius", "neck_R",
    "net_delta", "chi", "solver", "wall", "seed",
}
_SOLVER_FIELDS = {"tolerance", "max_iterations", "scheme"}
_WALL_FIELDS = {"sample_radius", "equality_tol", "step"}
# the one solver; scenario files may still name it, and reports echo it
_SCHEME = "gauss_seidel"
_REQUIRED = object()
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


class Scenario:
    def __init__(self, cfg, name):
        unknown = set(cfg) - _SCENARIO_FIELDS
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
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
        self.truncation_radius = _field(cfg, "truncation_radius", int)
        self.base_radius = _field(cfg, "base_radius", int, 1)
        self.neck_R = _field(cfg, "neck_R", int, 1)
        self.net_delta = _field(cfg, "net_delta", int, 1)
        self.chi_spec = cfg.get("chi", None)
        self.seed = _field(cfg, "seed", int, 0)

        solver = _field(cfg, "solver", dict, {})
        unknown = set(solver) - _SOLVER_FIELDS
        if unknown:
            raise ScenarioError(f"unknown solver fields: {sorted(unknown)}")
        if solver.get("scheme", _SCHEME) != _SCHEME:
            raise ScenarioError(
                f"unknown solver scheme {solver['scheme']!r}; the only "
                f"scheme is {_SCHEME!r}")
        self.solver = SolverConfig(
            tolerance=_field(solver, "tolerance", float, 1e-9, "solver"),
            max_iterations=_field(solver, "max_iterations", int, 10 ** 6,
                                  "solver"),
        )

        wall = _field(cfg, "wall", dict, {})
        unknown = set(wall) - _WALL_FIELDS
        if unknown:
            raise ScenarioError(f"unknown wall fields: {sorted(unknown)}")
        self.wall_sample_radius = _field(wall, "sample_radius", int, 3, "wall")
        self.wall_equality_tol = _field(wall, "equality_tol", float, 1e-9,
                                        "wall")
        self.wall_step = _field(wall, "step", float, 1e-3, "wall")

        if not (self.truncation_radius > self.base_radius
                and self.base_radius >= self.neck_R >= 1):
            raise ScenarioError(
                "need truncation_radius > base_radius >= neck_R >= 1, got "
                f"{self.truncation_radius} / {self.base_radius} / {self.neck_R}"
            )
        if self.net_delta < 1:
            raise ScenarioError(f"need net_delta >= 1, got {self.net_delta}")
        if not 0 <= self.wall_sample_radius <= self.truncation_radius:
            raise ScenarioError(
                "need 0 <= wall sample_radius <= truncation_radius, got "
                f"{self.wall_sample_radius} / {self.truncation_radius}")
        check_wall_settings(self.wall_step, self.wall_equality_tol)

    def echo(self):
        return {
            "name": self.name,
            "group": self.group_cfg,
            "truncation_radius": self.truncation_radius,
            "base_radius": self.base_radius,
            "neck_R": self.neck_R,
            "net_delta": self.net_delta,
            "chi": self.chi_spec,
            "solver": {
                "tolerance": self.solver.tolerance,
                "max_iterations": self.solver.max_iterations,
                "scheme": _SCHEME,
            },
            "wall": {
                "sample_radius": self.wall_sample_radius,
                "equality_tol": self.wall_equality_tol,
                "step": self.wall_step,
            },
            "seed": self.seed,
        }

    def resolve_chi(self, t, spec=None):
        spec = self.chi_spec if spec is None else spec
        if spec is None:
            raise ScenarioError("scenario has no chi")
        if isinstance(spec, str):
            if spec.startswith("first_letter:"):
                chi = make_end_function(t, self.base_radius, rule=spec)
            else:
                raise ScenarioError(f"unknown chi rule {spec!r}")
        elif isinstance(spec, dict):
            chi = make_end_function(
                t, self.base_radius,
                values_by_word=_field(spec, "map", dict, {}, "chi"),
                default=spec.get("default"),
            )
        else:
            raise ScenarioError("chi must be a rule string or a map object")
        if not chi.nonconstant:
            raise ScenarioError("chi must be nonconstant")
        return chi

    def resolve_chi_list(self, t):
        spec = self.chi_spec
        if spec == "all":
            return all_nonconstant_end_functions(t, self.base_radius)
        if isinstance(spec, list):
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


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, separators=(",", ": "))
        fh.write("\n")


class _Stages:
    def __init__(self, verbose):
        self.timings = {}
        self.verbose = verbose
        self._t0 = None
        self._name = None

    def start(self, name):
        if self.verbose:
            print(f"[stage] {name}", file=sys.stderr, flush=True)
        self._name = name
        self._t0 = time.monotonic()

    def stop(self):
        if self._name is not None:
            self.timings[self._name] = round(time.monotonic() - self._t0, 6)
            self._name = None


def _prepare(scn, stages):
    stages.start("build_truncation")
    t = build_truncation(scn.presentation, scn.truncation_radius)
    stages.stop()
    return t


def _base_report(scn, t, command):
    eu, _, _ = t.edges()
    return {
        "schema": 1,
        "command": command,
        "scenario": scn.echo(),
        "truncation": {
            "vertices": int(t.n),
            "edges": int(len(eu)),
            "shell": int(t.shell_mask.sum()),
        },
        "warnings": [],
    }


def _solve_stage(scn, t, stages, chi=None):
    stages.start("resolve_chi")
    chi = chi or scn.resolve_chi(t)
    stages.stop()
    stages.start("solve_dirichlet")
    h = solve_dirichlet(t, chi, scn.solver)
    stages.stop()
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
    stages.start("write_outputs")
    h.to_csv(os.path.join(outdir, "field.csv"))
    _json_dump(report, os.path.join(outdir, "report.json"))
    stages.stop()
    return report


def run_necks(scn, outdir, stages):
    t = _prepare(scn, stages)
    stages.start("build_net")
    net = build_net(t, scn.net_delta)
    stages.stop()
    stages.start("resolve_chi")
    chi = scn.resolve_chi(t)
    stages.stop()
    stages.start("special_sets")
    neck_report = special_sets(t, net, scn.neck_R, chi)
    stages.stop()

    stages.start("dual_graph")
    k_ids = neck_report.center_ids["K"]
    dual = None
    if k_ids:
        part = partition_K(t, k_ids, PartitionParams(D=2 * scn.neck_R, d=0))
        dual = dual_graph(t, part.groups, scn.neck_R)
    stages.stop()

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
    stages.start("write_outputs")
    _json_dump(neck_report.to_json_dict(), os.path.join(outdir, "necks.json"))
    if dual is not None:
        with open(os.path.join(outdir, "dual.dot"), "w") as fh:
            fh.write(dual_graph_dot(dual))
    _json_dump(report, os.path.join(outdir, "report.json"))
    stages.stop()
    return report


def run_gap(scn, outdir, stages):
    t = _prepare(scn, stages)
    stages.start("build_net")
    net = build_net(t, scn.net_delta)
    stages.stop()
    stages.start("resolve_chi")
    chis = scn.resolve_chi_list(t)
    stages.stop()
    stages.start("energy_gap_estimate")
    bracket = energy_gap_estimate(t, net, scn.neck_R, chis,
                                  solver_cfg=scn.solver)
    stages.stop()
    report = _base_report(scn, t, "gap")
    report["gap"] = bracket.to_json_dict()
    stages.start("write_outputs")
    _json_dump(report, os.path.join(outdir, "report.json"))
    stages.stop()
    return report


def run_tree(scn, outdir, stages):
    t = _prepare(scn, stages)
    chi, h, block = _solve_stage(scn, t, stages)

    stages.start("walls")
    sample = group_ball(t, scn.wall_sample_radius)
    # one pass over the full-ball maps; walls, regions and the action read
    # what it keeps on the common domain
    images = sample_images(h, sample, scn.wall_equality_tol)
    verdicts = images.verdicts
    cfg = choose_threshold(images, step=scn.wall_step,
                           sample_radius=scn.wall_sample_radius)
    system = build_walls(h, cfg, images)
    stages.stop()

    stages.start("wall_tree")
    decomposition = indecomposable_regions(t, system)
    tree = build_wall_tree(t, system, decomposition)
    action = action_on_tree(t, system, tree, images)
    stages.stop()

    report = _base_report(scn, t, "tree")
    report["solve"] = block
    report["tree"] = {
        "threshold": cfg.threshold,
        "sample_radius": scn.wall_sample_radius,
        "sample_size": len(sample),
        "walls": tree.n_edges,
        "regions": tree.n_nodes,
        "is_tree": True,
        "empty_pullbacks": system.empty_pullbacks,
        "trichotomy": {v.g: v.relation for v in verdicts},
        "violations": sum(1 for v in verdicts if v.is_violation()),
        "inversions": len(action.inversions),
        "fixed_regions": action.fixed_regions,
    }
    stages.start("write_outputs")
    with open(os.path.join(outdir, "tree.dot"), "w") as fh:
        fh.write(wall_tree_dot(tree))
    _json_dump(action.to_json_dict(tree), os.path.join(outdir, "action.json"))
    _json_dump(report, os.path.join(outdir, "report.json"))
    stages.stop()
    return report


_RUNNERS = {"solve": run_solve, "necks": run_necks, "gap": run_gap,
            "tree": run_tree}

_CONFIG_ERRORS = (ScenarioError, PresentationError, NoRegularValue)
_NUMERIC_ERRORS = (NonConvergence,)
_STRUCTURAL_ERRORS = (NotATree, CrossingWalls, NeckCoverageError,
                      DegenerateDrop)


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
        report = _RUNNERS[args.command](scn, outdir, stages)
    except _CONFIG_ERRORS as ex:
        _emit_error(1, ex)
        return 1
    except _NUMERIC_ERRORS as ex:
        _emit_error(2, ex)
        return 2
    except _STRUCTURAL_ERRORS as ex:
        _emit_error(3, ex)
        return 3
    except EndsSplitterError as ex:
        _emit_error(1, ex)
        return 1

    _json_dump(stages.timings, os.path.join(outdir, "timings.json"))
    for w in report.get("warnings", []):
        print(f"warning: {w}", file=sys.stderr)
    print(json.dumps({"ok": True, "out": outdir}, sort_keys=True))
    return 0


def _emit_error(code, ex):
    print(json.dumps({
        "ok": False,
        "exit_code": code,
        "error": type(ex).__name__,
        "message": str(ex),
    }, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
