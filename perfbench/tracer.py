"""Traced launcher for the ends-splitter CLI, and the per-layer metrics
taken from its spans.

    python3 perfbench/tracer.py SPANS.json solve --scenario s.json --out out/

runs the same ``main`` as ``python3 -m ends_splitter.cli`` after wrapping
the public functions of each package module named in ``SPANNED``.  Each
call of a wrapped function becomes a span with its wall time, the rise of
the process RSS high-water mark, and both again net of its child spans
(self time, self rise).  Functions called once per vertex (``COUNTED``)
are counted without a span.  Spans stay in memory and are written to
SPANS.json when the command ends.  Nothing in the package is edited.
"""

import functools
import json
import resource
import sys
import time
from collections import Counter, defaultdict

SPANNED = {
    "groups": ("build_truncation", "build_net", "group_ball",
               "Truncation.rmul_ids", "Truncation.right_mult_table"),
    "ends": ("end_classes", "complement_components"),
    "harmonic": ("solve_dirichlet", "pullback", "energy",
                 "HarmonicField.to_csv"),
    "necks": ("special_sets", "find_necks", "classify_neck", "dual_graph",
              "gap_certificate", "energy_gap_estimate"),
    "walls": ("trichotomy", "choose_threshold", "build_walls",
              "indecomposable_regions", "build_wall_tree", "action_on_tree"),
    "cli": ("run_solve", "run_tree", "run_necks", "run_gap"),
}
COUNTED = {"groups": ("Truncation.word",)}

# what a span keeps of its function's result
RESULT_FIELDS = {
    "harmonic.solve_dirichlet": lambda h: {"iterations": int(h.iterations)},
    "groups.group_ball": lambda sample: {"size": len(sample)},
}

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "groups.build_truncation_s": ("groups.build_truncation",),
    "groups.build_net_s": ("groups.build_net",),
    "groups.right_action_s": ("groups.rmul_ids", "groups.right_mult_table"),
    "ends.end_classes_s": ("ends.end_classes",),
    "ends.complement_components_s": ("ends.complement_components",),
    "harmonic.solve_dirichlet_s": ("harmonic.solve_dirichlet",),
    "harmonic.pullback_s": ("harmonic.pullback",),
    "harmonic.to_csv_s": ("harmonic.to_csv",),
    "harmonic.energy_s": ("harmonic.energy",),
    "necks.special_sets_s": ("necks.special_sets",),
    "necks.find_necks_s": ("necks.find_necks",),
    "necks.classify_neck_s": ("necks.classify_neck",),
    "necks.dual_graph_s": ("necks.dual_graph",),
    "necks.gap_certificate_s": ("necks.gap_certificate",),
    "necks.energy_gap_estimate_s": ("necks.energy_gap_estimate",),
    "walls.trichotomy_s": ("walls.trichotomy",),
    "walls.choose_threshold_s": ("walls.choose_threshold",),
    "walls.build_walls_s": ("walls.build_walls",),
    "walls.indecomposable_regions_s": ("walls.indecomposable_regions",),
    "walls.build_wall_tree_s": ("walls.build_wall_tree",),
    "walls.action_on_tree_s": ("walls.action_on_tree",),
    "cli.runner_s": ("cli.run_solve", "cli.run_tree", "cli.run_necks",
                     "cli.run_gap"),
}
# per-layer metric -> span whose calls it counts
SPAN_CALLS = {
    "ends.complement_components_calls": "ends.complement_components",
    "harmonic.solve_calls": "harmonic.solve_dirichlet",
    "harmonic.pullback_calls": "harmonic.pullback",
    "necks.find_necks_calls": "necks.find_necks",
    "necks.classify_neck_calls": "necks.classify_neck",
}
RSS_LAYERS = ("groups", "ends", "harmonic", "necks", "walls")

UNITS = {
    **{m: "s" for m in SELF_TIME},
    **{m: "count" for m in SPAN_CALLS},
    "groups.word_calls": "count",
    "harmonic.solver_iterations": "count",
    "harmonic.pullbacks_per_element": "count",
    "cli.output_bytes": "bytes",
    **{f"{layer}.rss_rise_mb": "MB" for layer in RSS_LAYERS},
}


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and call counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 0

    def span(self, name, fn):
        keep = RESULT_FIELDS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = {"id": self._next_id, "name": name,
                     "parent": self._stack[-1]["id"] if self._stack else None,
                     "start": time.perf_counter(), "rss_kb": _maxrss_kb(),
                     "child_s": 0.0, "child_rss_kb": 0}
            self._next_id += 1
            self._stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(frame, keep(result) if keep and result is not None
                            else {})

        return wrapper

    def _close(self, frame, fields):
        end = time.perf_counter()
        rise = _maxrss_kb() - frame["rss_kb"]
        self._stack.pop()
        wall = end - frame["start"]
        if self._stack:
            self._stack[-1]["child_s"] += wall
            self._stack[-1]["child_rss_kb"] += rise
        self.spans.append({
            "id": frame["id"], "parent": frame["parent"],
            "name": frame["name"], "start": frame["start"], "end": end,
            "self_s": wall - frame["child_s"],
            "self_rss_kb": rise - frame["child_rss_kb"], **fields,
        })

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _patch(modules, layer, qualname, make):
    """Replace one public function of ``ends_splitter.<layer>`` with its
    wrapper, wherever the package holds a reference to it."""
    module = sys.modules[f"ends_splitter.{layer}"]
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = getattr(owner, attr)
    wrapped = make(f"{layer}.{attr}", original)
    setattr(owner, attr, wrapped)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):      # e.g. the CLI's runner table
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped


def install(tracer):
    import ends_splitter.cli  # noqa: F401  (imports every layer)

    modules = [m for name, m in sys.modules.items()
               if name == "ends_splitter" or name.startswith("ends_splitter.")]
    for layer, names in SPANNED.items():
        for qualname in names:
            _patch(modules, layer, qualname, tracer.span)
    for layer, names in COUNTED.items():
        for qualname in names:
            _patch(modules, layer, qualname, tracer.count)


def layer_metrics(doc, output_bytes):
    """Every per-layer metric of one traced command from its span file."""
    spans = doc["spans"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out = {metric: float(sum(s["self_s"] for n in names for s in by_name[n]))
           for metric, names in SELF_TIME.items()}
    out.update({metric: len(by_name[name])
                for metric, name in SPAN_CALLS.items()})
    out["groups.word_calls"] = doc["counts"].get("groups.word", 0)
    out["harmonic.solver_iterations"] = sum(
        s["iterations"] for s in by_name["harmonic.solve_dirichlet"]
        if "iterations" in s)
    sample = sum(s["size"] for s in by_name["groups.group_ball"]
                 if "size" in s)
    out["harmonic.pullbacks_per_element"] = (
        out["harmonic.pullback_calls"] / sample if sample else 0.0)
    out["cli.output_bytes"] = output_bytes
    for layer in RSS_LAYERS:
        out[f"{layer}.rss_rise_mb"] = sum(
            s["self_rss_kb"] for s in spans
            if s["name"].startswith(layer + ".")) / 1024
    return out


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from ends_splitter import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
