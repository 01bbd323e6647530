import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ends_splitter import cli

import oracles


def write_scenario(tmp_path, stem="scn", **overrides):
    cfg = {
        "schema": 1,
        "group": {"kind": "free", "rank": 2},
        "truncation_radius": 6,
        "base_radius": 1,
        "neck_R": 1,
        "net_delta": 2,
        "chi": "first_letter:a",
        "wall": {"sample_radius": 1},
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, path, out, *extra):
    return cli.main([command, "--scenario", path, "--out", str(out), *extra])


def test_solve_writes_report_and_field(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert run("solve", path, tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    assert rep["solve"]["energy"] > 0
    assert rep["solve"]["residual"] <= 1e-9
    field = (tmp_path / "out/scn/field.csv").read_text().splitlines()
    assert field[0] == "word,value"
    assert len(field) == rep["truncation"]["vertices"] + 1
    assert (tmp_path / "out/scn/timings.json").exists()


def test_constant_chi_is_config_error(tmp_path, capsys):
    path = write_scenario(tmp_path, chi={"map": {}, "default": 1})
    assert run("solve", path, tmp_path / "out") == 1
    msg = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not msg["ok"]
    assert "nonconstant" in msg["message"]


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1,\n  "group": }')
    assert cli.main(["solve", "--scenario", str(path),
                     "--out", str(tmp_path / "o")]) == 1
    msg = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "line 2" in msg["message"]


def test_unknown_fields_rejected(tmp_path, capsys):
    path = write_scenario(tmp_path, extra_knob=5)
    assert run("solve", path, tmp_path / "out") == 1


@pytest.mark.parametrize("overrides", [
    {"truncation_radius": None},
    {"solver": {"max_iterations": None}},
    {"group": {"kind": "free"}},
    {"solver": {"tolerance": "x"}},
    {"solver": {"scheme": "jacobi"}},
    {"chi": {"map": {"a": 1, "A": 0.7, "b": 0, "B": 0}}},
    {"chi": {"map": {"a": 1, "A": [0]}}},
    {"chi": {"map": {"a": 1}, "default": "x"}},
    {"wall": {"step": -0.001}},
    {"wall": {"step": float("nan")}},
    {"wall": {"step": float("inf")}},
    {"wall": {"equality_tol": -1e-9}},
    {"wall": {"equality_tol": float("nan")}},
    {"wall": {"sample_radius": -1}},
    {"wall": {"sample_radius": 7}},
    {"net_delta": 0},
    {"chi": "first_letter:zz"},
    {"chi": {"map": ["a"], "default": 0}},
    {"truncation_radius": float("inf")},
    {"name": "../escaped"},
    {"name": ""},
    {"name": "."},
    {"name": ".."},
    {"name": "a/b"},
    {"name": "a\\b"},
    {"name": "a\0b"},
    # integer fields take JSON integers only, float fields JSON numbers only
    {"truncation_radius": 12.7},
    {"truncation_radius": "10"},
    {"neck_R": "1"},
    {"seed": True},
    {"base_radius": 1.9},
    {"solver": {"max_iterations": 1e6}},
    {"solver": {"tolerance": True}},
    {"wall": {"step": "0.001"}},
    {"group": {"kind": "free", "rank": 2.5}},
    {"group": {"kind": "free", "rank": True}},
    {"group": {"kind": "free_product_cyclic", "orders": [3, 2.0]}},
    {"group": {"kind": "free_product_cyclic", "orders": [False, 3]}},
])
def test_bad_field_is_exit_1_with_one_json_line(tmp_path, capsys, overrides):
    path = write_scenario(tmp_path, **overrides)
    assert run("solve", path, tmp_path / "out") == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    msg = json.loads(lines[0])
    assert msg["ok"] is False and msg["exit_code"] == 1
    assert msg["error"] == "ScenarioError"
    # nothing lands beside the scenario file, outside --out
    assert set(os.listdir(tmp_path)) <= {"scn.json", "out"}


def test_scenario_that_is_not_an_object_is_exit_1(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert cli.main(["solve", "--scenario", str(path),
                     "--out", str(tmp_path / "o")]) == 1
    msg = json.loads(capsys.readouterr().out.strip())
    assert msg["error"] == "ScenarioError"


def _scenario_directory(tmp_path):
    (tmp_path / "scn.json").mkdir()
    return str(tmp_path / "scn.json"), tmp_path / "out"


def _scenario_not_utf8(tmp_path):
    path = tmp_path / "scn.json"
    path.write_bytes(b'{"schema": 1, "name": "caf\xe9"}')
    return str(path), tmp_path / "out"


def _out_is_a_file(tmp_path):
    (tmp_path / "out").write_text("")
    return write_scenario(tmp_path), tmp_path / "out"


@pytest.mark.parametrize("setup, says", [
    (_scenario_directory, "cannot read scenario file"),
    (_scenario_not_utf8, "cannot read scenario file"),
    (_out_is_a_file, "cannot create output directory"),
], ids=["scenario-dir", "scenario-not-utf8", "out-is-a-file"])
def test_file_errors_are_exit_1_with_one_json_line(tmp_path, capsys, setup,
                                                   says):
    path, out = setup(tmp_path)
    assert run("solve", path, out) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    msg = json.loads(lines[0])
    assert msg["ok"] is False and msg["exit_code"] == 1
    assert msg["error"] == "ScenarioError"
    assert says in msg["message"]


def test_bad_radius_ordering_rejected(tmp_path):
    path = write_scenario(tmp_path, base_radius=9)
    assert run("solve", path, tmp_path / "out") == 1


def test_nonconvergence_is_exit_2(tmp_path):
    path = write_scenario(tmp_path,
                          solver={"max_iterations": 1, "tolerance": 1e-14})
    assert run("solve", path, tmp_path / "out") == 2


def test_rerun_is_byte_identical_across_threads(tmp_path):
    path = write_scenario(tmp_path)
    assert run("solve", path, tmp_path / "o1", "--threads", "1") == 0
    assert run("solve", path, tmp_path / "o2", "--threads", "4") == 0
    a = (tmp_path / "o1/scn/report.json").read_bytes()
    b = (tmp_path / "o2/scn/report.json").read_bytes()
    assert a == b
    fa = (tmp_path / "o1/scn/field.csv").read_bytes()
    fb = (tmp_path / "o2/scn/field.csv").read_bytes()
    assert fa == fb


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


@pytest.mark.parametrize("command,name,files", [
    ("tree", "tree-f2-r8", ("tree.dot", "action.json")),
    ("tree", "tree-z3z-r8", ("tree.dot", "action.json")),
    ("tree", "tree-z2z3-r14", ("tree.dot", "action.json")),
    ("necks", "necks-z3z-r8", ("necks.json", "dual.dot")),
])
def test_outputs_match_the_golden_files(tmp_path, command, name, files):
    # none of these files holds a float, so their bytes do not depend on
    # the numpy build
    scenario = os.path.join(GOLDEN, f"{name}.json")
    assert run(command, scenario, tmp_path) == 0
    for f in files:
        with open(os.path.join(GOLDEN, name, f), "rb") as fh:
            assert (tmp_path / name / f).read_bytes() == fh.read(), f


def test_radius_override(tmp_path):
    path = write_scenario(tmp_path)
    assert run("solve", path, tmp_path / "out", "--radius", "4") == 0
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    assert rep["truncation"]["vertices"] == 2 * 3 ** 4 - 1


def test_necks_outputs(tmp_path):
    path = write_scenario(tmp_path)
    assert run("necks", path, tmp_path / "out") == 0
    necks = json.loads((tmp_path / "out/scn/necks.json").read_text())
    assert necks["K_I"] == ["e"]
    assert necks["K_II"] == []
    assert necks["cover_ok"]
    nodes, edges = oracles.parse_dot(
        (tmp_path / "out/scn/dual.dot").read_text())
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    assert len(nodes) == rep["dual"]["nodes"]
    assert len(edges) == rep["dual"]["edges"]
    assert rep["dual"]["is_tree"]


def test_necks_times_every_stage(tmp_path):
    path = write_scenario(tmp_path)
    assert run("necks", path, tmp_path / "out") == 0
    timings = json.loads((tmp_path / "out/scn/timings.json").read_text())
    assert set(timings) == {"build_truncation", "build_net", "resolve_chi",
                            "special_sets", "dual_graph", "write_outputs"}


def _scipy_modules_after(tmp_path, commands, **overrides):
    """The scipy modules loaded by a fresh interpreter that ran
    ``commands`` on one scenario."""
    path = write_scenario(tmp_path, **overrides)
    code = ("import json, sys\n"
            "from ends_splitter import cli\n"
            f"for c in {commands!r}:\n"
            f"    assert cli.main([c, '--scenario', {path!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("group, chi", [
    ({"kind": "free", "rank": 2}, "first_letter:a"),
    ({"kind": "free_product_cyclic", "orders": [3, 0]}, "first_letter:s"),
], ids=["F2", "Z3*Z"])
def test_necks_loads_no_scipy_module(tmp_path, group, chi):
    assert _scipy_modules_after(tmp_path, ["necks"], group=group,
                                chi=chi) == []


def test_solving_commands_load_no_scipy_graph_or_linalg_code(tmp_path):
    loaded = _scipy_modules_after(tmp_path, ["solve", "tree", "gap"])
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith(
        ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg"))]


def test_cover_failure_warns_but_succeeds(tmp_path, capsys):
    path = write_scenario(tmp_path, net_delta=3)
    assert run("necks", path, tmp_path / "out") == 0
    err = capsys.readouterr().err
    assert "cover" in err
    necks = json.loads((tmp_path / "out/scn/necks.json").read_text())
    assert not necks["cover_ok"]
    assert necks["smallest_covering_R"] > 1


def test_gap_single_chi(tmp_path):
    path = write_scenario(tmp_path)
    assert run("gap", path, tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    gap = rep["gap"]
    assert 0 < gap["certified_mu"] <= gap["min_observed_energy"]
    assert len(gap["scenarios"]) == 1


def test_gap_all_expands_to_14(tmp_path):
    path = write_scenario(tmp_path, chi="all")
    assert run("gap", path, tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    assert len(rep["gap"]["scenarios"]) == 14
    assert rep["gap"]["certified_mu"] <= rep["gap"]["min_observed_energy"]


def test_tree_outputs(tmp_path):
    path = write_scenario(tmp_path, wall={"sample_radius": 2})
    assert run("tree", path, tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    tree = rep["tree"]
    assert tree["is_tree"]
    assert tree["walls"] == tree["regions"] - 1
    assert tree["violations"] == 0
    nodes, edges = oracles.parse_dot(
        (tmp_path / "out/scn/tree.dot").read_text())
    assert len(nodes) == tree["regions"]
    assert len(edges) == tree["walls"]
    action = json.loads((tmp_path / "out/scn/action.json").read_text())
    assert action["inversions"] == []
    assert action["h_wall_invariance"]["e"] == "equal"


def test_tree_sample_zero_is_a_single_edge_path(tmp_path):
    path = write_scenario(tmp_path, wall={"sample_radius": 0})
    assert run("tree", path, tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    assert rep["tree"]["walls"] == 1
    assert rep["tree"]["regions"] == 2


def test_structural_failure_is_exit_3(tmp_path, monkeypatch, capsys):
    from ends_splitter.errors import CrossingWalls

    def boom(*args, **kwargs):
        raise CrossingWalls("synthetic crossing")

    monkeypatch.setattr(cli, "indecomposable_regions", boom)
    path = write_scenario(tmp_path)
    assert run("tree", path, tmp_path / "out") == 3
    msg = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert msg["exit_code"] == 3


@pytest.mark.parametrize("command", ["necks", "gap"])
def test_net_spacing_past_the_ball_is_exit_0(tmp_path, capsys, command):
    # a spacing past the radius nets the identity alone; it used to ask
    # for the word ball of radius 44 first
    path = write_scenario(tmp_path, net_delta=45)
    assert run(command, path, tmp_path / "out") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["ok"] is True


def test_sparse_net_structural_failure_is_exit_3(tmp_path):
    path = write_scenario(
        tmp_path, base_radius=2, net_delta=2,
        chi={"map": {"aa": 1, "bb": 1}, "default": 0})
    assert run("necks", path, tmp_path / "out") == 3


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("ENDS_SPLITTER_OUT", str(tmp_path / "envout"))
    path = write_scenario(tmp_path)
    assert cli.main(["solve", "--scenario", path]) == 0
    assert (tmp_path / "envout/scn/report.json").exists()


def test_free_product_scenario_roundtrip(tmp_path):
    # necks of Z/2 * Z/3 start at R=2: removing one vertex never separates
    # its triangle mates
    path = write_scenario(
        tmp_path, group={"kind": "free_product_cyclic", "orders": [2, 3]},
        truncation_radius=10, base_radius=2, net_delta=1, neck_R=2,
        chi={"map": {"ts": 1}, "default": 0},
        wall={"sample_radius": 1})
    assert run("solve", path, tmp_path / "out") == 0
    assert run("necks", path, tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    assert rep["necks"]["K"]


def test_zero_wall_step_is_exit_1_not_a_hang(tmp_path):
    # the threshold search used to retry 0.5 forever on a zero step
    path = write_scenario(tmp_path,
                          chi={"map": {"a": 1, "A": 1}, "default": 0},
                          wall={"step": 0})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "ends_splitter.cli", "tree", "--scenario",
         path, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    msg = json.loads(proc.stdout.strip())
    assert msg["error"] == "ScenarioError" and "step" in msg["message"]


def test_tiny_wall_step_returns(tmp_path):
    # 0.5 + k * 1e-300 rounds to 0.5 for every k a loop could reach, while
    # a sampled value within equality_tol of 0.5 blocks it
    path = write_scenario(tmp_path,
                          chi={"map": {"a": 1, "A": 1}, "default": 0},
                          wall={"step": 1e-300})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "ends_splitter.cli", "tree", "--scenario",
         path, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env)
    msg = json.loads(proc.stdout.strip())
    assert proc.returncode in (0, 1, 2, 3)
    assert msg["ok"] is (proc.returncode == 0)


@pytest.mark.parametrize("wall", [{"step": -0.001}, {"step": float("nan")},
                                  {"sample_radius": 7}])
def test_bad_wall_settings_stop_tree_before_any_work(tmp_path, capsys,
                                                     monkeypatch, wall):
    def unreachable(*args, **kwargs):
        raise AssertionError("the truncation was built")

    monkeypatch.setattr(cli, "build_truncation", unreachable)
    path = write_scenario(tmp_path, wall=wall)
    assert run("tree", path, tmp_path / "out") == 1
    msg = json.loads(capsys.readouterr().out.strip())
    assert msg["error"] == "ScenarioError"


def test_tree_builds_at_most_one_id_map_per_sample_element(tmp_path,
                                                           monkeypatch):
    from ends_splitter.groups import Truncation

    gathers = []
    table = Truncation.right_mult_table

    def counted_table(self, letter):
        gathers.append(letter)
        return table(self, letter)

    def forbidden(*args, **kwargs):
        raise AssertionError("a product was computed outside the id maps")

    monkeypatch.setattr(Truncation, "right_mult_table", counted_table)
    monkeypatch.setattr(Truncation, "rmul_ids", forbidden)   # and pullback
    path = write_scenario(tmp_path, wall={"sample_radius": 2})
    assert run("tree", path, tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out/scn/report.json").read_text())
    # one gather per element other than the identity
    assert len(gathers) == rep["tree"]["sample_size"] - 1 == 16


def test_tree_holds_full_ball_maps_of_one_chain_only(tmp_path, monkeypatch):
    # by work, not by RSS: with the cyclic collector off, follow every
    # full-ball id map of the sample while tree runs on F2 r8
    from scipy.sparse import issparse

    from ends_splitter.groups import Truncation

    stream = Truncation.right_action_stream
    refs, alive, kept = [], [], {}

    def followed(self, elements):
        for i, img in stream(self, elements):
            refs.append(weakref.ref(img))
            alive.append(sum(r() is not None for r in refs))
            yield i, img

    def keep(name, fn):
        def wrapper(*args, **kwargs):
            kept[name] = out = fn(*args, **kwargs)
            return out
        return wrapper

    monkeypatch.setattr(Truncation, "right_action_stream", followed)
    for name in ("solve_dirichlet", "sample_images", "build_walls"):
        monkeypatch.setattr(cli, name, keep(name, getattr(cli, name)))
    path = write_scenario(tmp_path, truncation_radius=8,
                          wall={"sample_radius": 2})
    gc.disable()
    try:
        assert run("tree", path, tmp_path / "out") == 0
        # at most one chain e, w, l * w of maps at once: fewer than the 4
        # maps of sphere 1; none outlives the command
        assert len(refs) == 17 and max(alive) == 3
        assert all(r() is None for r in refs)
    finally:
        gc.enable()

    # every per-element array the walls keep has the common domain's length
    images, system = kept["sample_images"], kept["build_walls"]
    size = int(system.domain.sum())
    assert images.domain is system.domain and size < images.domain.size
    assert [len(img) for img in images.images] == [size] * 17
    assert [len(w.side) for w in system.walls] == [size] * len(system.walls)

    # the solver keeps its class rows, which cover the interior only, and
    # no adjacency of the whole ball
    t = kept["solve_dirichlet"].truncation
    assert not [v for v in t._caches.values() if issparse(v)]
    rows = [a for a, _, _ in t._caches["sweep_rows"]]
    assert sum(a.shape[0] for a in rows) == len(t.interior_ids())


# -- the exit-code contract on arbitrary scenarios -------------------------

_GROUPS = st.one_of(
    st.integers(2, 3).map(lambda rank: {"kind": "free", "rank": rank}),
    st.lists(st.sampled_from([0, 2, 3, 4, "inf"]), min_size=2, max_size=3)
    .filter(lambda orders: orders != [2, 2])
    .map(lambda orders: {"kind": "free_product_cyclic", "orders": orders}),
)
# wrong types, nulls and out-of-range values for any field; no radius
# above 6, so every ball stays small
_ODD = st.sampled_from([None, "x", [], {}, True, -1, 0, 1, 6, 2.5, 1e-300,
                        float("nan"), float("inf"), "first_letter:zz",
                        "all", {"map": 1}])


@st.composite
def _valid_scenarios(draw):
    group = draw(_GROUPS)
    letters = "aAbB" if group["kind"] == "free" else "stT"
    rules = [f"first_letter:{l}" for l in letters]
    base = draw(st.sampled_from([1, 1, 2]))
    radius = draw(st.sampled_from(range(base + 2, 6)))
    chi = draw(st.one_of(
        st.sampled_from(rules + ["all"]),
        st.sampled_from(letters).map(
            lambda l: {"map": {l: 1}, "default": 0}),
        st.lists(st.sampled_from(rules), min_size=1, max_size=2),
    ))
    return {
        "schema": 1, "group": group, "truncation_radius": radius,
        "base_radius": base,
        "neck_R": draw(st.sampled_from(range(1, base + 1))),
        "net_delta": draw(st.sampled_from([1, 2, 3])), "chi": chi,
        "solver": {"tolerance": draw(st.sampled_from([1e-9, 1e-6])),
                   "max_iterations": 2000},
        "wall": {"sample_radius": draw(st.sampled_from([0, 1, 2])),
                 "step": draw(st.sampled_from([1e-3, 0.01])),
                 "equality_tol": draw(st.sampled_from([1e-9, 0.0]))},
        "seed": draw(st.sampled_from(range(10))),
    }


@st.composite
def _scenarios(draw):
    """A valid scenario with up to three fields, nested ones included,
    dropped or replaced by an odd value, and sometimes an unknown field."""
    cfg = draw(_valid_scenarios())
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        node, key = cfg, draw(st.sampled_from(sorted(cfg) + ["knob"]))
        child = cfg.get(key)
        while isinstance(child, (dict, list)) and child and draw(
                st.booleans()):
            node = child
            key = draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
        if isinstance(node, dict) and draw(st.sampled_from([0, 0, 1])):
            node.pop(key, None)
        else:
            node[key] = copy.deepcopy(draw(_ODD))
    # "all" solves 2^classes - 2 problems: 4094 at base radius 2 on F2
    if cfg.get("chi") == "all":
        cfg["base_radius"] = 1
    return cfg


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(cli._RUNNERS)), cfg=_scenarios())
def test_every_scenario_exits_0_to_3_with_one_json_line(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--scenario", path,
                             "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["ok"] is (code == 0)
