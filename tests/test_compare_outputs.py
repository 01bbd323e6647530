import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "compare_outputs.py"


def compare(base, change, only):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--base", str(base),
         "--change", str(change), "--only", only],
        cwd=ROOT, capture_output=True, text=True)


def test_one_tree_against_itself_shows_no_difference_and_an_edit_shows(
        tmp_path):
    proc = compare(ROOT / "src", ROOT / "src", "golden/tree-z3z-r8")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "same: solve golden/tree-z3z-r8.json (exit 0)",
        "same: necks golden/tree-z3z-r8.json (exit 0)",
        "same: tree golden/tree-z3z-r8.json (exit 0)",
        "same: gap golden/tree-z3z-r8.json (exit 0)",
        "no difference over 4 runs",
    ]

    # a copy whose JSON outputs are indented by two spaces, not one
    edited = tmp_path / "src"
    shutil.copytree(ROOT / "src", edited,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = edited / "ends_splitter" / "cli.py"
    cli.write_text(cli.read_text().replace("indent=1", "indent=2"))
    proc = compare(ROOT / "src", edited, "golden/tree-z3z-r8")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == (
        "DIFFERENT: solve golden/tree-z3z-r8.json: file "
        "tree-z3z-r8/report.json")
