"""The benchmark's traced launcher wraps package functions by name, so each
name it lists must exist; a renamed stage would break ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_the_package():
    # read the tables only: loading the launcher patches nothing
    spec = importlib.util.spec_from_file_location("traced_launcher", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(layer, qualname)
             for table in (tracer.SPANNED, tracer.COUNTED)
             for layer, qualnames in table.items() for qualname in qualnames]
    assert names
    missing = []
    for layer, qualname in names:
        obj = importlib.import_module(f"ends_splitter.{layer}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{qualname}")
    assert missing == []
