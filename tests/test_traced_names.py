"""Every function the benchmark tracer wraps still exists in the package.

perfbench/tracing.py names the functions it wraps as (module, qualified
name) pairs, and a traced benchmark run fails on a name that no longer
resolves.  A removal from the package fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _resolves(module, qualname):
    owner = importlib.import_module("plotgarden." + module)
    if "." in qualname:
        # the tracer replaces methods in the class's own namespace
        cls_name, attr = qualname.split(".")
        return callable(vars(getattr(owner, cls_name, object)).get(attr))
    return callable(getattr(owner, qualname, None))


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    names = [target for targets in tracing.LAYERS.values()
             for target in targets] + list(tracing.COUNTED.values())
    assert ("garden", "flower_structure") in names
    assert ("topology", "FiniteSpace.lens") in names
    assert [n for n in names if not _resolves(*n)] == []
