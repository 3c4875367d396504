"""The benchmark's span targets still name real functions.

`perfbench/spans.py` wraps the functions listed in `TARGETS` by name when a
run is traced (`--trace 1`).  A renamed or deleted target only breaks that
run, so this test resolves every entry the way `Tracer.install` does, without
installing anything: `getattr(module, name)` for a function, and
`Class.__dict__[attr]` for a method, classmethod or property.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_every_target_resolves(layer):
    mod = importlib.import_module("csi_graphlab." + layer)
    for path in TARGETS[layer]:
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(mod, cls_name)), path
        else:
            assert callable(getattr(mod, path)), path
