"""The benchmark's traced run replaces library names by timing wrappers; each
name it wraps must still exist, so a rename fails here and not only there."""

import importlib.util
from pathlib import Path

TRACED_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    traced = load_traced()
    assert traced.TRACED
    for owner, attr, span, _ in traced.TRACED:
        assert hasattr(owner, attr), f"{span}: {owner.__name__}.{attr} is gone"
