"""Every span target of ``perfbench/run.py --trace 1`` names a permac function.

The benchmark wraps the targets listed in ``perfbench/spans.py`` by name, so
renaming one of them breaks tracing.  This check resolves each target
without wrapping or running anything.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    missing = []
    for key, modname, path, _opts in spans.TARGETS:
        assert key.split(".", 1)[0] in spans.LAYERS, key
        module = importlib.import_module(f"permac.{modname}")
        try:
            target = spans._resolve(module, path)
        except AttributeError:
            missing.append(f"permac.{modname}.{path}")
            continue
        if not callable(target):
            missing.append(f"permac.{modname}.{path}")
    assert len(spans.TARGETS) >= 40
    assert not missing, missing
