import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surfrec


def test_every_exported_name_resolves():
    missing = [name for name in surfrec.__all__ if not hasattr(surfrec, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(surfrec.__all__) == len(set(surfrec.__all__))


def test_every_benchmark_hook_resolves():
    # the benchmark times the layers the library calls internally by wrapping
    # these module attributes; a refactor that drops one unhooks a layer
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.HOOKS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert spans.HOOKS and missing == []


@pytest.mark.parametrize("module", ["surfrec", "surfrec.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    # the child must import this same package, installed or not
    src = str(Path(surfrec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
