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
