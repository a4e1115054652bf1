"""Import graph: the package root loads no module, and the trade-off solver
loads only the modules it uses."""

import json
import os
import subprocess
import sys

import pytest


def _loaded_after(statement, src_path):
    """Sorted ``hude.*`` modules loaded after ``statement`` runs in a fresh interpreter."""
    code = (
        f"import json, sys; {statement}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hude.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=str(src_path)),
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "statement, modules",
    [
        ("import hude", []),
        ("import hude.tradeoff", ["hude.tradeoff"]),
    ],
)
def test_modules_loaded(statement, modules, src_path):
    assert _loaded_after(statement, src_path) == modules
