"""The package's runtime dependency is numpy alone: importing it loads no scipy."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["eigerr", "eigerr.cli"])
def test_import_loads_no_scipy(module):
    # A fresh interpreter: this one has scipy loaded by the test oracles.
    code = (f"import sys, json; sys.path.insert(0, {str(SRC)!r}); import {module}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert json.loads(done.stdout) == []
