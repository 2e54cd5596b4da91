"""Guards for what lives outside the tier-1 suite but depends on ``src/``.

The serving benchmark (``perfbench/``) wraps named functions of the
program to time each layer; a rename or deletion here would otherwise
break only the traced benchmark run, and silently.  The import check
keeps the serving process free of ``multiprocessing``.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.ledger import SERVER_SPANS, SETUP_SPANS  # noqa: E402


@pytest.mark.parametrize(
    "module_name, attribute",
    [(module, attribute) for module, attribute, _, _ in SERVER_SPANS + SETUP_SPANS],
)
def test_benchmark_span_target_resolves(module_name, attribute):
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), (module_name, attribute)


def test_server_import_leaves_out_multiprocessing():
    probe = (
        "import sys, repro.server.service; "
        "sys.exit('multiprocessing' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
