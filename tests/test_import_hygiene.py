"""Start-up cost: the serving and sweep entry points import no scipy.

Every daemon, fabric coordinator and CLI run imports the engine before
doing anything.  scipy is only needed by a few device analyses (heat
diffusion, read-out error rates), which import it when they run; a
module-level scipy import would add ~0.4 s to every start-up, so it
fails here instead.  Likewise the engine loads no networking stack: the
server, client and fabric modules (and the asyncio, ssl and http.client
they pull in) load only when imported by their module path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after_import(module, condition):
    """Sorted ``sys.modules`` names matching ``condition`` (a Python
    expression over ``name``) after a fresh interpreter imports
    ``module``."""
    code = (f"import sys, {module}\n"
            "print(sorted(name for name in sys.modules\n"
            f"             if {condition}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize("module", ["repro.sim.engine", "repro.sim.server",
                                    "repro.sim.fabric", "repro.sim.chaos"])
def test_import_loads_no_scipy(module):
    assert _loaded_after_import(
        module, "name.partition('.')[0] == 'scipy'") == "[]"


def test_engine_import_loads_no_networking():
    unwanted = ("asyncio", "http.client", "ssl", "repro.sim.server",
                "repro.sim.client", "repro.sim.fabric")
    assert _loaded_after_import(
        "repro.sim.engine", f"name in {unwanted!r}") == "[]"
