"""Start-up cost: the serving and sweep entry points import no scipy.

Every daemon, fabric coordinator and CLI run imports the engine before
doing anything.  scipy is only needed by a few device analyses (heat
diffusion, read-out error rates), which import it when they run; a
module-level scipy import would add ~0.4 s to every start-up, so it
fails here instead.  Likewise the engine loads no networking stack: the
server, client and fabric modules (and the asyncio and ssl they pull
in) load only when imported by their module path.  No serving module
loads the stdlib HTTP client at all: both bundled clients parse replies
with one reader of their own.
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


@pytest.mark.parametrize("module", ["repro.sim.client", "repro.sim.fabric",
                                    "repro.sim.chaos"])
def test_serving_import_loads_no_stdlib_http_client(module):
    # ``client._response_steps`` is the one response parser; a second
    # one arriving through ``http.client`` would show here.
    assert _loaded_after_import(
        module, "name == 'http.client'") == "[]"
