"""Start-up cost: the serving and sweep entry points import no scipy.

Every daemon, fabric coordinator and CLI run imports the engine before
doing anything.  scipy is only needed by a few device analyses (heat
diffusion, read-out error rates), which import it when they run; a
module-level scipy import would add ~0.4 s to every start-up, so it
fails here instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["repro.sim.engine", "repro.sim.server",
                                    "repro.sim.fabric", "repro.sim.chaos"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.partition('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
