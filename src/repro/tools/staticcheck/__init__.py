"""AST-driven invariant analyzer for the repro tree.

The simulation stack's correctness story rests on invariants no single
test pins end to end: bit-exact parity between the compiled scheduler
twin and its Python mirror, lock discipline across the thread-native execution
plane, digest coverage over every fingerprint field, wire-schema
symmetry, and no thread flipping the process-wide umask.
``python -m repro.tools.staticcheck`` verifies them statically so a
regression fails CI at the diff, not in production.

See :mod:`repro.tools.staticcheck.checkers` for the individual checks
and the pragma syntax (``# staticcheck: allow[...]`` /
``# staticcheck: guarded-by[...]``).
"""

from repro.tools.staticcheck.core import (
    Checker,
    Finding,
    Module,
    Project,
    run_checks,
)
from repro.tools.staticcheck.checkers import ALL_CHECKERS

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "Module",
    "Project",
    "run_checks",
]
