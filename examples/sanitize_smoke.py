"""Sanitized-kernel smoke test: the CI driver for the kernel-sanitize job.

Recompiles the exact-twin C kernel (``repro.sim._fastloop``) under
AddressSanitizer and UndefinedBehaviorSanitizer and runs the cross-tier
equivalence suites against the instrumented builds — every drawn cell
compares the twin's ``CellResult`` with the Python mirror's field for
field — so memory errors and UB in the twin fail CI instead of silently
corrupting schedules.

Per sanitizer the script

1. probes, in a throwaway subprocess, whether the local toolchain can
   compile a trivial sanitized shared object *and* dlopen it into a
   plain CPython process (ASan needs ``LD_PRELOAD=libasan.so`` for
   that; TSan's preload is broken on some toolchains) — unsupported
   legs are skipped with a note, never failed;
2. asserts the instrumented kernel actually loads
   (``_fastloop.available()`` is True under ``REPRO_FASTLOOP_SANITIZE``)
   — without this the equivalence suites would silently fall back to
   the Python mirror and pass vacuously;
3. runs the kernel equivalence and scheduler suites under the
   sanitizer, with the build cache pointed at a temp dir so
   instrumented artifacts never touch the production cache.

Exit codes: 0 = all supported legs passed (or every leg skipped on an
unsupported toolchain), 1 = a supported leg failed.

Usage::

    PYTHONPATH=src python examples/sanitize_smoke.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Suites that exercise the compiled twin against the Python mirror.
#: ``test_controller_kernel.py`` also runs the twin from two pool
#: threads at once, which is what the TSan leg needs to see a race.
EQUIVALENCE_SUITES = [
    "tests/property/test_kernel_equivalence.py",
    "tests/sim/test_controller_kernel.py",
    "tests/sim/test_controller_shared_bus_kernel.py",
]

#: Sanitizer legs, in the order they run.  ``required`` legs fail the
#: script when unsupported toolchains are the *only* reason nothing ran.
LEGS = ["asan", "ubsan", "tsan"]

_PROBE_C = textwrap.dedent(
    """
    int probe_value(void) { return 42; }
    """
)

_PROBE_PY = textwrap.dedent(
    """
    import ctypes, sys
    lib = ctypes.CDLL(sys.argv[1])
    sys.exit(0 if lib.probe_value() == 42 else 1)
    """
)


def _cc() -> str:
    return os.environ.get("CC", "cc")


def _libasan_path() -> str:
    out = subprocess.run(
        [_cc(), "-print-file-name=libasan.so"],
        capture_output=True, text=True, check=False,
    )
    path = out.stdout.strip()
    # An unresolved lookup echoes the bare name back.
    return path if "/" in path else ""


def leg_env(leg: str) -> dict:
    """Environment overrides that make a sanitized .so loadable from
    an uninstrumented CPython interpreter."""
    env = {}
    if leg == "asan":
        libasan = _libasan_path()
        if libasan:
            env["LD_PRELOAD"] = libasan
        # CPython's arenas look like leaks to LSan; leak checking is
        # not what this job is for.
        env["ASAN_OPTIONS"] = "detect_leaks=0"
    elif leg == "ubsan":
        env["UBSAN_OPTIONS"] = "print_stacktrace=1"
    elif leg == "tsan":
        libtsan = _probe_lib("libtsan.so")
        if libtsan:
            env["LD_PRELOAD"] = libtsan
    return env


def _probe_lib(name: str) -> str:
    out = subprocess.run(
        [_cc(), f"-print-file-name={name}"],
        capture_output=True, text=True, check=False,
    )
    path = out.stdout.strip()
    return path if "/" in path else ""


def probe_leg(leg: str, flags: tuple) -> bool:
    """True when a trivial ``-fsanitize=<leg>`` shared object both
    compiles and dlopens in a fresh interpreter with the leg's env."""
    with tempfile.TemporaryDirectory(prefix=f"sanprobe-{leg}-") as tmp:
        src = Path(tmp) / "probe.c"
        so = Path(tmp) / "probe.so"
        src.write_text(_PROBE_C)
        compiled = subprocess.run(
            [_cc(), "-O1", "-fPIC", "-shared", *flags,
             str(src), "-o", str(so)],
            capture_output=True, check=False,
        )
        if compiled.returncode != 0 or not so.exists():
            return False
        env = dict(os.environ)
        env.pop("REPRO_FASTLOOP", None)
        env.update(leg_env(leg))
        loaded = subprocess.run(
            [sys.executable, "-c", _PROBE_PY, str(so)],
            capture_output=True, env=env, check=False, timeout=60,
        )
        return loaded.returncode == 0


def run_leg(leg: str, cache_dir: str) -> bool:
    """Run the equivalence suites under one sanitizer.  Returns pass/fail."""
    env = dict(os.environ)
    # The legs test the compiled twin, so a caller's REPRO_FASTLOOP=0
    # kill switch must not reach them; the preflight below still fails
    # the leg when the instrumented kernel does not load.
    env.pop("REPRO_FASTLOOP", None)
    env.update(leg_env(leg))
    env["REPRO_FASTLOOP_SANITIZE"] = leg
    env["REPRO_FASTLOOP_CACHE"] = cache_dir
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    # Preflight: the instrumented twin must actually load.  If it does
    # not, the suites below would exercise the Python fallback and this
    # job would be green while testing nothing.
    preflight = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.sim import _fastloop; "
         "sys.exit(0 if _fastloop.available() else 1)"],
        capture_output=True, text=True, env=env, check=False, timeout=300,
    )
    if preflight.returncode != 0:
        print(f"[{leg}] FAIL: sanitized kernel did not load "
              f"(equivalence run would be vacuous)")
        sys.stdout.write(preflight.stdout)
        sys.stderr.write(preflight.stderr)
        return False
    print(f"[{leg}] instrumented kernel loaded; running equivalence suites")

    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *EQUIVALENCE_SUITES],
        cwd=REPO_ROOT, env=env, check=False,
    )
    return result.returncode == 0


def main() -> int:
    if shutil.which(_cc()) is None:
        print("SKIP: no C compiler on PATH; sanitized builds unavailable")
        return 0

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.sim import _fastloop

    failures = []
    ran = []
    for leg in LEGS:
        flags = _fastloop._SANITIZER_FLAGS[leg]
        if not probe_leg(leg, flags):
            print(f"[{leg}] SKIP: toolchain cannot build+load "
                  f"-fsanitize={leg} shared objects")
            continue
        with tempfile.TemporaryDirectory(prefix=f"sancache-{leg}-") as cache:
            ok = run_leg(leg, cache)
        ran.append(leg)
        if not ok:
            failures.append(leg)
            print(f"[{leg}] FAIL")
        else:
            print(f"[{leg}] PASS")

    if not ran:
        print("SKIP: no sanitizer leg supported on this toolchain")
        return 0
    if failures:
        print(f"sanitize smoke: FAILED legs: {', '.join(failures)}")
        return 1
    print(f"sanitize smoke: all legs passed ({', '.join(ran)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
