"""Analyzer self-tests: every checker demonstrated on a fixture
mini-tree (one planted violation + one pragma-suppressed twin each),
the JSON report schema pin, CLI exit-code pins, and the acceptance
gate — the real repo runs clean."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.tools.staticcheck import ALL_CHECKERS, run_checks

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run(tmp_path, files, select=None):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_checks(tmp_path, ALL_CHECKERS, paths=[tmp_path],
                      select=[select] if select else None)


class TestDeterminism:
    def test_wall_clock_in_zone_flagged(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/controller.py": """\
            import time

            def simulate():
                return time.time()
            """}, select="determinism")
        [finding] = result.findings
        assert finding.checker == "determinism"
        assert finding.path.endswith("controller.py")
        assert finding.line == 4
        assert "time.time" in finding.message

    def test_alias_resolved_numpy_global_rng_flagged(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/store.py": """\
            import numpy as np

            def jitter():
                return np.random.rand(4)
            """}, select="determinism")
        [finding] = result.findings
        assert "numpy.random.rand" in finding.message

    def test_seeded_rng_and_out_of_zone_clock_are_fine(self, tmp_path):
        result = _run(tmp_path, {
            "repro/sim/tracegen.py": """\
                import numpy as np

                def trace(seed):
                    rng = np.random.RandomState(seed)
                    gen = np.random.default_rng(seed)
                    return rng, gen
                """,
            # workloads.py is outside the determinism zone.
            "repro/sim/workloads.py": """\
                import time

                def stamp():
                    return time.time()
                """,
        }, select="determinism")
        assert result.findings == []

    def test_pragma_suppresses(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/controller.py": """\
            import os

            def cache_dir():
                # staticcheck: allow[determinism]
                return os.environ.get("CACHE")

            def inline():
                return os.getenv("X")  # staticcheck: allow[*]
            """}, select="determinism")
        assert result.findings == []


class TestLockDiscipline:
    def test_unlocked_write_flagged_locked_write_fine(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/engine.py": """\
            import threading

            # staticcheck: guarded-by[_LOCK]
            _CACHE = {}
            _LOCK = threading.Lock()

            def bad(key, value):
                _CACHE[key] = value

            def also_bad():
                _CACHE.clear()

            def fine(key, value):
                with _LOCK:
                    _CACHE[key] = value

            def lock_free_read(key):
                return _CACHE.get(key)
            """}, select="lock-discipline")
        assert [f.line for f in result.findings] == [8, 11]
        assert "_CACHE" in result.findings[0].message
        assert "with _LOCK" in result.findings[0].message

    def test_reads_mode_flags_unlocked_reads(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/engine.py": """\
            import threading

            # staticcheck: guarded-by[_LOCK, reads]
            _COUNTERS = {"hits": 0}
            _LOCK = threading.Lock()

            def snapshot():
                return dict(_COUNTERS)

            def locked_snapshot():
                with _LOCK:
                    return dict(_COUNTERS)
            """}, select="lock-discipline")
        [finding] = result.findings
        assert finding.line == 8
        assert "read" in finding.message

    def test_register_at_fork_path_exempt(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/engine.py": """\
            import os
            import threading

            # staticcheck: guarded-by[_LOCK]
            _CACHE = {}
            _LOCK = threading.Lock()

            def _reinit():
                _CACHE.clear()

            os.register_at_fork(after_in_child=_reinit)
            """}, select="lock-discipline")
        assert result.findings == []

    def test_audit_erosion_flagged(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/controller.py": """\
            COUNTERS = {}
            """}, select="lock-discipline")
        [finding] = result.findings
        assert "no guarded-by attributes" in finding.message

    def test_pragma_suppresses(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/engine.py": """\
            import threading

            # staticcheck: guarded-by[_LOCK]
            _CACHE = {}
            _LOCK = threading.Lock()

            def shutdown():
                _CACHE.clear()  # staticcheck: allow[lock-discipline]
            """}, select="lock-discipline")
        assert result.findings == []


_FIXTURE_EVALTASK = """\
    from dataclasses import dataclass
    from typing import Optional

    @dataclass(frozen=True)
    class EvalTask:
        architecture: str
        workload: str
        num_requests: int
        seed: int
        queue_depth: Optional[int] = None
    """


class TestDigestCoverage:
    STORE_TEMPLATE = """\
        import dataclasses

        def _sha256(payload):
            return "digest"

        def device_fingerprint(architecture):
            return _sha256(dataclasses.asdict(object()))

        def workload_fingerprint(workload):
            return _sha256({fingerprint_body})

        def task_digest(task):{pragma}
            return _sha256({{
                "schema": 1,
                "results_version": 2,
                "architecture": task.architecture,
                "workload": task.workload,
                "num_requests": task.num_requests,{seed_line}
                "queue_depth": task.queue_depth,
                "device": device_fingerprint(task.architecture),
                "workload_model": workload_fingerprint(task.workload),
            }})
        """

    def _store(self, seed=True, asdict=True, pragma=False):
        return textwrap.dedent(self.STORE_TEMPLATE).format(
            fingerprint_body="dataclasses.asdict(object())" if asdict
            else "repr(workload)",
            seed_line='\n        "seed": task.seed,' if seed else "",
            pragma="" if not pragma else
            "\n    # staticcheck: allow[digest-coverage]")
        # NOTE: the pragma lands on the line above `return _sha256({`,
        # annotating the dict-literal line the findings point at.

    def test_missing_task_field_flagged(self, tmp_path):
        result = _run(tmp_path, {
            "repro/sim/engine.py": _FIXTURE_EVALTASK,
            "repro/sim/store.py": self._store(seed=False),
        }, select="digest-coverage")
        [finding] = result.findings
        assert "'seed'" in finding.message
        assert finding.path.endswith("store.py")

    def test_fingerprint_without_asdict_flagged(self, tmp_path):
        result = _run(tmp_path, {
            "repro/sim/engine.py": _FIXTURE_EVALTASK,
            "repro/sim/store.py": self._store(asdict=False),
        }, select="digest-coverage")
        [finding] = result.findings
        assert "workload_fingerprint" in finding.message
        assert "asdict" in finding.message

    def test_full_coverage_is_clean(self, tmp_path):
        result = _run(tmp_path, {
            "repro/sim/engine.py": _FIXTURE_EVALTASK,
            "repro/sim/store.py": self._store(),
        }, select="digest-coverage")
        assert result.findings == []

    def test_pragma_suppresses(self, tmp_path):
        result = _run(tmp_path, {
            "repro/sim/engine.py": _FIXTURE_EVALTASK,
            "repro/sim/store.py": self._store(seed=False, pragma=True),
        }, select="digest-coverage")
        assert result.findings == []


class TestWireParity:
    def test_field_drift_flagged(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/wire.py": """\
            import dataclasses
            from dataclasses import dataclass

            @dataclass
            class Job:
                alpha: int
                beta: int

            def job_to_dict(job: Job):
                return dataclasses.asdict(job)

            def job_from_dict(payload):
                return Job(alpha=payload.get("alpha", 0), beta=0)
            """}, select="wire-parity")
        [finding] = result.findings
        assert "'beta'" in finding.message
        assert "job_to_dict" in finding.message

    def test_dataclass_field_missing_from_both_sides_flagged(
            self, tmp_path):
        result = _run(tmp_path, {"repro/sim/wire.py": """\
            from dataclasses import dataclass

            @dataclass
            class Point:
                x: int
                y: int

                def to_dict(self):
                    return {"x": self.x}

                @classmethod
                def from_dict(cls, payload):
                    return cls(x=payload["x"], y=0)
            """}, select="wire-parity")
        [finding] = result.findings
        assert "'y'" in finding.message
        assert "wire schema" in finding.message

    def test_schema_driven_pair_is_clean(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/wire.py": """\
            from dataclasses import dataclass, fields

            @dataclass
            class Job:
                alpha: int
                beta: int

                def to_dict(self):
                    return {f.name: getattr(self, f.name)
                            for f in fields(self)}

                @classmethod
                def from_dict(cls, payload):
                    known = {f.name for f in fields(cls)}
                    return cls(**{k: v for k, v in payload.items()
                                  if k in known})
            """}, select="wire-parity")
        assert result.findings == []

    def test_pragma_suppresses(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/wire.py": """\
            import dataclasses
            from dataclasses import dataclass

            @dataclass
            class Job:
                alpha: int
                beta: int

            def job_to_dict(job: Job):
                return dataclasses.asdict(job)

            # staticcheck: allow[wire-parity]
            def job_from_dict(payload):
                return Job(alpha=payload.get("alpha", 0), beta=0)
            """}, select="wire-parity")
        assert result.findings == []


class TestFloatExactness:
    def test_float_libm_and_flags_flagged(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/_fastloop.py": '''\
            _C_SOURCE = """
            float helper(float x) { return sqrt(x); }
            """

            def _compile(source, target):
                return ["-O2", "-shared"]
            ''', }, select="float-exactness")
        messages = [f.message for f in result.findings]
        assert any("`float`" in m for m in messages)
        assert any("sqrt" in m for m in messages)
        assert any("-ffp-contract=off" in m for m in messages)
        assert any("-fno-fast-math" in m for m in messages)
        float_finding = next(f for f in result.findings
                             if "`float`" in f.message)
        assert float_finding.line == 2  # inside the C string literal

    def test_exact_twin_is_clean(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/_fastloop.py": '''\
            _C_SOURCE = """
            #include <math.h>
            /* float in a comment is fine */
            double helper(double x) { return fmod(x, 2.0); }
            """

            def _compile(source, target):
                return ["-O2", "-ffp-contract=off", "-fno-fast-math"]
            ''', }, select="float-exactness")
        assert result.findings == []

    def test_pragma_suppresses_flag_findings(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/_fastloop.py": '''\
            _C_SOURCE = """
            double helper(double x) { return x + 1.0; }
            """

            # staticcheck: allow[float-exactness]
            def _compile(source, target):
                return ["-O2"]
            ''', }, select="float-exactness")
        assert result.findings == []


class TestUmask:
    def test_umask_call_flagged_anywhere(self, tmp_path):
        result = _run(tmp_path, {
            "repro/sim/store.py": """\
                import os

                def current_umask():
                    umask = os.umask(0)
                    os.umask(umask)
                    return umask
                """,
            # Outside every zone, and through a from-import alias.
            "repro/util/files.py": """\
                from os import umask as set_umask

                def private():
                    set_umask(0o077)
                """,
        }, select="umask")
        assert [(f.path.rsplit("/", 1)[1], f.line)
                for f in result.findings] == [("store.py", 4),
                                              ("store.py", 5),
                                              ("files.py", 4)]
        assert "whole process" in result.findings[0].message

    def test_pragma_suppresses(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/store.py": """\
            import os

            def reset():
                os.umask(0o022)  # staticcheck: allow[umask]
            """}, select="umask")
        assert result.findings == []


class TestRunner:
    def test_parse_error_becomes_finding(self, tmp_path):
        result = _run(tmp_path, {"repro/sim/broken.py": "def f(:\n"})
        [finding] = result.findings
        assert finding.checker == "parse"
        assert "syntax error" in finding.message

    def test_select_and_ignore(self, tmp_path):
        files = {"repro/sim/controller.py": "import time\n"
                 "def f():\n    return time.time()\n"}
        selected = _run(tmp_path, files, select="determinism")
        assert selected.checkers == ("determinism",)
        ignored = run_checks(tmp_path, ALL_CHECKERS, paths=[tmp_path],
                             ignore=["determinism", "lock-discipline"])
        assert "determinism" not in ignored.checkers
        assert ignored.findings == []


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.tools.staticcheck", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


class TestCli:
    @pytest.fixture
    def dirty_tree(self, tmp_path):
        module = tmp_path / "repro" / "sim" / "controller.py"
        module.parent.mkdir(parents=True)
        module.write_text("import time\n\ndef f():\n"
                          "    return time.time()\n")
        return tmp_path

    def test_findings_exit_1_clean_exit_0(self, dirty_tree):
        proc = _cli(["--root", str(dirty_tree), str(dirty_tree),
                     "--select", "determinism"], cwd=REPO_ROOT)
        assert proc.returncode == 1
        assert "[determinism]" in proc.stdout
        proc = _cli(["--root", str(dirty_tree), str(dirty_tree),
                     "--select", "wire-parity"], cwd=REPO_ROOT)
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout

    def test_unknown_checker_exits_2(self, dirty_tree):
        proc = _cli(["--select", "nonsense"], cwd=REPO_ROOT)
        assert proc.returncode == 2
        assert "unknown checker" in proc.stderr

    def test_json_schema_pin(self, dirty_tree):
        proc = _cli(["--root", str(dirty_tree), str(dirty_tree),
                     "--format", "json"], cwd=REPO_ROOT)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert set(report) == {"version", "files_scanned", "checkers",
                               "findings"}
        assert report["version"] == 1
        assert report["files_scanned"] == 1
        assert set(report["checkers"]) == {
            "determinism", "lock-discipline", "digest-coverage",
            "wire-parity", "float-exactness", "umask"}
        finding = report["findings"][0]
        assert set(finding) == {"checker", "path", "line", "message",
                                "hint", "severity"}
        assert finding["severity"] == "error"
        assert isinstance(finding["line"], int)

    def test_list_checkers(self):
        proc = _cli(["--list-checkers"], cwd=REPO_ROOT)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == len(ALL_CHECKERS)


class TestRepoIsClean:
    def test_analyzer_passes_on_the_repo(self):
        """The acceptance gate: the shipped tree carries zero findings
        with every checker active."""
        result = run_checks(REPO_ROOT, ALL_CHECKERS)
        assert [f.describe() for f in result.findings] == []
        assert len(result.checkers) == 6
        assert result.files_scanned > 50
