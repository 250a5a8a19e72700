"""The repo-specific checkers.

Each one pins an invariant the simulation stack's correctness argument
rests on; module scopes are matched by path *suffix* so the same
checkers run over fixture mini-trees in the analyzer's own tests.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.tools.staticcheck.core import (
    Checker,
    Finding,
    Module,
    Project,
    dotted_name,
)

#: Modules whose outputs feed result digests: anything nondeterministic
#: here silently poisons the content-addressed store.
DETERMINISM_ZONE = (
    "repro/sim/controller.py",
    "repro/sim/_fastloop.py",
    "repro/sim/store.py",
    "repro/sim/stats.py",
    "repro/sim/tracegen.py",
)

#: The PR 7 thread-audit set: these modules hold the shared state the
#: thread-native execution plane mutates, and must keep declaring their
#: guarded attributes (an empty registry means the audit eroded).
LOCK_AUDITED = (
    "repro/sim/controller.py",
    "repro/sim/engine.py",
    "repro/sim/_fastloop.py",
    "repro/sim/fabric.py",
)


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """local name -> fully qualified module/attribute path."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _resolve(node: ast.expr, aliases: Dict[str, str]) -> str:
    """Dotted name with the import alias for its head expanded."""
    name = dotted_name(node)
    if not name:
        return ""
    head, _, rest = name.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded


class DeterminismChecker(Checker):
    name = "determinism"
    description = ("no wall-clock, unseeded RNG, or environment reads "
                   "inside kernel/controller/digest/store modules")

    _CLOCKS = {
        "time.time", "time.time_ns", "time.monotonic",
        "time.monotonic_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.clock_gettime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
    }
    _UNSEEDED_NUMPY = {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "bytes", "choice", "shuffle", "permutation", "seed",
        "normal", "uniform", "poisson", "exponential", "standard_normal",
    }
    _SEEDABLE = {"numpy.random.default_rng", "numpy.random.RandomState",
                 "numpy.random.Generator"}

    def check_module(self, module: Module,
                     project: Project) -> Iterable[Finding]:
        if not any(module.rel.endswith(s) for s in DETERMINISM_ZONE):
            return ()
        aliases = _import_aliases(module.tree)
        flagged: Dict[Tuple[int, str], Finding] = {}

        def flag(node: ast.AST, what: str, hint: str) -> None:
            key = (node.lineno, what)
            if key not in flagged:
                flagged[key] = Finding(
                    checker=self.name, path=module.rel, line=node.lineno,
                    message=what, hint=hint)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _resolve(node.func, aliases)
                self._check_call(node, name, flag)
            elif isinstance(node, (ast.Attribute, ast.Name)):
                name = _resolve(node, aliases)
                if name in ("os.environ", "os.getenv"):
                    flag(node, f"environment read ({name})",
                         "thread configuration through explicit "
                         "parameters, or annotate a deliberate config "
                         "read with `# staticcheck: allow[determinism]`")
        return list(flagged.values())

    def _check_call(self, node: ast.Call, name: str, flag) -> None:
        seed_hint = ("derive randomness from the task seed "
                     "(np.random.RandomState(seed) / default_rng(seed))")
        if name in self._CLOCKS:
            flag(node, f"wall-clock read ({name}())",
                 "results must be pure functions of the task; keep "
                 "timing in the profiling layer")
        elif name.startswith("random.") or name == "random":
            flag(node, f"stdlib random ({name}()) is process-global "
                 "state", seed_hint)
        elif name in self._SEEDABLE:
            has_seed = bool(node.args) or any(
                kw.arg == "seed" for kw in node.keywords)
            if not has_seed:
                flag(node, f"unseeded RNG construction ({name}())",
                     seed_hint)
        elif name.startswith("numpy.random.") \
                and name.rsplit(".", 1)[1] in self._UNSEEDED_NUMPY:
            flag(node, f"global numpy RNG ({name}())", seed_hint)
        elif name.startswith("uuid.uuid") or name.startswith("secrets."):
            flag(node, f"nondeterministic source ({name}())", seed_hint)


#: Mutating container methods: calling one of these on a guarded name
#: is a write even though the name itself is only loaded.
_MUTATORS = {
    "clear", "update", "setdefault", "pop", "popitem", "append",
    "extend", "insert", "remove", "discard", "add", "sort", "reverse",
}


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    description = ("attributes declared `# staticcheck: guarded-by[L]` "
                   "are only touched inside `with L:` (or a "
                   "register_at_fork reinit path)")

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings = []
        for suffix in LOCK_AUDITED:
            for module in project.matching(suffix):
                if not module.guards:
                    findings.append(Finding(
                        checker=self.name, path=module.rel, line=1,
                        message="thread-audited module declares no "
                                "guarded-by attributes",
                        hint="annotate the module's shared state with "
                             "`# staticcheck: guarded-by[_LOCK]` (the "
                             "PR 7 audit set must not erode)"))
        return findings

    def check_module(self, module: Module,
                     project: Project) -> Iterable[Finding]:
        registry: Dict[str, Tuple[str, bool]] = {}
        findings: List[Finding] = []
        for decl in module.guards:
            names = _assignment_targets(module.tree, decl.line)
            if not names:
                findings.append(Finding(
                    checker=self.name, path=module.rel, line=decl.line,
                    message="guarded-by pragma does not annotate a "
                            "module-level assignment",
                    hint="place the pragma on (or directly above) the "
                         "line defining the guarded attribute"))
                continue
            for name in names:
                registry[name] = (decl.lock, decl.reads)
        if not registry:
            return findings

        fork_exempt = _fork_handler_names(module.tree)
        seen: Set[Tuple[int, str]] = set()

        def report(node: ast.AST, attr: str, lock: str,
                   verb: str) -> None:
            key = (node.lineno, attr)
            if key in seen:
                return
            seen.add(key)
            findings.append(Finding(
                checker=self.name, path=module.rel, line=node.lineno,
                message=f"{verb} of guarded attribute '{attr}' outside "
                        f"`with {lock}:`",
                hint=f"take {lock} (or move the access into a "
                     f"register_at_fork reinit path)"))

        def visit(node: ast.AST, held: Set[str], exempt: bool) -> None:
            if isinstance(node, ast.With):
                locks = set(held)
                for item in node.items:
                    name = dotted_name(item.context_expr)
                    if name:
                        locks.add(name)
                for child in node.body:
                    visit(child, locks, exempt)
                return
            if isinstance(node, ast.Call):
                if not exempt:
                    self._check_access(node, registry, held, report)
                callee = dotted_name(node.func)
                in_fork = exempt or callee.endswith("register_at_fork")
                for child in ast.iter_child_nodes(node):
                    visit(child, held, in_fork)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body_exempt = exempt or node.name in fork_exempt
                for child in ast.iter_child_nodes(node):
                    visit(child, held, body_exempt)
                return
            if not exempt:
                self._check_access(node, registry, held, report)
            for child in ast.iter_child_nodes(node):
                visit(child, held, exempt)

        # Module-level statements run once under the import lock before
        # any pool exists; only function bodies face concurrency.
        for top in ast.walk(module.tree):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                parent_chain_exempt = top.name in fork_exempt if \
                    isinstance(top, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)) else False
                body = top.body if isinstance(top.body, list) \
                    else [top.body]
                for child in body:
                    visit(child, set(), parent_chain_exempt)
        return findings

    def _check_access(self, node, registry, held, report) -> None:
        def guarded(name: str) -> Optional[Tuple[str, str, bool]]:
            entry = registry.get(name)
            if entry is None:
                return None
            lock, reads = entry
            return (name, lock, reads)

        def check_target(target: ast.expr) -> None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    check_target(element)
                return
            base = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                entry = guarded(base.id)
                if entry and entry[1] not in held:
                    report(target, entry[0], entry[1], "write")

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                check_target(target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                check_target(target)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS \
                and isinstance(node.func.value, ast.Name):
            entry = guarded(node.func.value.id)
            if entry and entry[1] not in held:
                report(node, entry[0], entry[1],
                       f"mutation (.{node.func.attr}())")
        elif isinstance(node, ast.Name) \
                and isinstance(node.ctx, ast.Load):
            entry = guarded(node.id)
            if entry and entry[2] and entry[1] not in held:
                report(node, entry[0], entry[1], "read")


def _assignment_targets(tree: ast.Module, line: int) -> List[str]:
    names: List[str] = []
    for node in tree.body:
        if node.lineno != line:
            continue
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.append(target.id)
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _fork_handler_names(tree: ast.AST) -> Set[str]:
    """Names of functions passed to ``os.register_at_fork`` — their
    bodies are fork-reinit paths, exempt from lock discipline."""
    handlers: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and dotted_name(node.func).endswith("register_at_fork"):
            for arg in list(node.args) + [kw.value for kw in
                                          node.keywords]:
                if isinstance(arg, ast.Name):
                    handlers.add(arg.id)
    return handlers


class DigestCoverageChecker(Checker):
    name = "digest-coverage"
    description = ("every EvalTask field and both model fingerprints "
                   "flow into the store digest")

    _META_KEYS = ("results_version", "device", "workload_model")

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for module in project.matching("repro/sim/store.py"):
            findings.extend(self._check_store(module, project))
        return findings

    def _check_store(self, module: Module,
                     project: Project) -> List[Finding]:
        findings: List[Finding] = []
        digest_fn = _find_function(module.tree, "task_digest")
        if digest_fn is None:
            return [Finding(
                checker=self.name, path=module.rel, line=1,
                message="store module has no task_digest()",
                hint="the content-addressed store needs a digest "
                     "covering every task field")]
        keys, line = self._digest_keys(digest_fn)
        if keys is None:
            return [Finding(
                checker=self.name, path=module.rel,
                line=digest_fn.lineno,
                message="task_digest() does not hash a literal dict of "
                        "fields (coverage is unverifiable)",
                hint="build the digest payload as a dict literal so "
                     "field coverage stays statically checkable")]
        task_fields = project.dataclass_fields("EvalTask")
        if task_fields is None:
            findings.append(Finding(
                checker=self.name, path=module.rel,
                line=digest_fn.lineno,
                message="EvalTask dataclass not found in the scanned "
                        "tree (digest coverage is unverifiable)",
                hint="scan the whole src tree so the task schema is "
                     "visible"))
            task_fields = []
        for name in task_fields:
            if name not in keys:
                findings.append(Finding(
                    checker=self.name, path=module.rel, line=line,
                    message=f"EvalTask field '{name}' does not flow "
                            f"into task_digest()",
                    hint="add the field to the digest payload (and "
                         "bump RESULTS_VERSION if stored results are "
                         "invalidated)"))
        for meta in self._META_KEYS:
            if meta not in keys:
                findings.append(Finding(
                    checker=self.name, path=module.rel, line=line,
                    message=f"digest payload is missing the '{meta}' "
                            f"key",
                    hint="device/workload fingerprints and the results "
                         "version must invalidate stored cells"))
        for fn_name in ("device_fingerprint", "workload_fingerprint"):
            fn = _find_function(module.tree, fn_name)
            if fn is None:
                findings.append(Finding(
                    checker=self.name, path=module.rel, line=1,
                    message=f"store module has no {fn_name}()",
                    hint="model fingerprints keep stored results "
                         "honest across model edits"))
            elif not self._uses_asdict(fn):
                findings.append(Finding(
                    checker=self.name, path=module.rel, line=fn.lineno,
                    message=f"{fn_name}() does not hash via "
                            f"dataclasses.asdict (fields can drift out "
                            f"of the fingerprint)",
                    hint="hash dataclasses.asdict(model) so new model "
                         "fields invalidate old results automatically"))
        return findings

    @staticmethod
    def _digest_keys(fn: ast.FunctionDef):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) \
                    and dotted_name(node.func).split(".")[-1] \
                    in ("_sha256", "sha256"):
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        keys = {key.value for key in arg.keys
                                if isinstance(key, ast.Constant)
                                and isinstance(key.value, str)}
                        return keys, arg.lineno
        return None, fn.lineno

    @staticmethod
    def _uses_asdict(fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) \
                    and dotted_name(node.func).split(".")[-1] == "asdict":
                return True
        return False


class WireParityChecker(Checker):
    name = "wire-parity"
    description = "to_dict/from_dict pairs cover identical field sets"

    def check_module(self, module: Module,
                     project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                to_fn = _find_function(node, "to_dict", depth=1)
                from_fn = _find_function(node, "from_dict", depth=1)
                if to_fn is not None and from_fn is not None:
                    findings.extend(self._compare(
                        module, project, to_fn, from_fn, owner=node))
        to_fns = {n.name[:-len("_to_dict")]: n
                  for n in module.tree.body
                  if isinstance(n, ast.FunctionDef)
                  and n.name.endswith("_to_dict")}
        from_fns = {n.name[:-len("_from_dict")]: n
                    for n in module.tree.body
                    if isinstance(n, ast.FunctionDef)
                    and n.name.endswith("_from_dict")}
        for stem, to_fn in to_fns.items():
            from_fn = from_fns.get(stem)
            if from_fn is not None:
                findings.extend(self._compare(
                    module, project, to_fn, from_fn, owner=None))
        return findings

    def _compare(self, module: Module, project: Project,
                 to_fn: ast.FunctionDef, from_fn: ast.FunctionDef,
                 owner: Optional[ast.ClassDef]) -> List[Finding]:
        to_cov = self._coverage(to_fn, project, owner, side="to")
        from_cov = self._coverage(from_fn, project, owner, side="from")
        if to_cov is None or from_cov is None:
            return []    # unresolvable schema: stay silent, not wrong
        findings = []
        for name in sorted(to_cov - from_cov):
            findings.append(Finding(
                checker=self.name, path=module.rel, line=from_fn.lineno,
                message=f"field '{name}' is written by {to_fn.name}() "
                        f"but never read by {from_fn.name}()",
                hint="wire formats must round-trip: read the field (or "
                     "stop serializing it)"))
        for name in sorted(from_cov - to_cov):
            findings.append(Finding(
                checker=self.name, path=module.rel, line=to_fn.lineno,
                message=f"field '{name}' is read by {from_fn.name}() "
                        f"but never written by {to_fn.name}()",
                hint="wire formats must round-trip: serialize the "
                     "field (or stop reading it)"))
        if owner is not None and not findings:
            fields = project.dataclass_fields(owner.name)
            if fields:
                for name in fields:
                    if name not in to_cov:
                        findings.append(Finding(
                            checker=self.name, path=module.rel,
                            line=to_fn.lineno,
                            message=f"dataclass field '{name}' of "
                                    f"{owner.name} is not covered by "
                                    f"its wire schema",
                            hint="new fields must ship over the wire "
                                 "or be explicitly excluded"))
        return findings

    def _coverage(self, fn: ast.FunctionDef, project: Project,
                  owner: Optional[ast.ClassDef],
                  side: str) -> Optional[Set[str]]:
        explicit: Set[str] = set()
        schema_classes: Set[str] = set()
        attr_tokens: Set[str] = set()
        payload = self._payload_param(fn) if side == "from" else None

        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func).split(".")[-1]
                if callee in ("asdict", "fields"):
                    cls = self._schema_class(node, fn, owner)
                    if cls is None:
                        return None
                    schema_classes.add(cls)
                elif isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "get" \
                        and payload is not None \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id == payload:
                    if node.args and isinstance(node.args[0],
                                                ast.Constant) \
                            and isinstance(node.args[0].value, str):
                        explicit.add(node.args[0].value)
                elif payload is not None and any(
                        isinstance(arg, ast.Name) and arg.id == payload
                        for arg in node.args):
                    for arg in node.args:
                        if isinstance(arg, ast.Constant) \
                                and isinstance(arg.value, str):
                            explicit.add(arg.value)
            elif isinstance(node, ast.Subscript):
                container = node.value
                index = node.slice
                if isinstance(index, ast.Constant) \
                        and isinstance(index.value, str):
                    if side == "to" or (
                            payload is not None
                            and isinstance(container, ast.Name)
                            and container.id == payload):
                        explicit.add(index.value)
            elif isinstance(node, ast.Dict) and side == "to":
                for key in node.keys:
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        explicit.add(key.value)
            elif isinstance(node, (ast.For, ast.comprehension)):
                token = dotted_name(node.iter)
                if token.startswith(("self.", "cls.")):
                    name = token.split(".", 1)[1]
                    # Only ALL_CAPS class constants are schema sources
                    # (e.g. _AXES); iterating a data field is not.
                    if name.isupper():
                        attr_tokens.add(name)

        coverage = set(explicit)
        for cls in schema_classes:
            fields = project.dataclass_fields(cls)
            if fields is None:
                return None
            coverage.update(fields)
        for token in attr_tokens:
            values = self._class_constant(owner, token)
            if values is None:
                return None
            coverage.update(values)
        if not coverage:
            return None
        return coverage

    @staticmethod
    def _payload_param(fn: ast.FunctionDef) -> Optional[str]:
        args = [a.arg for a in fn.args.args if a.arg not in ("self",
                                                             "cls")]
        return args[0] if args else None

    @staticmethod
    def _schema_class(call: ast.Call, fn: ast.FunctionDef,
                      owner: Optional[ast.ClassDef]) -> Optional[str]:
        """Which dataclass an asdict()/fields() call covers."""
        if not call.args:
            return None
        arg = call.args[0]
        name = dotted_name(arg)
        if name in ("self", "cls") and owner is not None:
            return owner.name
        for param in fn.args.args:
            if param.arg == name and param.annotation is not None:
                annotation = dotted_name(param.annotation)
                if annotation:
                    return annotation.split(".")[-1]
        if owner is not None:
            return owner.name
        return None

    @staticmethod
    def _class_constant(owner: Optional[ast.ClassDef],
                        name: str) -> Optional[List[str]]:
        if owner is None:
            return None
        for stmt in owner.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        if isinstance(stmt.value, (ast.Tuple, ast.List)):
                            values = []
                            for element in stmt.value.elts:
                                if isinstance(element, ast.Constant) \
                                        and isinstance(element.value,
                                                       str):
                                    values.append(element.value)
                                else:
                                    return None
                            return values
        return None


_C_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_BANNED_LIBM = re.compile(
    r"\b(sinh?|cosh?|tanh?|asin|acos|atan2?|exp2?|expm1|"
    r"log(?:2|10|1p)?|pow|sqrt|cbrt|hypot|[lt]gamma|erfc?)\s*\(")
_FLOAT_RE = re.compile(r"\bfloat\b")


class FloatExactnessChecker(Checker):
    name = "float-exactness"
    description = ("the C twin uses double only, no non-exact libm "
                   "calls, and builds with -ffp-contract=off "
                   "-fno-fast-math")

    _REQUIRED_FLAGS = ("-ffp-contract=off", "-fno-fast-math")
    _FORBIDDEN_FLAGS = ("-ffast-math", "-Ofast",
                        "-funsafe-math-optimizations")

    def check_module(self, module: Module,
                     project: Project) -> Iterable[Finding]:
        if not module.rel.endswith("_fastloop.py"):
            return ()
        findings: List[Finding] = []
        source_node = self._c_source(module.tree)
        if source_node is None:
            findings.append(Finding(
                checker=self.name, path=module.rel, line=1,
                message="no _C_SOURCE string literal found",
                hint="the twin's C source must live in _C_SOURCE so "
                     "exactness stays statically checkable"))
        else:
            findings.extend(self._scan_c(module, source_node))
        findings.extend(self._check_flags(module))
        return findings

    @staticmethod
    def _c_source(tree: ast.Module) -> Optional[ast.Constant]:
        for node in tree.body:
            if isinstance(node, ast.Assign) \
                    and any(isinstance(t, ast.Name)
                            and t.id == "_C_SOURCE"
                            for t in node.targets) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                return node.value
        return None

    def _scan_c(self, module: Module,
                node: ast.Constant) -> List[Finding]:
        findings = []
        text = _C_COMMENT_RE.sub(
            lambda m: "\n" * m.group(0).count("\n"), node.value)
        for offset, line in enumerate(text.split("\n")):
            code = line.split("//", 1)[0]
            file_line = node.lineno + offset
            if _FLOAT_RE.search(code):
                findings.append(Finding(
                    checker=self.name, path=module.rel, line=file_line,
                    message="C twin declares `float` — the Python mirror "
                            "computes in IEEE-754 double",
                    hint="use `double`; a narrowing conversion moves "
                         "results by an ulp and breaks bit-identity"))
            for match in _BANNED_LIBM.finditer(code):
                findings.append(Finding(
                    checker=self.name, path=module.rel, line=file_line,
                    message=f"C twin calls {match.group(1)}() — libm "
                            f"transcendentals are not bit-stable "
                            f"across implementations",
                    hint="only exactly-rounded operations (+-*/, "
                         "fmod, fabs, floor, ceil) keep the twin "
                         "bit-identical"))
        return findings

    def _check_flags(self, module: Module) -> List[Finding]:
        compile_fn = _find_function(module.tree, "_compile")
        if compile_fn is None:
            return [Finding(
                checker=self.name, path=module.rel, line=1,
                message="no _compile() found (build flags are "
                        "unverifiable)",
                hint="keep the twin's build in a _compile() helper so "
                     "its flags stay statically checkable")]
        strings = {node.value for node in ast.walk(compile_fn)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)}
        findings = []
        for flag in self._REQUIRED_FLAGS:
            if flag not in strings:
                findings.append(Finding(
                    checker=self.name, path=module.rel,
                    line=compile_fn.lineno,
                    message=f"twin build is missing {flag}",
                    hint="contraction/fast-math must stay off or FMA "
                         "fusion moves results by an ulp"))
        for flag in self._FORBIDDEN_FLAGS:
            if flag in strings:
                findings.append(Finding(
                    checker=self.name, path=module.rel,
                    line=compile_fn.lineno,
                    message=f"twin build passes {flag}",
                    hint="value-changing optimization flags break the "
                         "bit-identity contract"))
        return findings


class UmaskChecker(Checker):
    name = "umask"
    description = ("no os.umask call: the umask is read by setting it, "
                   "process-wide, under every other thread")

    def check_module(self, module: Module,
                     project: Project) -> Iterable[Finding]:
        aliases = _import_aliases(module.tree)
        return [Finding(
            checker=self.name, path=module.rel, line=node.lineno,
            message="os.umask() sets the umask of the whole process",
            hint="create files with os.open(path, flags, 0o666) and "
                 "directories with mkdir() so the kernel applies it")
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and _resolve(node.func, aliases) == "os.umask"]


def _find_function(scope: ast.AST, name: str,
                   depth: Optional[int] = None):
    """First FunctionDef called ``name``; ``depth=1`` looks only at
    direct children (class methods)."""
    nodes = ast.iter_child_nodes(scope) if depth == 1 \
        else ast.walk(scope)
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
    return None


ALL_CHECKERS: Tuple[Checker, ...] = (
    DeterminismChecker(),
    LockDisciplineChecker(),
    DigestCoverageChecker(),
    WireParityChecker(),
    FloatExactnessChecker(),
    UmaskChecker(),
)
