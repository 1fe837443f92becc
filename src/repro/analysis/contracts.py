"""Engine-parity contract checker.

PRs 1–3 established a repo-wide invariant: every vectorized hot path
keeps a scalar reference implementation that is bit-identical under
pinned seeds, enforced by equivalence tests.  This module makes the
*wiring* of that invariant statically checkable, so a new scheme or
kernel cannot silently ship an engine gate with no scalar twin and no
test.  Five contracts, each reported as a :class:`~.core.Finding`:

``parity-scalar-twin``
    Every function branching on :func:`repro.engine.resolve_engine` /
    :func:`use_engine` / ``REPRO_ORDERING_ENGINE`` / ``REPRO_SANITIZE``
    must have its scalar reference resolvable: any ``*scalar*``-named
    callee inside the gated function must exist in scope (module,
    class, nested, or imported).  The scalar path runs rarely — the
    default engine is ``vector`` — so a broken name there is latent
    until an equivalence run.
``parity-equivalence-test``
    Every module containing a gated function must be exercised by at
    least one equivalence test (a test file driving both engines):
    either the test imports the module directly, or the module is
    reachable through the import graph from a module whose registered
    scheme name appears in the test.
``scheme-contract``
    Every :class:`~repro.ordering.base.OrderingScheme` subclass must
    carry a non-empty registry ``name``, a ``compute`` implementation,
    and a resolvable ``cache_token`` (the persistent-cache key half).
``bench-floor``
    Every ``measure*`` stage in :mod:`repro.bench.perf` must appear in
    its ``STAGES`` registry with an existing aggregate-floor constant,
    and the Makefile's ``bench-perf`` target must run each stage with
    ``--check``.
``native-twin``
    Every :class:`~repro._native.core.NativeKernel` declaration must
    name its ``scalar_twin`` and ``vector_twin`` as literal
    ``"module:qualname"`` strings that resolve to functions (or
    methods) defined in the tree.  The C tier is the top of a
    three-tier tower — a kernel whose reference twins have drifted or
    vanished can no longer be bit-identity tested, which is the only
    thing that licenses running it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .core import Finding, REPO_ROOT, SRC_ROOT, module_name_for

__all__ = [
    "ModuleInfo",
    "index_tree",
    "gated_functions",
    "check_scalar_twins",
    "check_equivalence_coverage",
    "check_scheme_classes",
    "check_bench_floors",
    "check_native_twins",
    "check_contracts",
    "GATE_CALLS",
    "GATE_STRINGS",
    "GATE_EXEMPT_PREFIXES",
]

#: callables whose presence marks a function as engine-gated.
GATE_CALLS = frozenset({"resolve_engine", "use_engine"})
#: env switches whose presence marks a function as engine-gated.
GATE_STRINGS = frozenset({"REPRO_ORDERING_ENGINE", "REPRO_SANITIZE"})
#: modules exempt from gating contracts: the gate definition itself,
#: the measurement harness, and this analysis package.
GATE_EXEMPT_PREFIXES = ("repro.engine", "repro.bench", "repro.analysis")


@dataclass
class ModuleInfo:
    """Static summary of one source module."""

    module: str
    path: Path
    tree: ast.Module
    is_package: bool
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    imported_names: set[str] = field(default_factory=set)
    imports: set[str] = field(default_factory=set)
    scheme_names: dict[str, str] = field(default_factory=dict)


def _dotted(node: ast.AST) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _resolve_relative(info_module: str, is_package: bool, node: ast.ImportFrom) -> str | None:
    """Absolute dotted target of a (possibly relative) from-import."""
    if node.level == 0:
        return node.module
    parts = info_module.split(".")
    # level 1 from inside a package __init__ refers to the package
    # itself; from a plain module it refers to the parent package.
    strip = node.level - 1 if is_package else node.level
    if strip > len(parts):
        return None
    base = parts[: len(parts) - strip]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def index_tree(src_root: Path | None = None) -> dict[str, ModuleInfo]:
    """Index every module under ``src_root`` (default: src/repro)."""
    root = (src_root if src_root is not None else SRC_ROOT / "repro").resolve()
    package_root = root.parent
    index: dict[str, ModuleInfo] = {}
    for path in sorted(root.rglob("*.py")):
        module = module_name_for(path, package_root)
        info = ModuleInfo(
            module=module,
            path=path,
            tree=ast.parse(path.read_text(), filename=str(path)),
            is_package=path.name == "__init__.py",
        )
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = node
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    info.imports.add(item.name)
                    info.imported_names.add(
                        item.asname or item.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_relative(module, info.is_package, node)
                if target is not None:
                    info.imports.add(target)
                    for item in node.names:
                        info.imported_names.add(item.asname or item.name)
                        # `from pkg import submodule` edges.
                        info.imports.add(f"{target}.{item.name}")
        index[module] = info
    # Keep only import edges that point inside the tree.
    for info in index.values():
        info.imports = {m for m in info.imports if m in index}
    _collect_scheme_names(index)
    return index


def _collect_scheme_names(index: dict[str, ModuleInfo]) -> None:
    """Fill ``scheme_names`` for every OrderingScheme subclass."""
    subclass_of = _scheme_subclasses(index)
    for info in index.values():
        for cls_name, cls in info.classes.items():
            if cls_name not in subclass_of:
                continue
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "name"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    info.scheme_names[cls_name] = stmt.value.value


def _scheme_subclasses(index: dict[str, ModuleInfo]) -> dict[str, ast.ClassDef]:
    """All classes transitively subclassing ``OrderingScheme``."""
    bases_of: dict[str, list[str]] = {}
    node_of: dict[str, ast.ClassDef] = {}
    for info in index.values():
        for cls_name, cls in info.classes.items():
            node_of[cls_name] = cls
            bases_of[cls_name] = [
                parts[-1] for b in cls.bases if (parts := _dotted(b))
            ]
    subclasses: dict[str, ast.ClassDef] = {}
    changed = True
    while changed:
        changed = False
        for cls_name, bases in bases_of.items():
            if cls_name in subclasses or cls_name == "OrderingScheme":
                continue
            if any(
                b == "OrderingScheme" or b in subclasses for b in bases
            ):
                subclasses[cls_name] = node_of[cls_name]
                changed = True
    return subclasses


# ----------------------------------------------------------------------
# Gate discovery
# ----------------------------------------------------------------------
def _is_gated(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            parts = _dotted(node.func)
            if parts and parts[-1] in GATE_CALLS:
                return True
        elif isinstance(node, ast.Constant) and node.value in GATE_STRINGS:
            return True
    return False


def gated_functions(
    info: ModuleInfo,
) -> list[tuple[str, ast.FunctionDef, ast.ClassDef | None]]:
    """``(qualname, node, enclosing class)`` of engine-gated functions."""
    if info.module.startswith(GATE_EXEMPT_PREFIXES):
        return []
    gated: list[tuple[str, ast.FunctionDef, ast.ClassDef | None]] = []
    for name, fn in info.functions.items():
        if _is_gated(fn):
            gated.append((name, fn, None))
    for cls_name, cls in info.classes.items():
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and _is_gated(stmt):
                gated.append((f"{cls_name}.{stmt.name}", stmt, cls))
    return gated


# ----------------------------------------------------------------------
# Contract 1: scalar twins resolvable
# ----------------------------------------------------------------------
def check_scalar_twins(index: dict[str, ModuleInfo]) -> list[Finding]:
    """Every ``*scalar*`` callee inside a gated function must resolve."""
    findings: list[Finding] = []
    for info in index.values():
        rel = _rel(info.path)
        for qualname, fn, cls in gated_functions(info):
            nested = {
                n.name
                for n in ast.walk(fn)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            class_methods = (
                {
                    s.name
                    for s in cls.body
                    if isinstance(s, ast.FunctionDef)
                }
                if cls is not None
                else set()
            )
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                parts = _dotted(node.func)
                if not parts or "scalar" not in parts[-1].lower():
                    continue
                callee = parts[-1]
                if len(parts) >= 2 and parts[-2] == "self":
                    if callee not in class_methods:
                        findings.append(
                            Finding(
                                "parity-scalar-twin", rel, node.lineno,
                                node.col_offset,
                                f"{qualname} dispatches to self.{callee}"
                                f" but the enclosing class defines no "
                                f"such method (orphaned engine gate)",
                            )
                        )
                elif len(parts) == 1:
                    resolvable = (
                        callee in nested
                        or callee in info.functions
                        or callee in info.classes
                        or callee in info.imported_names
                    )
                    if not resolvable:
                        findings.append(
                            Finding(
                                "parity-scalar-twin", rel, node.lineno,
                                node.col_offset,
                                f"{qualname} dispatches to {callee}() "
                                f"but no such function is defined or "
                                f"imported (orphaned engine gate)",
                            )
                        )
    return findings


# ----------------------------------------------------------------------
# Contract 2: equivalence-test coverage
# ----------------------------------------------------------------------
def _equivalence_tests(tests_root: Path) -> list[tuple[Path, ast.Module]]:
    """Test files that drive both engines (the equivalence suites)."""
    suites: list[tuple[Path, ast.Module]] = []
    if not tests_root.exists():
        return suites
    for path in sorted(tests_root.glob("test_*.py")):
        source = path.read_text()
        if "use_engine" in source or (
            '"scalar"' in source and '"vector"' in source
        ):
            suites.append((path, ast.parse(source, filename=str(path))))
    return suites


def check_equivalence_coverage(
    index: dict[str, ModuleInfo], tests_root: Path | None = None
) -> list[Finding]:
    """Every gated module must be reachable from an equivalence test."""
    root = tests_root if tests_root is not None else REPO_ROOT / "tests"
    suites = _equivalence_tests(root)
    imported_modules: set[str] = set()
    literals: set[str] = set()
    for _, tree in suites:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported_modules.update(item.name for item in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported_modules.add(node.module)
                imported_modules.update(
                    f"{node.module}.{item.name}" for item in node.names
                )
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                literals.add(node.value)

    covered = {
        m for m in index
        if m in imported_modules
        or any(n in literals for n in index[m].scheme_names.values())
    }
    # Transitive closure: a covered module exercises what it imports.
    frontier = sorted(covered)
    while frontier:
        current = frontier.pop()
        for target in index[current].imports:
            if target not in covered:
                covered.add(target)
                frontier.append(target)

    findings: list[Finding] = []
    for info in index.values():
        gated = gated_functions(info)
        if not gated or info.module in covered:
            continue
        qualnames = ", ".join(sorted(q for q, _, _ in gated))
        first = min(fn.lineno for _, fn, _ in gated)
        findings.append(
            Finding(
                "parity-equivalence-test", _rel(info.path), first, 0,
                f"module {info.module} has engine-gated functions "
                f"({qualnames}) but no equivalence test imports it or "
                f"reaches it through a tested scheme",
            )
        )
    return findings


# ----------------------------------------------------------------------
# Contract 3: OrderingScheme subclasses
# ----------------------------------------------------------------------
def check_scheme_classes(index: dict[str, ModuleInfo]) -> list[Finding]:
    """Scheme subclasses: non-empty name, compute, cache_token."""
    subclasses = _scheme_subclasses(index)
    module_of = {
        cls_name: info
        for info in index.values()
        for cls_name in info.classes
    }
    bases_of = {
        cls_name: [
            parts[-1] for b in cls.bases if (parts := _dotted(b))
        ]
        for cls_name, cls in subclasses.items()
    }

    def ancestors(cls_name: str) -> Iterable[str]:
        stack = list(bases_of.get(cls_name, ()))
        seen: set[str] = set()
        while stack:
            base = stack.pop()
            if base in seen:
                continue
            seen.add(base)
            yield base
            stack.extend(bases_of.get(base, ()))

    def class_defines(cls_name: str, attr: str, *, as_method: bool) -> bool:
        info = module_of.get(cls_name)
        if info is None:
            # Unindexed base (e.g. abc.ABC / OrderingScheme outside a
            # partial tree): assume the framework base provides it.
            return cls_name == "OrderingScheme" and not as_method
        cls = info.classes[cls_name]
        for stmt in cls.body:
            if as_method and isinstance(stmt, ast.FunctionDef):
                if stmt.name == attr:
                    return True
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == attr
                for t in stmt.targets
            ):
                return True
        return False

    def resolves(cls_name: str, attr: str, *, as_method: bool) -> bool:
        if class_defines(cls_name, attr, as_method=as_method):
            return True
        return any(
            class_defines(a, attr, as_method=as_method)
            or (a == "OrderingScheme"
                and attr in ("cache_token", "name", "version", "order"))
            for a in ancestors(cls_name)
        )

    findings: list[Finding] = []
    for cls_name, cls in sorted(subclasses.items()):
        info = module_of[cls_name]
        rel = _rel(info.path)
        name = _own_or_inherited_scheme_name(
            cls_name, index, bases_of
        )
        if not name:
            findings.append(
                Finding(
                    "scheme-contract", rel, cls.lineno, cls.col_offset,
                    f"OrderingScheme subclass {cls_name} does not set a "
                    f"non-empty registry `name` (cache_token and the "
                    f"registry both key on it)",
                )
            )
        if not resolves(cls_name, "compute", as_method=True):
            findings.append(
                Finding(
                    "scheme-contract", rel, cls.lineno, cls.col_offset,
                    f"OrderingScheme subclass {cls_name} defines no "
                    f"compute() and inherits none",
                )
            )
        if not resolves(cls_name, "cache_token", as_method=True):
            findings.append(
                Finding(
                    "scheme-contract", rel, cls.lineno, cls.col_offset,
                    f"OrderingScheme subclass {cls_name} has no "
                    f"resolvable cache_token()",
                )
            )
    return findings


def _own_or_inherited_scheme_name(
    cls_name: str,
    index: dict[str, ModuleInfo],
    bases_of: dict[str, list[str]],
) -> str | None:
    names = {
        c: n
        for info in index.values()
        for c, n in info.scheme_names.items()
    }
    stack = [cls_name]
    seen: set[str] = set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        if names.get(current):
            return names[current]
        stack.extend(bases_of.get(current, ()))
    return None


# ----------------------------------------------------------------------
# Contract 4: bench stages wired with floors
# ----------------------------------------------------------------------
def check_bench_floors(
    perf_path: Path | None = None, makefile_path: Path | None = None
) -> list[Finding]:
    """perf STAGES registry complete; Makefile runs each with --check."""
    perf = (
        perf_path
        if perf_path is not None
        else SRC_ROOT / "repro" / "bench" / "perf.py"
    )
    makefile = (
        makefile_path if makefile_path is not None else REPO_ROOT / "Makefile"
    )
    findings: list[Finding] = []
    rel = _rel(perf)
    tree = ast.parse(perf.read_text(), filename=str(perf))

    toplevel_names = {
        t.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    measure_fns = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("measure")
    }

    stages: dict[str, dict[str, object]] = {}
    stages_node: ast.Assign | None = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "STAGES"
            for t in node.targets
        ):
            stages_node = node
            try:
                stages = ast.literal_eval(node.value)
            except ValueError:
                findings.append(
                    Finding(
                        "bench-floor", rel, node.lineno, 0,
                        "STAGES must be a literal dict the contract "
                        "checker can evaluate",
                    )
                )
    if stages_node is None:
        findings.append(
            Finding(
                "bench-floor", rel, 1, 0,
                "bench/perf.py defines no STAGES registry; every "
                "measure* stage must declare its CLI flag and floor",
            )
        )
        return findings

    for fn_name, fn in sorted(measure_fns.items()):
        stage = "replay" if fn_name == "measure" else fn_name[len("measure_"):]
        if stage not in stages:
            findings.append(
                Finding(
                    "bench-floor", rel, fn.lineno, 0,
                    f"perf stage {fn_name}() has no STAGES entry "
                    f"{stage!r}: wire a CLI flag, a floor constant, "
                    f"and a Makefile bench-perf --check line",
                )
            )
    for stage, spec in stages.items():
        floor = spec.get("floor") if isinstance(spec, dict) else None
        if not isinstance(floor, str) or floor not in toplevel_names:
            findings.append(
                Finding(
                    "bench-floor", rel, stages_node.lineno, 0,
                    f"stage {stage!r} names floor constant {floor!r} "
                    f"which bench/perf.py does not define",
                )
            )

    # Makefile: each stage must run under bench-perf with --check.
    recipe = _make_target_recipe(makefile, "bench-perf")
    if not recipe:
        findings.append(
            Finding(
                "bench-floor", _rel(makefile), 1, 0,
                "Makefile has no bench-perf target running the perf "
                "stages with --check",
            )
        )
        return findings
    all_flags = sorted(
        {
            spec.get("flag")
            for spec in stages.values()
            if isinstance(spec, dict) and spec.get("flag")
        }
    )
    for stage, spec in stages.items():
        flag = spec.get("flag") if isinstance(spec, dict) else None
        matched = False
        for line in recipe:
            if "repro.bench.perf" not in line or "--check" not in line:
                continue
            if flag:
                matched = flag in line
            else:
                matched = not any(f in line for f in all_flags)
            if matched:
                break
        if not matched:
            wanted = flag or "(no stage flag)"
            findings.append(
                Finding(
                    "bench-floor", _rel(makefile), 1, 0,
                    f"Makefile bench-perf target does not run stage "
                    f"{stage!r} ({wanted}) with --check",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Contract 5: native kernels name resolvable twins
# ----------------------------------------------------------------------
def check_native_twins(index: dict[str, ModuleInfo]) -> list[Finding]:
    """Every ``NativeKernel(...)`` must declare resolvable twins.

    A kernel's ``scalar_twin`` / ``vector_twin`` are its bit-identity
    anchors: the equivalence suite imports them by these names.  The
    contract requires literal ``"module:qualname"`` strings pointing at
    a function (or ``Class.method``) defined in the indexed tree.  A
    kernel with no numpy middle tier says so with a literal
    ``vector_twin=None``; the keyword itself is still required.
    """

    def resolves(target: str) -> str | None:
        """Error string if ``module:qualname`` does not resolve."""
        if ":" not in target:
            return "is not a 'module:qualname' string"
        mod_name, qualname = target.split(":", 1)
        info = index.get(mod_name)
        if info is None:
            return f"names unknown module {mod_name!r}"
        parts = qualname.split(".")
        if len(parts) == 1:
            if parts[0] not in info.functions:
                return f"names no function {qualname!r} in {mod_name}"
        elif len(parts) == 2:
            cls = info.classes.get(parts[0])
            if cls is None:
                return f"names no class {parts[0]!r} in {mod_name}"
            methods = {
                s.name for s in cls.body if isinstance(s, ast.FunctionDef)
            }
            if parts[1] not in methods:
                return (
                    f"names no method {parts[1]!r} on "
                    f"{mod_name}.{parts[0]}"
                )
        else:
            return f"has unresolvable qualname {qualname!r}"
        return None

    findings: list[Finding] = []
    for info in index.values():
        if not info.module.startswith("repro._native"):
            continue
        rel = _rel(info.path)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = _dotted(node.func)
            if not parts or parts[-1] != "NativeKernel":
                continue
            keywords = {
                kw.arg: kw.value for kw in node.keywords if kw.arg
            }
            for role in ("scalar_twin", "vector_twin"):
                value = keywords.get(role)
                if value is None:
                    findings.append(
                        Finding(
                            "native-twin", rel, node.lineno,
                            node.col_offset,
                            f"NativeKernel in {info.module} declares no "
                            f"{role}= keyword; every native kernel must "
                            f"name its reference implementations",
                        )
                    )
                    continue
                if (
                    role == "vector_twin"
                    and isinstance(value, ast.Constant)
                    and value.value is None
                ):
                    continue  # no vector tier: the scalar twin is next
                if not (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    findings.append(
                        Finding(
                            "native-twin", rel, value.lineno,
                            value.col_offset,
                            f"NativeKernel {role} in {info.module} must "
                            f"be a literal 'module:qualname' string"
                            + (" or None" if role == "vector_twin" else ""),
                        )
                    )
                    continue
                error = resolves(value.value)
                if error is not None:
                    findings.append(
                        Finding(
                            "native-twin", rel, value.lineno,
                            value.col_offset,
                            f"NativeKernel {role} {value.value!r} "
                            f"{error}",
                        )
                    )
    return findings


def _make_target_recipe(makefile: Path, target: str) -> list[str]:
    if not makefile.exists():
        return []
    lines = makefile.read_text().splitlines()
    recipe: list[str] = []
    capture = False
    for line in lines:
        if line.startswith(f"{target}:"):
            capture = True
            continue
        if capture:
            if line.startswith("\t"):
                recipe.append(line)
            elif line.strip():
                break
    return recipe


def _rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def check_contracts(
    src_root: Path | None = None,
    tests_root: Path | None = None,
    makefile_path: Path | None = None,
    perf_path: Path | None = None,
) -> list[Finding]:
    """Run every contract; empty list means the wiring holds."""
    index = index_tree(src_root)
    findings: list[Finding] = []
    findings.extend(check_scalar_twins(index))
    findings.extend(check_equivalence_coverage(index, tests_root))
    findings.extend(check_scheme_classes(index))
    findings.extend(check_native_twins(index))
    perf_default = (
        src_root / "bench" / "perf.py" if src_root is not None else None
    )
    perf = perf_path if perf_path is not None else perf_default
    if perf is None or perf.exists():
        findings.extend(check_bench_floors(perf, makefile_path))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
