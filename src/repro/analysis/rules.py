"""The determinism rule set.

Every rule guards an invariant the equivalence tests only check
dynamically: orderings and replays must be bit-reproducible under pinned
seeds.  The rules are deliberately syntactic — they over-approximate and
rely on inline ``# reprolint: disable=<rule>`` suppressions (with a
stated reason) for the rare accepted hazard.

Rules:

``unseeded-rng``
    ``random`` module usage, legacy ``numpy.random`` global-state calls,
    and ``default_rng()`` without a seed.  Every RNG in the reproduction
    must be a seeded ``Generator`` threaded through the call tree.
``wall-clock``
    ``time.*`` / ``datetime.now`` readings outside the bench/analysis
    harnesses.  Hot paths must not branch on wall-clock state.
``unordered-iter``
    Iteration over ``set`` / ``frozenset`` values (directly or through a
    local binding) and ``list(set(...))``-style conversions.  Set
    iteration order is an implementation detail; hot paths must sort
    first or keep an explicit order.
``env-read``
    ``os.environ`` / ``os.getenv`` outside the sanctioned config entry
    points (:mod:`repro.engine`, :mod:`repro.ordering.store`,
    :mod:`repro._native.core` — which
    owns the ``REPRO_NO_NATIVE`` and ``REPRO_NATIVE_SANITIZE`` knobs —
    :mod:`repro.graph.shm`, :mod:`repro.analysis.sanitize`).
    Scattered env reads make a run's configuration impossible to pin.
``mutable-default``
    Mutable default arguments — shared state across calls breaks replay
    isolation (and is a bug magnet generally).
``bare-oserror-swallow``
    ``except OSError: pass`` (or a bare ``return``) with no ``# degrade:``
    routing comment.  Every swallowed I/O error must either route
    through :func:`repro.resilience.degrade.record` (a named counter and
    one warning) or carry a comment saying why the swallow is benign —
    silent resource-pressure failures are how grids rot.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import FileContext, Finding, rule

__all__ = [
    "SANCTIONED_ENV_MODULES",
    "WALL_CLOCK_EXEMPT_PREFIXES",
    "LEGACY_NUMPY_RANDOM",
]

#: modules allowed to read os.environ (config/engine entry points).
SANCTIONED_ENV_MODULES = frozenset(
    {
        "repro.engine",
        "repro.ordering.store",
        "repro._native.core",
        "repro.graph.shm",
        "repro.graph.store",
        "repro.analysis.sanitize",
        "repro.resilience.degrade",
        "repro.resilience.faults",
        "repro.resilience.store",
    }
)

#: module prefixes where wall-clock readings are the point (timing
#: harnesses) or supervision plumbing (timeouts, backoff), not a
#: determinism hazard — result *values* stay wall-clock free.
WALL_CLOCK_EXEMPT_PREFIXES = (
    "repro.bench", "repro.analysis", "repro.resilience",
)

#: numpy.random module-level functions backed by hidden global state.
LEGACY_NUMPY_RANDOM = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "seed", "shuffle", "permutation", "choice", "uniform",
        "normal", "standard_normal", "beta", "binomial", "poisson",
        "exponential", "bytes", "get_state", "set_state",
    }
)

_WALL_CLOCK_TIME = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "clock_gettime",
    }
)
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})


def _dotted(node: ast.AST) -> list[str]:
    """``a.b.c`` attribute chains as ``["a", "b", "c"]`` (else [])."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _import_aliases(tree: ast.Module, target: str) -> set[str]:
    """Local names bound to module ``target`` by plain imports."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == target:
                    aliases.add(item.asname or item.name.split(".")[0])
                elif item.name.startswith(target + ".") and item.asname:
                    # `import numpy.random as nr` binds the submodule.
                    aliases.add(item.asname)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> dict[str, str]:
    """``{local name: original name}`` for ``from module import ...``."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for item in node.names:
                names[item.asname or item.name] = item.name
    return names


@rule(
    "unseeded-rng",
    "random-module / legacy numpy.random / unseeded default_rng calls",
)
def check_unseeded_rng(ctx: FileContext) -> Iterator[Finding]:
    """Flag RNG constructions whose stream is not pinned by a seed."""
    tree = ctx.tree
    random_aliases = _import_aliases(tree, "random")
    from_random = set(_from_imports(tree, "random"))
    numpy_aliases = _import_aliases(tree, "numpy")
    numpy_random_aliases = _import_aliases(tree, "numpy.random")
    from_numpy_random = _from_imports(tree, "numpy.random")

    def is_unseeded_call(node: ast.Call) -> bool:
        if node.args and not (
            isinstance(node.args[0], ast.Constant)
            and node.args[0].value is None
        ):
            return False
        for kw in node.keywords:
            if kw.arg == "seed" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                return False
        return True

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if not parts:
            continue
        head, tail = parts[0], parts[-1]
        # stdlib random: any call through the module or its names.
        if len(parts) > 1 and head in random_aliases:
            yield ctx.finding(
                "unseeded-rng", node,
                f"call to stdlib random ({'.'.join(parts)}); use a "
                f"seeded numpy Generator threaded from the caller",
            )
            continue
        if len(parts) == 1 and head in from_random:
            yield ctx.finding(
                "unseeded-rng", node,
                f"call to stdlib random ({head}); use a seeded numpy "
                f"Generator threaded from the caller",
            )
            continue
        # legacy numpy.random global state: np.random.<fn> / nr.<fn>.
        legacy = (
            len(parts) >= 3
            and head in numpy_aliases
            and parts[-2] == "random"
            and tail in LEGACY_NUMPY_RANDOM
        ) or (
            len(parts) == 2
            and head in numpy_random_aliases
            and tail in LEGACY_NUMPY_RANDOM
        ) or (
            len(parts) == 1
            and from_numpy_random.get(head) in LEGACY_NUMPY_RANDOM
        )
        if legacy:
            yield ctx.finding(
                "unseeded-rng", node,
                f"legacy numpy.random global-state call "
                f"({'.'.join(parts)}); use np.random.default_rng(seed)",
            )
            continue
        # default_rng() without a pinned seed.
        is_default_rng = (
            tail == "default_rng"
            and (
                len(parts) == 1
                and from_numpy_random.get(head) == "default_rng"
                or len(parts) >= 2
                and (
                    head in numpy_random_aliases
                    or (len(parts) >= 3 and head in numpy_aliases
                        and parts[-2] == "random")
                )
            )
        )
        if is_default_rng and is_unseeded_call(node):
            yield ctx.finding(
                "unseeded-rng", node,
                "default_rng() without a seed draws OS entropy; "
                "thread an explicit seed through the caller",
            )


@rule(
    "wall-clock",
    "time/datetime readings outside the bench and analysis harnesses",
)
def check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    """Flag wall-clock reads in modules that must be replayable."""
    if ctx.module.startswith(WALL_CLOCK_EXEMPT_PREFIXES):
        return
    tree = ctx.tree
    time_aliases = _import_aliases(tree, "time")
    from_time = {
        local
        for local, orig in _from_imports(tree, "time").items()
        if orig in _WALL_CLOCK_TIME
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if not parts:
            continue
        flagged = (
            (len(parts) == 2 and parts[0] in time_aliases
             and parts[1] in _WALL_CLOCK_TIME)
            or (len(parts) == 1 and parts[0] in from_time)
            or (len(parts) >= 2 and parts[-1] in _WALL_CLOCK_DATETIME
                and parts[-2] in ("datetime", "date"))
        )
        if flagged:
            yield ctx.finding(
                "wall-clock", node,
                f"wall-clock read ({'.'.join(parts)}) in a "
                f"non-bench module breaks replay determinism",
            )


_UNORDERED_CONSTRUCTORS = frozenset({"set", "frozenset"})
#: conversions that freeze the (arbitrary) iteration order of a set.
_ORDER_FREEZING_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_unordered_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _UNORDERED_CONSTRUCTORS
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra (a | b, a & b, a - b) stays unordered.
        return _is_unordered_expr(node.left) or _is_unordered_expr(node.right)
    return False


class _Scope:
    """One lexical scope and the names it binds to set values."""

    def __init__(self, parent: "_Scope | None") -> None:
        self.parent = parent
        self.unordered: set[str] = set()
        self.reassigned: set[str] = set()

    def binds_unordered(self, name: str) -> bool:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.reassigned:
                return name in scope.unordered
            if name in scope.unordered:
                return True
            scope = scope.parent
        return False


@rule(
    "unordered-iter",
    "iteration over set/frozenset values without an explicit order",
)
def check_unordered_iter(ctx: FileContext) -> Iterator[Finding]:
    """Flag set iteration — the classic silent nondeterminism."""
    findings: list[Finding] = []

    def record(node: ast.AST, what: str) -> None:
        findings.append(
            ctx.finding(
                "unordered-iter", node,
                f"{what} iterates a set in hash order; sort first "
                f"(e.g. sorted(...)) or keep an explicit sequence",
            )
        )

    def unordered(scope: _Scope, node: ast.AST) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # scope-aware set algebra: `a - b` where a is a bound set.
            return unordered(scope, node.left) or unordered(
                scope, node.right
            )
        if _is_unordered_expr(node):
            return True
        return isinstance(node, ast.Name) and scope.binds_unordered(node.id)

    def bind(scope: _Scope, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            scope.reassigned.add(target.id)
            if unordered(scope, value):
                scope.unordered.add(target.id)
            else:
                scope.unordered.discard(target.id)

    def visit(node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _Scope(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(scope, target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            bind(scope, node.target, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if unordered(scope, node.iter):
                record(node, "for loop")
        elif isinstance(node, ast.comprehension):
            if unordered(scope, node.iter):
                record(node.iter, "comprehension")
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREEZING_CALLS
                and node.args
                and unordered(scope, node.args[0])
            ):
                record(node, f"{node.func.id}(...)")
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "pop":
                if unordered(scope, node.func.value):
                    record(node, "set.pop()")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ctx.tree, _Scope(None))
    yield from findings


@rule(
    "env-read",
    "os.environ access outside the sanctioned config entry points",
)
def check_env_read(ctx: FileContext) -> Iterator[Finding]:
    """Flag environment reads scattered outside the config modules."""
    if (
        ctx.module in SANCTIONED_ENV_MODULES
        or ctx.module.startswith("repro.analysis")
    ):
        return
    tree = ctx.tree
    os_aliases = _import_aliases(tree, "os")
    from_os = _from_imports(tree, "os")
    env_names = {
        local for local, orig in from_os.items()
        if orig in ("environ", "getenv", "putenv")
    }
    for node in ast.walk(tree):
        parts: list[str] = []
        if isinstance(node, ast.Attribute):
            parts = _dotted(node)
            if not (
                len(parts) == 2
                and parts[0] in os_aliases
                and parts[1] in ("environ", "getenv", "putenv")
            ):
                continue
        elif isinstance(node, ast.Name) and node.id in env_names:
            parts = [node.id]
        else:
            continue
        yield ctx.finding(
            "env-read", node,
            f"environment access ({'.'.join(parts)}) outside the "
            f"sanctioned entry points "
            f"({', '.join(sorted(SANCTIONED_ENV_MODULES))}); route "
            f"configuration through repro.engine or repro.ordering.store",
        )


_MUTABLE_DEFAULT_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque"}
)


@rule("mutable-default", "mutable default argument values")
def check_mutable_default(ctx: FileContext) -> Iterator[Finding]:
    """Flag mutable defaults — state shared across calls breaks replay."""

    def is_mutable(node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_DEFAULT_CALLS
        )

    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults: Iterable[ast.AST | None] = [
            *node.args.defaults,
            *node.args.kw_defaults,
        ]
        for default in defaults:
            if default is not None and is_mutable(default):
                yield ctx.finding(
                    "mutable-default", default,
                    f"mutable default argument in {node.name}(); "
                    f"default to None and construct inside the body",
                )


_OSERROR_NAMES = frozenset({"OSError", "IOError", "EnvironmentError"})


@rule(
    "bare-oserror-swallow",
    "except OSError: pass without a '# degrade:' routing comment",
)
def check_bare_oserror_swallow(ctx: FileContext) -> Iterator[Finding]:
    """Flag silently swallowed I/O errors — route them or explain them.

    An ``except OSError`` whose body only passes / returns nothing /
    continues makes resource pressure (``ENOSPC``, a full ``/dev/shm``,
    a vanished file) invisible.  The handler must either route the error
    through :func:`repro.resilience.degrade.record` (named counter, one
    warning) or carry a ``# degrade: <reason>`` comment stating why the
    swallow is benign.  Subclass handlers (``FileNotFoundError``) are
    not flagged — they narrate a specific, expected condition.
    """

    def caught_names(node: ast.AST | None) -> set[str]:
        if node is None:
            return set()
        if isinstance(node, ast.Tuple):
            return {n.id for n in node.elts if isinstance(n, ast.Name)}
        if isinstance(node, ast.Name):
            return {node.id}
        return set()

    def swallows(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Return) and (
                stmt.value is None
                or (
                    isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None
                )
            ):
                continue
            return False
        return True

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not (_OSERROR_NAMES & caught_names(node.type)):
            continue
        if not swallows(node.body):
            continue
        end = max(
            getattr(stmt, "end_lineno", None) or stmt.lineno
            for stmt in node.body
        )
        span = ctx.lines[node.lineno - 1:end]
        if any("# degrade:" in line for line in span):
            continue
        yield ctx.finding(
            "bare-oserror-swallow", node,
            "silently swallowed OSError; route it through "
            "repro.resilience.degrade.record(...) or state why it is "
            "benign with a '# degrade: <reason>' comment",
        )
