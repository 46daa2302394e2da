"""D-rules: determinism hazards that break bit-identical replay.

Replay (`python -m repro chaos --replay`) and sharded-equals-serial
parallelism both assert *bit-identical* trace digests.  Anything that
injects host state into protocol behaviour — wall clocks, ambient
entropy, hash-randomized iteration orders, object identities — silently
voids that contract in ways the oracles only catch probabilistically.
These rules ban the sources outright at lint time.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.engine import ModuleInfo, iter_function_defs, walk_scope
from repro.lint.registry import PROTOCOL_SCOPE, rule
from repro.lint.report import Finding

#: Modules whose classes sit on the simulator's hottest allocation paths;
#: every class defined here must be ``__slots__``-backed (directly or via
#: ``@dataclass(slots=True)``).
HOT_MODULES = (
    "sim/engine.py",
    "sim/network.py",
    "sim/process.py",
    "gcs/messages.py",
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)
_ENTROPY_PREFIXES = ("secrets.",)
#: The module-level numpy.random functions share unseeded global state;
#: only the explicit-generator constructors are replay-safe.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.BitGenerator",
    }
)
#: Stdlib ``random`` module-level functions use the shared global RNG;
#: ``random.Random(seed)`` instances are fine.
_STDLIB_RANDOM_ALLOWED = frozenset({"random.Random", "random.SystemRandom"})

_MUTABLE_CTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.Counter",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
    }
)

#: Callables whose result does not depend on argument iteration order —
#: iterating a set directly inside them is harmless.
_ORDER_INDEPENDENT_CALLS = frozenset(
    {"sorted", "min", "max", "len", "any", "all", "sum", "set", "frozenset"}
)

_MUTATING_EXEMPT_BASES = frozenset(
    {"Exception", "BaseException"}  # documented, not currently used
)


def _finding(
    rule_id: str, slug: str, module: ModuleInfo, node: ast.AST, message: str
) -> Finding:
    return Finding(
        rule=rule_id,
        slug=slug,
        path=module.display,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


# ---------------------------------------------------------------------------
# D101 wall-clock
# ---------------------------------------------------------------------------
@rule(
    "D101",
    "wall-clock",
    "host wall-clock call (time.*/datetime.now) — use sim.now, or pragma "
    "host-time measurements explicitly",
)
def check_wall_clock(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = module.qualified_name(node.func)
        if qualified in _WALL_CLOCK_CALLS:
            yield _finding(
                "D101",
                "wall-clock",
                module,
                node,
                f"{qualified}() reads the host clock; simulation code must "
                "use sim.now (pragma-allow genuine host-time measurement)",
            )


# ---------------------------------------------------------------------------
# D102 ambient-entropy
# ---------------------------------------------------------------------------
@rule(
    "D102",
    "ambient-entropy",
    "unseeded / ambient randomness (os.urandom, uuid4, global random.*, "
    "numpy.random module functions)",
)
def check_ambient_entropy(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = module.qualified_name(node.func)
        if qualified is None:
            continue
        bad = (
            qualified in _ENTROPY_CALLS
            or any(qualified.startswith(p) for p in _ENTROPY_PREFIXES)
            or (
                qualified.startswith("random.")
                and qualified not in _STDLIB_RANDOM_ALLOWED
            )
            or (
                qualified.startswith("numpy.random.")
                and qualified not in _NUMPY_RANDOM_ALLOWED
            )
        )
        if bad:
            yield _finding(
                "D102",
                "ambient-entropy",
                module,
                node,
                f"{qualified}() draws ambient entropy; use a seeded "
                "numpy default_rng stream (see repro.sim.rng)",
            )


# ---------------------------------------------------------------------------
# D103 set-order
# ---------------------------------------------------------------------------
_SET_ANNOTATIONS = ("set", "frozenset", "Set", "FrozenSet")


def _local_set_names(scope: ast.AST) -> set[str]:
    """Names bound to set-typed values within one function/module scope
    (assignments, annotations, and set-annotated parameters; no
    interprocedural inference)."""
    names: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for arg in [*scope.args.posonlyargs, *scope.args.args, *scope.args.kwonlyargs]:
            if arg.annotation is not None:
                annotation = ast.unparse(arg.annotation)
                if annotation.split("[")[0] in _SET_ANNOTATIONS:
                    names.add(arg.arg)
    for node in walk_scope(scope):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.unparse(node.annotation)
            if annotation.split("[")[0] in _SET_ANNOTATIONS:
                names.add(node.target.id)
    return names


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _inside_order_independent_call(node: ast.AST) -> bool:
    parent = getattr(node, "lint_parent", None)
    if (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in _ORDER_INDEPENDENT_CALLS
        and node in parent.args
    ):
        return True
    return False


@rule(
    "D103",
    "set-order",
    "iteration over a set where the order can escape (wrap in sorted())",
    scope=PROTOCOL_SCOPE,
)
def check_set_order(module: ModuleInfo) -> Iterator[Finding]:
    scopes: list[ast.AST] = [module.tree, *iter_function_defs(module.tree)]
    for scope in scopes:
        set_names = _local_set_names(scope)
        for node in walk_scope(scope):
            if isinstance(node, ast.For) and _is_set_expr(node.iter, set_names):
                yield _finding(
                    "D103",
                    "set-order",
                    module,
                    node.iter,
                    "for-loop over a set: iteration order is hash-dependent "
                    "and can leak into protocol state; wrap in sorted(...)",
                )
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                first = node.generators[0].iter
                if _is_set_expr(first, set_names) and not _inside_order_independent_call(node):
                    yield _finding(
                        "D103",
                        "set-order",
                        module,
                        first,
                        "comprehension over a set builds an ordered result "
                        "from hash order; wrap the set in sorted(...)",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args
                and _is_set_expr(node.args[0], set_names)
            ):
                yield _finding(
                    "D103",
                    "set-order",
                    module,
                    node,
                    f"{node.func.id}(set) freezes hash order into a sequence; "
                    "use sorted(...)",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and _is_set_expr(node.args[0], set_names)
            ):
                yield _finding(
                    "D103",
                    "set-order",
                    module,
                    node,
                    "str.join over a set concatenates in hash order; "
                    "use sorted(...)",
                )


# ---------------------------------------------------------------------------
# D104 id-order
# ---------------------------------------------------------------------------
@rule(
    "D104",
    "id-order",
    "builtin id() in protocol scope (object identities vary across runs)",
    scope=PROTOCOL_SCOPE,
)
def check_id_order(module: ModuleInfo) -> Iterator[Finding]:
    if "id" in module.aliases:
        return  # shadowed by an import; not the builtin
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            yield _finding(
                "D104",
                "id-order",
                module,
                node,
                "id() values differ between runs; keying, sorting or "
                "tracing by object identity is nondeterministic",
            )
        elif isinstance(node, ast.Call):
            # the builtin passed by reference, e.g. sorted(xs, key=id)
            referenced = [
                arg
                for arg in [*node.args, *[kw.value for kw in node.keywords]]
                if isinstance(arg, ast.Name) and arg.id == "id"
            ]
            for arg in referenced:
                yield _finding(
                    "D104",
                    "id-order",
                    module,
                    arg,
                    "builtin id passed as a key/callback: ordering or "
                    "grouping by object identity is nondeterministic",
                )


# ---------------------------------------------------------------------------
# D105 slots-required
# ---------------------------------------------------------------------------
def _has_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in statement.targets
        ):
            return True
        if (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and statement.target.id == "__slots__"
        ):
            return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "slots" and isinstance(keyword.value, ast.Constant):
                    if keyword.value.value is True:
                        return True
    return False


_NAMED_TUPLE = frozenset({"typing.NamedTuple", "typing_extensions.NamedTuple"})


def _is_named_tuple(node: ast.ClassDef, module: ModuleInfo) -> bool:
    """A ``NamedTuple`` subclass is slotted: ``typing`` gives it
    ``__slots__ = ()`` and forbids overriding that."""
    return any(module.qualified_name(base) in _NAMED_TUPLE for base in node.bases)


def _slots_exempt(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
        if name.endswith(("Error", "Exception")) or name in (
            "Enum",
            "IntEnum",
            "Flag",
            "Protocol",
            "ABC",
        ):
            return True
    return False


@rule(
    "D105",
    "slots-required",
    "class in a designated hot module lacks __slots__",
)
def check_slots(module: ModuleInfo) -> Iterator[Finding]:
    if not module.endswith(*HOT_MODULES):
        return
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if _slots_exempt(node) or _has_slots(node) or _is_named_tuple(node, module):
            continue
        yield _finding(
            "D105",
            "slots-required",
            module,
            node,
            f"class {node.name} lives in a hot module but has no __slots__ "
            "(add __slots__, @dataclass(slots=True) or derive from NamedTuple)",
        )


# ---------------------------------------------------------------------------
# D106 mutable-default
# ---------------------------------------------------------------------------
def _is_mutable_value(node: ast.expr, module: ModuleInfo) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        qualified = module.qualified_name(node.func)
        if qualified in _MUTABLE_CTORS:
            return True
    return False


def _is_dataclass(node: ast.ClassDef, module: ModuleInfo) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        qualified = module.qualified_name(target)
        if qualified in ("dataclasses.dataclass", "dataclass"):
            return True
    return False


@rule(
    "D106",
    "mutable-default",
    "mutable default argument or shared mutable class attribute "
    "(replay hazard: state leaks across calls/instances)",
)
def check_mutable_default(module: ModuleInfo) -> Iterable[Finding]:
    findings: list[Finding] = []
    for fn in iter_function_defs(module.tree):
        for default in [*fn.args.defaults, *fn.args.kw_defaults]:
            if default is not None and _is_mutable_value(default, module):
                findings.append(
                    _finding(
                        "D106",
                        "mutable-default",
                        module,
                        default,
                        f"mutable default argument in {fn.name}() is shared "
                        "across calls; default to None or use a factory",
                    )
                )
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass_like = _is_dataclass(node, module)
        for statement in node.body:
            value: ast.expr | None = None
            name = ""
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
                if isinstance(target, ast.Name):
                    name, value = target.id, statement.value
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                name, value = statement.target.id, statement.value
            if value is None or name.startswith("__"):
                continue
            if _is_mutable_value(value, module):
                kind = (
                    "dataclass field default"
                    if dataclass_like
                    else "class attribute"
                )
                findings.append(
                    _finding(
                        "D106",
                        "mutable-default",
                        module,
                        value,
                        f"mutable {kind} {name!r} is shared by every "
                        "instance; use field(default_factory=...) or set it "
                        "in __init__",
                    )
                )
    return findings


__all__ = ["HOT_MODULES"]
