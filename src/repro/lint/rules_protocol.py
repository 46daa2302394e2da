"""P-rules: protocol hygiene checked across module boundaries.

These are the framework's structural invariants: every wire message has a
home (a dispatch site), stored timers have a cancellation path, message
payloads are frozen and never mutated by handlers (the chaos network may
``duplicate``/``reorder`` the same object!), and every configuration knob
is both declared and read.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import LintContext, ModuleInfo, iter_function_defs, walk_scope
from repro.lint.registry import rule
from repro.lint.report import Finding

#: Modules that define the wire vocabulary.  Every *dataclass* defined at
#: top level here is treated as a wire message (id-helper classes like
#: RequestId carry a ``# repro-lint: allow(P201)`` pragma at their def).
MESSAGE_MODULES = ("gcs/messages.py", "core/wire.py")

#: Functions recognised as dispatch sites for wire messages.
DISPATCH_FUNCTIONS = frozenset({"on_message", "on_group_message", "on_ptp"})

#: Modules that declare configuration knobs as dataclass fields.
KNOB_MODULES = ("core/config.py", "gcs/settings.py")
#: Attribute names under which knob objects travel (``self.policy.x``,
#: ``settings.y``, ``daemon.settings.z`` ...).
KNOB_BASES = frozenset({"policy", "settings"})

_TIMER_FACTORIES = frozenset({"set_timer", "set_timer_at", "set_periodic_timer"})
_TIMER_CANCELLERS = frozenset({"cancel", "stop"})

_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "update",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }
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


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
        if name == "dataclass":
            return True
    return False


def _wire_classes(context: LintContext) -> dict[str, tuple[ModuleInfo, ast.ClassDef]]:
    classes: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
    for module in context.modules_matching(*MESSAGE_MODULES):
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass_decorated(node):
                classes[node.name] = (module, node)
    return classes


def _isinstance_class_names(call: ast.Call) -> list[str]:
    """Class names tested by one ``isinstance(x, C)`` / ``isinstance(x,
    (C, D))`` call."""
    if len(call.args) != 2:
        return []
    target = call.args[1]
    candidates = target.elts if isinstance(target, ast.Tuple) else [target]
    names: list[str] = []
    for candidate in candidates:
        if isinstance(candidate, ast.Name):
            names.append(candidate.id)
        elif isinstance(candidate, ast.Attribute):
            names.append(candidate.attr)
    return names


# ---------------------------------------------------------------------------
# P201 dispatch completeness
# ---------------------------------------------------------------------------
@rule(
    "P201",
    "dispatch",
    "every wire message class needs >=1 dispatch site overall and <=1 "
    "per endpoint module",
    project=True,
)
def check_dispatch(context: LintContext) -> Iterator[Finding]:
    wire = _wire_classes(context)
    if not wire:
        return
    # name -> list of (module, line) dispatch sites
    sites: dict[str, list[tuple[ModuleInfo, int]]] = {name: [] for name in wire}
    dispatchers_seen = 0
    for module in context.modules:
        for fn in iter_function_defs(module.tree):
            if fn.name not in DISPATCH_FUNCTIONS:
                continue
            dispatchers_seen += 1
            seen_here: set[str] = set()
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                ):
                    for name in _isinstance_class_names(node):
                        if name in sites and name not in seen_here:
                            seen_here.add(name)
                            sites[name].append((module, node.lineno))
    if dispatchers_seen == 0:
        return  # partial scan (no endpoint modules): nothing to cross-check
    for name, (module, node) in sorted(wire.items()):
        hits = sites[name]
        if not hits:
            yield _finding(
                "P201",
                "dispatch",
                module,
                node,
                f"wire message {name} has no dispatch site (no "
                f"isinstance test in any {sorted(DISPATCH_FUNCTIONS)} handler)",
            )
            continue
        by_module: dict[str, int] = {}
        for site_module, _line in hits:
            by_module[site_module.display] = by_module.get(site_module.display, 0) + 1
        for display, count in sorted(by_module.items()):
            if count > 1:
                extra = next(
                    (m, line) for m, line in hits if m.display == display
                )
                yield _finding(
                    "P201",
                    "dispatch",
                    extra[0],
                    ast.Pass(lineno=extra[1], col_offset=0),
                    f"wire message {name} is dispatched {count} times in "
                    f"{display}: ambiguous handling (merge the handlers)",
                )


# ---------------------------------------------------------------------------
# P202 timer-cancel
# ---------------------------------------------------------------------------
@rule(
    "P202",
    "timer-cancel",
    "a timer handle stored on an object needs a reachable cancel()/stop() "
    "in the same module",
    project=True,
)
def check_timer_cancel(context: LintContext) -> Iterator[Finding]:
    for module in context.modules:
        stored: list[tuple[str, ast.AST]] = []
        cancelled: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = node.value.func
                if isinstance(func, ast.Attribute) and func.attr in _TIMER_FACTORIES:
                    for target in node.targets:
                        if isinstance(target, ast.Attribute):
                            stored.append((target.attr, node))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TIMER_CANCELLERS
            ):
                owner = node.func.value
                if isinstance(owner, ast.Attribute):
                    cancelled.add(owner.attr)
                elif isinstance(owner, ast.Name):
                    cancelled.add(owner.id)
        for attr, node in stored:
            if attr not in cancelled:
                yield _finding(
                    "P202",
                    "timer-cancel",
                    module,
                    node,
                    f"timer stored as .{attr} is never cancelled/stopped in "
                    "this module — a stale firing can act on dead state "
                    "(cancel it, or pragma process-lifetime timers)",
                )


# ---------------------------------------------------------------------------
# P203 frozen-message / handler mutation
# ---------------------------------------------------------------------------
def _root_name(node: ast.expr) -> str | None:
    cursor = node
    while isinstance(cursor, (ast.Attribute, ast.Subscript)):
        cursor = cursor.value
    return cursor.id if isinstance(cursor, ast.Name) else None


@rule(
    "P203",
    "frozen-message",
    "wire messages must be frozen dataclasses and handlers must not "
    "mutate received message objects",
    project=True,
)
def check_frozen_message(context: LintContext) -> Iterator[Finding]:
    # Part A: every wire message dataclass is frozen=True.
    for name, (module, node) in sorted(_wire_classes(context).items()):
        frozen = False
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        frozen = True
        if not frozen:
            yield _finding(
                "P203",
                "frozen-message",
                module,
                node,
                f"wire message {name} is not @dataclass(frozen=True): the "
                "chaos network may deliver the same object twice, so "
                "payloads must be immutable",
            )
    # Part B: handler functions must not mutate their non-self parameters
    # or local aliases of them (``payload = message.payload``) — a received
    # object aliases every duplicate delivery of itself.
    for module in context.modules:
        for fn in iter_function_defs(module.tree):
            if not (fn.name.startswith("on_") or fn.name.startswith("_on_")):
                continue
            tainted = {
                arg.arg
                for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
                if arg.arg not in ("self", "cls")
            }
            if not tainted:
                continue
            for node in walk_scope(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        # propagate taint through plain aliases; a rebind to
                        # anything else (e.g. a Call result) clears it
                        root = _root_name(node.value)
                        if root in tainted and isinstance(
                            node.value, (ast.Name, ast.Attribute, ast.Subscript)
                        ):
                            tainted.add(target.id)
                        else:
                            tainted.discard(target.id)
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = [
                        t
                        for t in node.targets
                        if isinstance(t, (ast.Attribute, ast.Subscript))
                    ]
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif isinstance(node, ast.Delete):
                    targets = list(node.targets)
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root in tainted:
                            yield _finding(
                                "P203",
                                "frozen-message",
                                module,
                                node,
                                f"handler {fn.name}() mutates received "
                                f"object {root!r}: deliveries may be "
                                "redelivered (duplicate/reorder aliasing)",
                            )
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                ):
                    root = _root_name(node.func.value)
                    if root in tainted:
                        yield _finding(
                            "P203",
                            "frozen-message",
                            module,
                            node,
                            f"handler {fn.name}() calls .{node.func.attr}() "
                            f"on received object {root!r}: deliveries may "
                            "be redelivered (duplicate/reorder aliasing)",
                        )


# ---------------------------------------------------------------------------
# P204 knob-sync
# ---------------------------------------------------------------------------
def _knob_declarations(
    context: LintContext,
) -> tuple[dict[str, tuple[ModuleInfo, ast.AST]], set[str]]:
    """Returns (checkable declarations: fields+properties, all declared
    names incl. methods)."""
    checkable: dict[str, tuple[ModuleInfo, ast.AST]] = {}
    declared: set[str] = set()
    for module in context.modules_matching(*KNOB_MODULES):
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef) or not _is_dataclass_decorated(node):
                continue
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    name = statement.target.id
                    if not name.startswith("_"):
                        checkable[name] = (module, statement)
                        declared.add(name)
                elif isinstance(statement, ast.FunctionDef):
                    declared.add(statement.name)
                    is_property = any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in statement.decorator_list
                    )
                    if is_property and not statement.name.startswith("_"):
                        checkable[statement.name] = (module, statement)
    return checkable, declared


@rule(
    "P204",
    "knob-sync",
    "every declared config knob must be read somewhere, and every "
    "policy/settings attribute read must be a declared knob",
    project=True,
)
def check_knob_sync(context: LintContext) -> Iterator[Finding]:
    checkable, declared = _knob_declarations(context)
    if not checkable:
        return
    knob_modules = set(
        m.display for m in context.modules_matching(*KNOB_MODULES)
    )
    consumers = [m for m in context.modules if m.display not in knob_modules]
    if not consumers:
        return  # partial scan: only the knob modules themselves
    reads: dict[str, int] = {}
    for module in consumers:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            base_name = (
                base.id
                if isinstance(base, ast.Name)
                else base.attr
                if isinstance(base, ast.Attribute)
                else None
            )
            if base_name not in KNOB_BASES:
                continue
            reads[node.attr] = reads.get(node.attr, 0) + 1
            if node.attr not in declared and not node.attr.startswith("_"):
                yield _finding(
                    "P204",
                    "knob-sync",
                    module,
                    node,
                    f"read of undeclared knob .{node.attr} (not a field, "
                    "property or method of AvailabilityPolicy/GcsSettings)",
                )
    for name, (module, node) in sorted(checkable.items()):
        if name not in reads:
            yield _finding(
                "P204",
                "knob-sync",
                module,
                node,
                f"declared knob {name!r} is never read outside its "
                "defining module: dead configuration",
            )


__all__ = ["DISPATCH_FUNCTIONS", "KNOB_MODULES", "MESSAGE_MODULES"]
