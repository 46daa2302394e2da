"""What a crash erases is written once.

Each crash-resettable component builds its crash-volatile state in one
method, which its constructor calls too.  This census reads the source:
every attribute ``__init__`` assigns must either be rebuilt by that
method (or a method it calls) or be named below as a survivor, with the
reason it outlives a crash (DESIGN §6, "What a recovered daemon keeps").
A new field is therefore classified when it is added, and the two lists
cannot drift apart again.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.core.server import FrameworkServer
from repro.gcs.client_api import GcsClient
from repro.gcs.daemon import GcsDaemon
from repro.gcs.failure_detector import FailureDetector
from repro.gcs.membership import MembershipEngine
from repro.gcs.swim import SwimDetector

WIRING = "fixed at construction: identity, collaborators or settings"
COUNTER = "observability counter, kept for the process's lifetime"

#: class -> (its crash-volatile method, {survivor: why it survives})
CENSUS = {
    GcsDaemon: (
        "_reset_volatile",
        {
            "world": "the static world (spawn_server extends it in place)",
            "app": WIRING,
            "settings": WIRING,
            "monitor": WIRING,
            "fd": "the detector object; on_recover resets it via fd.reset()",
            "membership": "the engine object; on_recover resets it via"
            " membership.reset() and bumps its view_counter",
            "stable_floor": "observability: the last tick's stable point",
            "holdback_retained_max": COUNTER,
            "_req_counter": "request counters keep counting (ids carry the"
            " incarnation as well)",
            "_member_incarnations": "open question of ROADMAP 2(a): recovery"
            " keeps the previous configuration's, resync and install rewrite"
            " them",
            "_hb_timer": "re-armed by _boot; a crash stops it",
            "_next_tick": "rewritten by the next tick",
            "_deadline_timer": "disarmed by on_crash and on_recover",
        },
    ),
    MembershipEngine: (
        "reset",
        {
            "daemon": WIRING,
            "me": WIRING,
            "settings": WIRING,
            "view_counter": "view ids only grow: a recovered daemon's views"
            " must outrank its earlier ones",
        },
    ),
    FailureDetector: (
        "reset",
        {
            "_host": WIRING,
            "me": WIRING,
            "suspect_timeout": WIRING,
            "_now": WIRING,
            "_on_change": WIRING,
            "max_view_counter_seen": "feeds restart_as_singleton's counter,"
            " which must outrank every view seen",
            "idle_checks": COUNTER,
            "full_scans": COUNTER,
        },
    ),
    SwimDetector: (
        "reset",
        {
            "_host": WIRING,
            "me": WIRING,
            "settings": WIRING,
            "_world": WIRING,
            "_now": WIRING,
            "_on_change": WIRING,
            "_send": WIRING,
            "_local_state": WIRING,
            "_rng": "never reseeded: draw counts stay deterministic",
            "_probe_seq": "probe numbering continues: a late ack from the"
            " previous life must not match a new probe",
            "_round": "the round clock paces rejoin probes deterministically",
            "_ae_turn": "the anti-entropy turn clock, same reason",
            "_next_anti_entropy": "re-timing it would shift the gossip digests",
            "max_view_counter_seen": "feeds restart_as_singleton's counter,"
            " which must outrank every view seen",
            "suspicions_started": COUNTER,
            "suspicions_refuted": COUNTER,
            "refutations_sent": COUNTER,
            "evictions": COUNTER,
        },
    ),
    GcsClient: (
        "_reset_volatile",
        {
            "contacts": WIRING,
            "app": WIRING,
            "settings": WIRING,
            "_counter": "request counters keep counting (ids carry the"
            " incarnation as well)",
            "_contact_index": "a recovered client carries on rotating",
            "sends_failed": COUNTER,
        },
    ),
    FrameworkServer: (
        "_reset_volatile",
        {
            "server_id": WIRING,
            "policy": WIRING,
            "hosted_units": WIRING,
            "applications": WIRING,
            "catalog": WIRING,
            "daemon": "the daemon object; it resets itself on recovery",
            "sim": WIRING,
            "counters": COUNTER,
            "_crash_hooks": "a trap armed while the server is down belongs to"
            " the fault, not the server",
        },
    ),
}


def _methods(cls_node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node for node in cls_node.body if isinstance(node, ast.FunctionDef)
    }


def _self_targets(func: ast.FunctionDef) -> set[str]:
    """Names of the ``self.<name> = ...`` (or annotated) targets in ``func``."""
    names: set[str] = set()
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    return names


def _self_calls(func: ast.FunctionDef) -> set[str]:
    """Names of the ``self.<method>(...)`` calls in ``func``."""
    return {
        node.func.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    }


def _volatile_targets(methods: dict[str, ast.FunctionDef], root: str) -> set[str]:
    """What ``root`` assigns, following the methods of the class it calls."""
    seen: set[str] = set()
    todo = [root]
    names: set[str] = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in methods:
            continue
        seen.add(name)
        names |= _self_targets(methods[name])
        todo.extend(_self_calls(methods[name]))
    return names


def census(cls_node: ast.ClassDef, volatile: str, survivors: dict[str, str]):
    """``(unclassified, survivors_reset)``: the ``__init__`` attributes
    neither rebuilt by ``volatile`` nor named survivors, and the named
    survivors that ``volatile`` does rebuild."""
    methods = _methods(cls_node)
    init = _self_targets(methods["__init__"])
    rebuilt = _volatile_targets(methods, volatile)
    return init - rebuilt - set(survivors), set(survivors) & rebuilt


def _class_node(cls: type) -> ast.ClassDef:
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    node = tree.body[0]
    assert isinstance(node, ast.ClassDef)
    return node


@pytest.mark.parametrize("cls", list(CENSUS), ids=lambda cls: cls.__name__)
def test_every_field_is_rebuilt_by_the_volatile_method_or_a_named_survivor(cls):
    volatile, survivors = CENSUS[cls]
    unclassified, survivors_reset = census(_class_node(cls), volatile, survivors)
    assert not unclassified, (
        f"{cls.__name__}.__init__ assigns {sorted(unclassified)}: build them"
        f" in {volatile}() or name them as survivors here, with the reason"
    )
    assert not survivors_reset, (
        f"{cls.__name__}.{volatile}() rebuilds {sorted(survivors_reset)},"
        " which are listed as surviving a crash"
    )
    assert all(reason.strip() for reason in survivors.values())


@pytest.mark.parametrize("cls", list(CENSUS), ids=lambda cls: cls.__name__)
def test_the_constructor_builds_through_the_volatile_method(cls):
    volatile, _ = CENSUS[cls]
    methods = _methods(_class_node(cls))
    assert volatile in _self_calls(methods["__init__"])


def test_the_census_flags_an_unclassified_field():
    source = textwrap.dedent(inspect.getsource(GcsDaemon)).replace(
        "        self._next_tick = 0.0\n",
        "        self._next_tick = 0.0\n        self._new_field = {}\n",
    )
    node = ast.parse(source).body[0]
    assert isinstance(node, ast.ClassDef)
    volatile, survivors = CENSUS[GcsDaemon]
    assert census(node, volatile, survivors) == ({"_new_field"}, set())


def test_the_daemon_assigns_its_configuration_in_one_method():
    methods = _methods(_class_node(GcsDaemon))
    assigners = {name for name, func in methods.items() if "config" in _self_targets(func)}
    assert assigners == {"_enter"}
    # recovery goes through the volatile method, not field by field
    assert _self_targets(methods["on_recover"]) == set()
    assert "_reset_volatile" in _self_calls(methods["on_recover"])
