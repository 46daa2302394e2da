"""``@wire(type_id)`` above a dataclass makes it a wire type of the live
runtime's codec, under that id, where the class is defined.

This module imports nothing from the package, so any layer can declare
its vocabulary without importing :mod:`repro.net.codec` (whose imports
reach the runtime).  The codec imports the vocabulary modules and
registers :data:`DECLARED` in id order; a class those imports do not
reach calls ``register(cls)`` instead.

**The constructor.**  A wire value is built once per message on both
runtimes, so the declaration also decides how it is built.  A frozen
dataclass's ``__init__`` stores each field with ``object.__setattr__``,
which looks the name up through the class on every store; for a frozen
*slotted* class :func:`wire` compiles an ``__init__`` that stores
straight through each field's slot descriptor instead (about half the
cost).  It keeps the parameters, defaults, ``default_factory`` calls and
annotations of the one :mod:`dataclasses` wrote, so ``inspect.signature``,
``replace``, pickling and the frozen ``__setattr__`` are unchanged.  A
class with ``__post_init__``, ``InitVar``, ``init=False`` or keyword-only
fields keeps the original.  Like the codec's coders, the constructor is
compiled on the first construction, not at import: until then the class
carries a stand-in that compiles it, puts it in its own place and runs it
(and that reports the original's signature).
"""

from __future__ import annotations

import dataclasses
import functools
from types import MemberDescriptorType
from typing import Any, Callable, TypeVar

_C = TypeVar("_C", bound=type)

#: ``(class, type id, packed tag, packed layout)`` of every declaration made
DECLARED: list[tuple[type, int, int | None, str | None]] = []


def wire(type_id: int, tag: int | None = None, layout: str | None = None) -> Callable[[_C], _C]:
    """Declare wire type ``type_id`` (never reuse or renumber one), with a
    packed form when ``tag`` and ``layout`` are given, as for the codec's
    ``register``.  Goes above ``@dataclass``, to record the class it builds."""

    def declare(cls: _C) -> _C:
        DECLARED.append((cls, type_id, tag, layout))
        _store_directly(cls)
        return cls

    return declare


def _store_directly(cls: type) -> None:
    """Give a frozen slotted dataclass the direct-store ``__init__`` (see
    the module docstring), compiled when it is first called."""
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in cls.__dict__:
        return
    original = cls.__dict__["__init__"]
    names = tuple(f.name for f in dataclasses.fields(cls))
    code = original.__code__
    if (
        hasattr(cls, "__post_init__")
        or code.co_kwonlyargcount
        or code.co_varnames[: code.co_argcount] != ("self", *names)
        # each field's slot, which may sit on a base class
        or not all(isinstance(getattr(cls, name, None), MemberDescriptorType) for name in names)
    ):
        return

    def compile_on_first_call(self: Any, *args: Any, **kwargs: Any) -> None:
        init = cls.__init__ = _compile_init(cls, original)  # type: ignore[misc]
        init(self, *args, **kwargs)

    # name, annotations and __wrapped__, which inspect.signature follows
    cls.__init__ = functools.update_wrapper(compile_on_first_call, original)  # type: ignore[misc]


def _compile_init(cls: type, original: Any) -> Any:
    """The direct-store ``__init__`` of ``cls``, with the parameters,
    defaults and annotations of ``original``."""
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    # the defaults of the trailing fields; a default_factory field's is the
    # sentinel that means "call the factory"
    given = original.__defaults__ or ()
    defaults = dict(zip(names[len(names) - len(given) :], given))
    constants: dict[str, Any] = {}
    body = []
    for i, f in enumerate(fields):
        constants[f"__wire_set{i}"] = getattr(cls, f.name).__set__
        value = f.name
        if f.default_factory is not dataclasses.MISSING:
            constants[f"__wire_factory{i}"] = f.default_factory
            constants[f"__wire_absent{i}"] = defaults[f.name]
            value = f"__wire_factory{i}() if {f.name} is __wire_absent{i} else {f.name}"
        body.append(f"  __wire_set{i}(self, {value})")
    source = "\n".join(
        [
            f"def make({', '.join(constants)}):",
            f" def __init__({', '.join(['self', *names])}):",
            *(" " + line for line in body or ["  pass"]),
            " return __init__",
        ]
    )
    scope: dict[str, Any] = {}
    exec(compile(source, f"<repro.wiretypes {cls.__qualname__}>", "exec"), {}, scope)
    init = scope["make"](**constants)
    init.__defaults__ = original.__defaults__
    init.__annotations__ = original.__annotations__
    init.__qualname__ = original.__qualname__
    init.__module__ = original.__module__
    return init
