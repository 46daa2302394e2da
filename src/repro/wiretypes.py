"""``@wire(type_id)`` above a dataclass makes it a wire type of the live
runtime's codec, under that id, where the class is defined.

This module imports nothing from the package, so any layer can declare
its vocabulary without importing :mod:`repro.net.codec` (whose imports
reach the runtime).  The codec imports the vocabulary modules and
registers :data:`DECLARED` in id order; a class those imports do not
reach calls ``register(cls)`` instead.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_C = TypeVar("_C", bound=type)

#: ``(class, type id, packed tag, packed layout)`` of every declaration made
DECLARED: list[tuple[type, int, int | None, str | None]] = []


def wire(type_id: int, tag: int | None = None, layout: str | None = None) -> Callable[[_C], _C]:
    """Declare wire type ``type_id`` (never reuse or renumber one), with a
    packed form when ``tag`` and ``layout`` are given, as for the codec's
    ``register``.  Goes above ``@dataclass``, to record the class it builds."""

    def declare(cls: _C) -> _C:
        DECLARED.append((cls, type_id, tag, layout))
        return cls

    return declare
