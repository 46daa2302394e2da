"""``@wire`` compiles a direct-store ``__init__`` for every frozen slotted
wire type: it must build exactly what the ``__init__`` of :mod:`dataclasses`
builds, behind the same signature.

Each registered class is compared with a twin that :mod:`dataclasses` alone
builds from the same fields (same name, annotations, defaults and
factories, frozen and slotted, no ``@wire``).
"""

import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wire import Propagate
from repro.gcs.messages import AttemptId, Install
from repro.gcs.view import ViewId
from repro.net.codec import registered_types
from repro.wiretypes import DECLARED, wire
from tests.net.test_codec import _wire_values

#: the ``@wire`` declarations (``register()`` calls from tests add others)
_DECLARED = [cls for cls in registered_types() if any(cls is c for c, *_ in DECLARED)]
_SLOTTED = [cls for cls in _DECLARED if "__slots__" in cls.__dict__]


def _twin(cls):
    """``cls`` as :mod:`dataclasses` builds it, without the compiled ``__init__``."""
    namespace = {
        "__annotations__": {f.name: f.type for f in fields(cls)},
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    }
    for f in fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            namespace[f.name] = field(default_factory=f.default_factory)
        elif f.default is not dataclasses.MISSING:
            namespace[f.name] = f.default
    return dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))


def _state(instance):
    return tuple(getattr(instance, f.name) for f in fields(instance))


def _hash(instance):
    try:
        return hash(instance)
    except TypeError as exc:  # a list or dict in a field
        return str(exc)


def _compiled(cls):
    return cls.__init__.__code__.co_filename.startswith("<repro.wiretypes")


def test_every_wire_type_but_propagate_is_slotted_and_compiled():
    assert len(_DECLARED) == 38
    assert [cls for cls in _DECLARED if cls not in _SLOTTED] == [Propagate]
    for cls in _SLOTTED:
        cls(*[None] * len(fields(cls)))
        assert _compiled(cls), cls
    # Propagate keeps the dataclasses __init__: it caches wire_size in its __dict__
    assert Propagate.__init__.__code__.co_filename == "<string>"


_LAZY_SCRIPT = """
import inspect
import repro.net.codec
from repro.gcs.messages import Install
from repro.gcs.view import ViewId
stand_in = ViewId.__init__
assert stand_in.__wrapped__ and stand_in.__qualname__ == "ViewId.__init__"
assert str(inspect.signature(ViewId)) == "(counter: 'int', coordinator: 'NodeId') -> None"
assert ViewId(1, "s0") == ViewId(counter=1, coordinator="s0")
assert ViewId.__init__ is not stand_in and not hasattr(ViewId.__init__, "__wrapped__")
assert hasattr(Install.__init__, "__wrapped__")  # not built yet: not compiled
"""


def test_constructors_are_compiled_on_first_construction():
    """The guard for start-up time, as for the codec's coders."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", _LAZY_SCRIPT], env=env, check=True, timeout=60)


@pytest.mark.parametrize("cls", _SLOTTED, ids=lambda cls: cls.__name__)
def test_signature_is_the_one_dataclasses_writes(cls):
    cls(*[None] * len(fields(cls)))  # compiled, if it was not yet
    assert inspect.signature(cls) == inspect.signature(_twin(cls))
    assert inspect.signature(cls.__init__) == inspect.signature(_twin(cls).__init__)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


def _matches_its_twin(cls):
    twin = _twin(cls)

    @settings(max_examples=15, deadline=None)
    @given(st.tuples(*[_wire_values for _ in fields(cls)]))
    def check(values):
        built, reference = cls(*values), twin(*values)
        by_keyword = cls(**{f.name: v for f, v in zip(fields(cls), values)})
        assert _state(built) == _state(reference) == values
        assert built == by_keyword and not built != by_keyword
        assert _hash(built) == _hash(reference) == _hash(by_keyword)
        assert repr(built) == repr(reference)
        assert pickle.loads(pickle.dumps(built)) == built
        assert dataclasses.replace(built) == built
        name = fields(cls)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(built, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(built, name)
        assert not hasattr(built, "__dict__")

    return check


def test_instances_match_the_dataclasses_build():
    """Positional and keyword construction, ==, hash, repr, pickling and the
    frozen ``__setattr__``/``__delattr__``, for arbitrary field values."""
    for cls in _SLOTTED:
        _matches_its_twin(cls)()


def test_defaults_and_default_factory_are_applied():
    install = Install(AttemptId(1, "s0"), ViewId(1, "s0"), ("s0",), {}, {}, {})
    assert install.member_incarnations == {} and install.orphans == ()
    again = Install(AttemptId(1, "s0"), ViewId(1, "s0"), ("s0",), {}, {}, {})
    assert install.member_incarnations is not again.member_incarnations
    given_map = {"s0": 3}
    assert Install(AttemptId(1, "s0"), ViewId(1, "s0"), ("s0",), {}, {}, {}, given_map) \
        .member_incarnations is given_map
    with pytest.raises(TypeError, match="missing"):
        Install(AttemptId(1, "s0"))
    with pytest.raises(TypeError, match="unexpected keyword"):
        ViewId(1, "s0", extra=2)
    with pytest.raises(TypeError, match="positional"):
        ViewId(1, "s0", 2)


def test_a_slotted_instance_is_smaller():
    view = ViewId(1, "s0")
    assert not hasattr(view, "__dict__")
    assert sys.getsizeof(view) < sys.getsizeof(Propagate("s", "u")) + sys.getsizeof(
        Propagate("s", "u").__dict__
    )


def test_classes_the_constructor_does_not_fit_keep_their_own():
    declared = len(DECLARED)
    try:

        @wire(900)
        @dataclass(frozen=True, slots=True)
        class WithPostInit:
            x: int
            doubled: int = field(init=False, default=0)

            def __post_init__(self):
                object.__setattr__(self, "doubled", 2 * self.x)

        @wire(901)
        @dataclass(frozen=True, slots=True, kw_only=True)
        class KeywordOnly:
            x: int

        @wire(902)
        @dataclass(slots=True)
        class Mutable:
            x: int

        @wire(903)
        @dataclass(frozen=True, slots=True)
        class Compiled:
            x: int
            y: list = field(default_factory=list)

        @wire(904)
        @dataclass(frozen=True, slots=True)
        class Derived(Compiled):
            z: str = "z"

    finally:
        del DECLARED[declared:]
    assert WithPostInit(3).doubled == 6
    assert KeywordOnly(x=1).x == 1
    assert Compiled(1) == Compiled(1, []) and Compiled(1).y is not Compiled(1).y
    assert Derived(1, [2], "w") == Derived(x=1, y=[2], z="w") and Derived(1).z == "z"
    # the inherited fields' slots sit on the base class
    assert "x" not in Derived.__dict__ and repr(Derived(1)).endswith("Derived(x=1, y=[], z='z')")
    for cls in (WithPostInit, KeywordOnly, Mutable):
        assert cls.__init__.__code__.co_filename == "<string>", cls
    assert _compiled(Compiled) and _compiled(Derived)
