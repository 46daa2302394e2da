"""Fixture-driven rule tests: every known-bad snippet trips exactly its
rule, and the known-good twin of each construct passes everything."""

import pytest

from repro.lint import lint_paths


def _findings(path, rule_id):
    report = lint_paths([path], select=[rule_id])
    return report.findings


# ---------------------------------------------------------------------------
# D-rules
# ---------------------------------------------------------------------------
def test_d101_wall_clock(bad_dir):
    found = _findings(bad_dir, "D101")
    assert len(found) == 2
    assert all(f.path.endswith("sim/clock.py") for f in found)
    assert {f.line for f in found} == {8, 12}


def test_d102_ambient_entropy(bad_dir):
    found = _findings(bad_dir, "D102")
    assert len(found) == 4
    assert all(f.path.endswith("sim/entropy.py") for f in found)
    messages = " ".join(f.message for f in found)
    for source in ("random.random", "uuid.uuid4", "numpy.random.rand", "os.urandom"):
        assert source in messages


def test_d103_set_order(bad_dir):
    found = _findings(bad_dir, "D103")
    assert len(found) == 4
    assert all(f.path.endswith("sim/set_order.py") for f in found)
    messages = " ".join(f.message for f in found)
    assert "for-loop over a set" in messages
    assert "join over a set" in messages
    assert "list(set)" in messages
    assert "comprehension over a set" in messages


def test_d104_id_order(bad_dir):
    found = _findings(bad_dir, "D104")
    assert len(found) == 2
    assert all(f.path.endswith("sim/id_order.py") for f in found)
    # one direct call, one by-reference (sorted(..., key=id))
    assert any("id()" in f.message for f in found)
    assert any("passed as a key" in f.message for f in found)


def test_d105_slots_required(bad_dir):
    found = _findings(bad_dir, "D105")
    assert len(found) == 1
    assert found[0].path.endswith("sim/engine.py")
    assert "Simulator" in found[0].message


def test_d105_named_tuple_counts_as_slotted(tmp_path):
    # typing gives a NamedTuple subclass __slots__ = () itself; a plain
    # class, or a base that merely shares the name, is still flagged
    hot = tmp_path / "sim" / "network.py"
    hot.parent.mkdir()
    hot.write_text(
        "import typing\n"
        "from typing import NamedTuple\n\n\n"
        "class Message(NamedTuple):\n    sender: str\n\n\n"
        "class Envelope(typing.NamedTuple):\n    kind: str\n\n\n"
        "class LinkStats:\n    sent = 0\n"
    )
    found = _findings(tmp_path, "D105")
    assert [f.message.split()[1] for f in found] == ["LinkStats"]
    hot.write_text(
        "from records import NamedTuple\n\n\n"
        "class Message(NamedTuple):\n    sender: str\n"
    )
    found = _findings(tmp_path, "D105")
    assert [f.message.split()[1] for f in found] == ["Message"]


def test_d106_mutable_default(bad_dir):
    found = _findings(bad_dir, "D106")
    assert len(found) == 2
    assert all(f.path.endswith("sim/defaults.py") for f in found)
    assert any("default argument" in f.message for f in found)
    assert any("class attribute" in f.message for f in found)


# ---------------------------------------------------------------------------
# P-rules
# ---------------------------------------------------------------------------
def test_p201_dispatch_orphan_and_ambiguity(bad_dir):
    found = _findings(bad_dir, "P201")
    assert len(found) == 2
    orphan = [f for f in found if "no dispatch site" in f.message]
    ambiguous = [f for f in found if "ambiguous" in f.message]
    assert len(orphan) == 1 and "Pong" in orphan[0].message
    assert len(ambiguous) == 1 and "Ping" in ambiguous[0].message
    assert orphan[0].path.endswith("gcs/messages.py")
    assert ambiguous[0].path.endswith("gcs/daemon.py")


def test_p202_timer_cancel(bad_dir):
    found = _findings(bad_dir, "P202")
    assert len(found) == 1
    assert found[0].path.endswith("gcs/daemon.py")
    assert "_poll_timer" in found[0].message


def test_p203_frozen_and_mutation(bad_dir):
    found = _findings(bad_dir, "P203")
    assert len(found) == 2
    unfrozen = [f for f in found if "not @dataclass(frozen=True)" in f.message]
    mutation = [f for f in found if "mutates received object" in f.message]
    assert len(unfrozen) == 1 and "Mutable" in unfrozen[0].message
    # the mutation is through a local alias (payload = message.payload)
    assert len(mutation) == 1 and "'payload'" in mutation[0].message


def test_p204_knob_sync(bad_dir):
    found = _findings(bad_dir, "P204")
    assert len(found) == 2
    assert any("dead_knob" in f.message for f in found)
    assert any("ghost_knob" in f.message for f in found)


# ---------------------------------------------------------------------------
# totals and the good twin
# ---------------------------------------------------------------------------
def test_bad_fixture_totals(bad_dir):
    report = lint_paths([bad_dir])
    assert not report.ok
    assert report.counts_by_rule() == {
        "D101": 2,
        "D102": 4,
        "D103": 4,
        "D104": 2,
        "D105": 1,
        "D106": 2,
        "P201": 2,
        "P202": 1,
        "P203": 2,
        "P204": 2,
    }


def test_good_fixtures_are_clean(good_dir):
    report = lint_paths([good_dir])
    assert report.ok
    assert report.findings == []
    # the host-timing fixture exercises both pragma spellings
    assert report.suppressed == 2


def test_unknown_rule_selection_raises(bad_dir):
    with pytest.raises(KeyError):
        lint_paths([bad_dir], select=["D999"])
