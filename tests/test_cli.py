"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main


def test_policy_command(capsys):
    assert main(["policy", "--target", "1e-4", "--failure-rate", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "backups needed" in out
    assert "achieved loss" in out


def test_experiments_subset_fast(capsys):
    assert main(["experiments", "--fast", "E3"]) == 0
    out = capsys.readouterr().out
    assert "E3:" in out


def test_experiments_unknown_id_is_refused(capsys):
    assert main(["experiments", "--fast", "E3", "E99"]) == 2
    captured = capsys.readouterr()
    assert "unknown id(s) E99" in captured.err
    assert "E3:" not in captured.out


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "frames" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_chaos_explore_smoke(capsys, tmp_path):
    # one clean iteration per profile at a pinned seed: exit 0, no artifacts
    assert (
        main(
            [
                "chaos",
                "--seed", "1",
                "--iterations", "3",
                "--artifact-dir", str(tmp_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
    assert list(tmp_path.iterdir()) == []


def test_chaos_plant_found_shrunk_and_replayable(capsys, tmp_path):
    # validation mode: with the planted bug the engine must find it
    # (exit 0 == found), write an artifact, and --replay must re-trigger it
    assert (
        main(
            [
                "chaos",
                "--seed", "8",
                "--iterations", "2",
                "--profile", "crashes",
                "--plant", "handoff-stall",
                "--artifact-dir", str(tmp_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "VIOLATION" in out
    assert "shrunk" in out
    artifacts = sorted(tmp_path.glob("chaos-*.json"))
    assert artifacts
    assert main(["chaos", "--replay", str(artifacts[0])]) == 0
    out = capsys.readouterr().out
    assert "reproduced       : yes" in out


_INVALID = sorted((Path(__file__).parent / "chaos" / "artifacts" / "invalid").glob("*.json"))
#: the field an invalid artifact's refusal names: the schedule, unless the
#: file is named after another field
_REFUSED_FIELD = {"violations": "violations", "replay": "replay_log"}


def _refused(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_chaos_replay_refuses_a_missing_file(capsys, tmp_path):
    err = _refused(["chaos", "--replay", str(tmp_path / "gone.json")], capsys)
    assert err.startswith("chaos:") and "gone.json" in err


def test_chaos_replay_refuses_a_wrong_format(capsys, tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "repro-chaos/0"}))
    err = _refused(["chaos", "--replay", str(path)], capsys)
    assert err.startswith("chaos:") and "repro-chaos/1" in err


@pytest.mark.parametrize("path", _INVALID, ids=[p.stem for p in _INVALID])
def test_chaos_replay_refuses_an_invalid_entry(capsys, path):
    err = _refused(["chaos", "--replay", str(path)], capsys)
    field = _REFUSED_FIELD.get(path.stem.split("-")[0], "schedule entry")
    assert err.startswith("chaos: malformed chaos artifact") and field in err
