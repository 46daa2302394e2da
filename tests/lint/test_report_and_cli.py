"""The JSON report contract and the command-line front end."""

import json

import pytest

from repro.lint import all_rules, get_rule, lint_paths
from repro.lint.cli import build_parser, main


def test_report_json_contract(bad_dir):
    report = lint_paths([bad_dir])
    data = json.loads(report.to_json())
    assert data["version"] == 1
    assert data["ok"] is False
    assert data["files_scanned"] == 11
    assert data["suppressed"] == 0
    assert set(data["rules_run"]) == {r.rule_id for r in all_rules()}
    assert data["counts_by_rule"]["D101"] == 2
    first = data["findings"][0]
    assert set(first) == {"rule", "slug", "path", "line", "col", "message"}
    # findings arrive sorted by (path, line, col, rule)
    keys = [(f["path"], f["line"], f["col"], f["rule"]) for f in data["findings"]]
    assert keys == sorted(keys)


def test_registry_catalogue():
    rules = all_rules()
    ids = [r.rule_id for r in rules]
    assert ids == sorted(ids)
    assert {r.rule_id for r in rules} == {
        "D101", "D102", "D103", "D104", "D105", "D106",
        "P201", "P202", "P203", "P204", "P205",
    }
    assert get_rule("D103").slug == "set-order"
    assert get_rule("set-order").rule_id == "D103"
    with pytest.raises(KeyError):
        get_rule("D999")


def test_cli_clean_run_exits_zero(good_dir, capsys):
    assert main([str(good_dir)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "2 suppressed" in out


def test_cli_findings_exit_one_and_render(bad_dir, capsys):
    assert main([str(bad_dir), "--select", "D101"]) == 1
    out = capsys.readouterr().out
    assert "D101(wall-clock)" in out
    assert "FAILED (D101:2)" in out


def test_cli_quiet_suppresses_findings(bad_dir, capsys):
    assert main([str(bad_dir), "--quiet"]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" not in out
    assert "FAILED" in out


def test_cli_json_artifact(bad_dir, tmp_path, capsys):
    artifact = tmp_path / "lint.json"
    assert main([str(bad_dir), "--json", str(artifact)]) == 1
    capsys.readouterr()
    data = json.loads(artifact.read_text(encoding="utf-8"))
    assert data["ok"] is False
    assert len(data["findings"]) == 23


def test_cli_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "no such file" in capsys.readouterr().out


def test_cli_unknown_rule_exits_two(good_dir, capsys):
    assert main([str(good_dir), "--select", "D999"]) == 2
    assert "unknown rule" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D101", "D106", "P201", "P204"):
        assert rule_id in out


def test_parser_defaults_to_src():
    args = build_parser().parse_args([])
    assert args.paths == ["src"]
