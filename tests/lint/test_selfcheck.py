"""The repo gates itself: ``repro lint src/`` must stay clean, and P201
must catch a wire message that gains no dispatch site."""

import os
import shutil
import subprocess
import sys

from repro.lint import lint_paths


def test_src_tree_is_clean(src_dir):
    report = lint_paths([src_dir])
    assert report.ok, "\n".join(f.render() for f in report.findings)
    assert report.files_scanned > 50


def test_src_tree_clean_via_cli(src_dir):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(src_dir)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src_dir)},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_every_wire_message_is_dispatched(src_dir):
    """Dispatch completeness on the real tree, isolated to P201 so the
    failure message names the orphaned message class."""
    report = lint_paths([src_dir], select=["P201"])
    assert report.ok, "\n".join(f.render() for f in report.findings)


def test_new_wire_message_without_handler_fails(src_dir, tmp_path):
    """Adding a message class to gcs/messages.py without touching any
    dispatcher must turn the lint red — the regression the gate exists
    to catch."""
    staged = tmp_path / "gcs"
    staged.mkdir()
    for name in ("messages.py", "daemon.py", "client_api.py"):
        shutil.copy(src_dir / "repro" / "gcs" / name, staged / name)
    with (staged / "messages.py").open("a", encoding="utf-8") as handle:
        handle.write(
            "\n\n@dataclass(frozen=True, slots=True)\n"
            "class Orphaned:\n    seq: int\n"
        )
    report = lint_paths([tmp_path], select=["P201"])
    assert not report.ok
    assert any("Orphaned" in f.message for f in report.findings)
