"""The live-runtime CLI: `repro cluster` and `repro serve`."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_cluster_cli_clean_run(tmp_path, capsys):
    artifact = tmp_path / "audit.json"
    code = main(
        [
            "cluster",
            "--nodes",
            "3",
            "--transport",
            "udp",
            "--requests",
            "20",
            "--update-interval",
            "0.02",
            "--settle",
            "1.0",
            "--audit-json",
            str(artifact),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(artifact.read_text())
    assert report["clean"] is True
    assert report["session"]["updates_sent"] == 20
    assert '"clean": true' in out


def _free_ports(count):
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def test_serve_three_processes_form_a_view():
    """Three separate OS processes over real TCP agree on one 3-member
    view — the multi-process deployment path."""
    ports = _free_ports(3)
    nodes = [f"s{i}" for i in range(3)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = []
    for i, node in enumerate(nodes):
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--node-id",
            node,
            "--listen",
            f"127.0.0.1:{ports[i]}",
            "--duration",
            "6",
            "--expect-members",
            "3",
        ]
        for j, peer in enumerate(nodes):
            if j != i:
                cmd += ["--peer", f"{peer}=127.0.0.1:{ports[j]}"]
        procs.append(
            subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
            )
        )
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        outputs.append((proc.returncode, out, err))
    for code, out, err in outputs:
        assert code == 0, f"serve exited {code}: {out}\n{err}"
        status = json.loads(out)
        assert sorted(status["members"]) == nodes
        assert status["frames_received"] > 0


def test_serve_bad_peer_spec_exits_two(capsys):
    code = main(
        ["serve", "--node-id", "s0", "--listen", "127.0.0.1:1", "--peer", "nonsense"]
    )
    assert code == 2
    assert "expected NAME=HOST:PORT" in capsys.readouterr().err
