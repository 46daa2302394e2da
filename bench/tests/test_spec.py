"""BENCHMARK.json against the driver's contract, and the slot table in
bench/spec.py against BENCHMARK.json."""

import json
import re

from bench import ROOT
from bench.spec import DETAIL, SLOT_SOURCE, slots, workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_shape():
    doc = _doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert len(doc["command"]) <= 32 and all(len(part) <= 200 for part in doc["command"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    names = (
        [w["name"] for w in doc["workloads"]] + [m["name"] for m in doc["end_to_end"]]
        + [m["name"] for m in doc["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # the driver runs 4 + 22 x workloads runs inside 3420 s
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 12) < 3420


def test_every_workload_fills_every_slot_from_a_metric_it_reports():
    assert set(SLOT_SOURCE) == set(workloads())
    for workload in workloads():
        assert set(SLOT_SOURCE[workload]) == set(slots())
        for slot, (source, _factor) in SLOT_SOURCE[workload].items():
            assert workload in DETAIL[source].workloads, (workload, slot, source)
            assert DETAIL[source].better == slots()[slot]["better"]
