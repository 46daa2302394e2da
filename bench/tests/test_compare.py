"""``bench compare``: verdicts and exit code."""

import io
import json

from bench.compare import compare, judge
from bench.spec import absolute, rel


def test_judge_relative():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert judge(base, [v * 1.04 for v in base], "lower", rel(0.10))[0] == "ok"
    assert judge(base, [v * 1.20 for v in base], "lower", rel(0.10))[0] == "regressed"
    assert judge(base, [v * 0.80 for v in base], "higher", rel(0.10))[0] == "regressed"
    assert judge(base, [v * 0.50 for v in base], "lower", rel(0.10))[0] == "ok"


def test_judge_unresolved_when_spread_exceeds_bound():
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0]
    assert judge(noisy, [11.0, 15.0, 8.0, 13.0, 9.0], "lower", rel(0.10))[0] == "unresolved"
    # ... unless every run of B reads better than every run of A
    assert judge(noisy, [3.0, 5.0, 4.0, 6.0, 2.0], "lower", rel(0.10))[0] == "ok"


def test_judge_absolute():
    assert judge([0.99, 0.99, 0.99], [0.985, 0.985, 0.985], "higher", absolute(0.01))[0] == "ok"
    assert judge([0.99, 0.99, 0.99], [0.95, 0.95, 0.95], "higher", absolute(0.01))[0] == "regressed"
    assert judge([0.0, 0.0, 0.0], [0.001, 0.001, 0.0], "lower", absolute(0.0))[0] == "regressed"
    # a baseline that is itself noisy cannot resolve "may not rise"
    noisy = [0.03, 0.06, 0.04, 0.08, 0.05]
    assert judge(noisy, [0.05, 0.07, 0.06, 0.09, 0.04], "lower", absolute(0.0))[0] == "unresolved"


def _result(p50_values):
    return {"runs": [
        {"workloads": {"rr_ladder": {
            "workload": "rr_ladder", "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"request_p50_ms": {"value": value, "unit": "ms"}}, "info": {},
        }}} for value in p50_values
    ]}


def test_compare_exit_code(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(_result([3.0, 3.1, 2.9])))
    b.write_text(json.dumps(_result([3.05, 3.0, 3.1])))
    c.write_text(json.dumps(_result([4.0, 4.1, 3.9])))
    stream = io.StringIO()
    assert compare(str(a), str(b), stream) == 0
    assert "0 regressed" in stream.getvalue()
    stream = io.StringIO()
    assert compare(str(a), str(c), stream) == 1
    rows = [line for line in stream.getvalue().splitlines() if "request_p50_ms" in line]
    assert len(rows) == 1 and "regressed" in rows[0] and rows[0].endswith("service_p50_ms")


def test_incorrect_runs_are_left_out_and_count_against_b(tmp_path):
    good, bad = _result([3.0, 3.1, 2.9]), _result([3.0, 3.1, 2.9, 30.0])
    bad["runs"][-1]["workloads"]["rr_ladder"]["correct"] = False
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(good))
    b.write_text(json.dumps(bad))
    stream = io.StringIO()
    assert compare(str(a), str(b), stream) == 1
    text = stream.getvalue()
    assert "not correct A 0, B 1" in text and "(3/3)" in text
    stream = io.StringIO()
    assert compare(str(b), str(a), stream) == 0
