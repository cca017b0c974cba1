"""Self-test of the layered benchmark.

Run from the repository root (takes about a minute):

    python3 -m pytest layerbench -q

Two smoke runs of the whole suite (about 5% of each workload's ops) must
print every metric ``BENCHMARK.json`` names, with its unit, without a
failed op, and must agree on every count.  A dropped result row must be
caught by each workload's check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two smoke runs of the suite: (stdout, results by workload) each."""
    runs = []
    for _ in range(2):
        out = tmp_path_factory.mktemp("smoke") / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--seed", "2016", "--smoke",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, json.loads(out.read_text())["runs"][0]))
    return runs


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, results = smoke[0]
    assert sorted(results) == sorted(WORKLOADS)
    for name in WORKLOADS:
        assert results[name]["error_rate"] == 0
        assert f"== {name}:" in stdout
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b"
        assert len(re.findall(pattern, stdout, re.M)) == len(WORKLOADS), metric


def test_counts_repeat_across_runs(smoke):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"].startswith("count")]
    (_, first), (_, second) = smoke
    for name in WORKLOADS:
        assert {c: first[name]["per_layer"][c] for c in counts} == {
            c: second[name]["per_layer"][c] for c in counts
        }, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_dropped_row_is_a_failed_op(workload, monkeypatch):
    run.require_program()
    import workloads
    from repro.data import Relation
    from repro.engine import PreparedQuery

    if workload == "oracle-search":
        target, attr = workloads, "certain_answers_with_nulls"
    else:
        target, attr = PreparedQuery, "run"
    original = getattr(target, attr)
    dropped = []

    def drop_one_row(*args, **kwargs):
        result = original(*args, **kwargs)
        if dropped or not result.rows:
            return result
        dropped.append(result.rows[0])
        return Relation(result.attributes, result.rows[1:])

    monkeypatch.setattr(target, attr, drop_one_row)
    report = run.run_workload(workload, 2016, 0.0, smoke=True)
    assert dropped
    assert report["failed"] == 1
    assert report["error_rate"] == 1 / report["attempted"]
