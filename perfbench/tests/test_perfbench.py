"""Self-tests of the benchmark at tiny size (8-site and 8x8 grids, one pass).

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

LISTED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WHY)


def test_benchmark_json_gives_each_workload_its_reason():
    assert all(workloads.WHY[w["name"]] == w["why"]
               for w in LISTED["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = LISTED["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    # A time that is 0 on some workload would read the same on every run.
    assert all(v["value"] > 0 for v in result["metrics"].values()
               if v["unit"] == "s")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_in_the_traced_wall_time(workload, tmp_path):
    manifest = workloads.write_specs(workload, 3, tmp_path, tiny=True)
    metrics, res = run.traced_run(manifest, 0, tmp_path / "spans.json")
    wall = sum(res["passes"]) / len(res["passes"])
    layers = [k for k in metrics if k.count(".") == 1
              and k.endswith(".self_s")]
    assert len(layers) == 6
    assert 0 < sum(metrics[k][0] for k in layers) <= wall
    assert sum(metrics[k.replace("self_s", "share")][0]
               for k in layers) <= 1
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    thread = {s["id"]: s["thread"] for s in spans}
    assert all(s["parent"] is None or thread[s["parent"]] == s["thread"]
               for s in spans)


def test_pool_worker_spans_are_reported_apart(tmp_path):
    manifest = workloads.write_specs("certify_jobs2", 3, tmp_path, tiny=True)
    metrics, _ = run.traced_run(manifest, 0, tmp_path / "spans.json")
    assert metrics["operator_core.worker_self_s"][0] > 0
    assert metrics["engine.verify_emergence.draws"][0] == 880


def test_a_wrong_expected_exit_code_lands_in_failed_ratio(tmp_path):
    manifest = workloads.write_specs("shipped_configs", 3, tmp_path,
                                     tiny=True)
    entries = json.loads(manifest.read_text())
    wrong = next(e for e in entries if e["label"] == "idempotent_projector")
    wrong["exit_code"] = 0
    manifest.write_text(json.dumps(entries))
    metrics, res = run.timed_run(manifest, 0)
    assert res["failed"] == 1
    assert metrics["failed_ratio"][0] == 1 / len(entries)
    assert res["failures"] == ["idempotent_projector: exit 2, expected 0"]


def test_the_gate_checks_determinism_schema_and_certificates(tmp_path):
    sys.path.insert(0, str(workloads.ROOT / "src"))
    from emergence import cli

    manifest = workloads.write_specs("certify_jobs2", 3, tmp_path, tiny=True)
    entries = json.loads(manifest.read_text())
    out = tmp_path / "report.json"
    assert cli.main(["--config", entries[0]["config"], "--out", str(out),
                     *entries[0]["args"]]) == 0
    good = out.read_bytes()
    report = json.loads(good)
    report["result"]["certificates"][0]["passed"] = False
    uncertified = json.dumps(report).encode()
    del report["spec_hash"]
    malformed = json.dumps(report).encode()
    reports = {"good": good, "uncertified": uncertified,
               "malformed": malformed}
    records = [(0, 0, "good"), (0, 0, "uncertified"), (0, 0, None)]
    reasons = worker.gate(entries, records, reports)
    assert reasons == [None, "idempotent: report differs from the first pass",
                       "idempotent: no report written"]
    for name, reason in [("uncertified", "a certificate did not pass"),
                         ("malformed", "report violates the schema")]:
        got = worker.gate(entries, [(0, 0, name)], reports)[0]
        assert got.startswith(f"idempotent: {reason}")
