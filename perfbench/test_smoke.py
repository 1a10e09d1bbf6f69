"""Smoke test of the benchmark: a minimum-size run of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run passes its gates and reports exactly the metrics, with
the units, that BENCHMARK.json declares, and that tracing changes no result.
Untraced runs use seed 0 and traced runs seed 1, so the gates are held on
the default seed and on one other.
"""

import json

import pytest

import run

run.load_program()      # before numpy is imported: it fixes the BLAS threads

import numpy as np  # noqa: E402
import tracing  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MAPPING = json.loads((run.ROOT / "perfbench" / "mapping.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_minimum_run(name, trace):
    result, details = run.measure(name, seed=int(trace), seconds=0, trace=trace,
                                  size=workloads.MIN_SIZE[name])
    assert result["correct"], details["passes"]
    assert result["failed"] == 0 and result["attempted"] > 0
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == _declared("per_layer" if trace else "end_to_end")
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace and name == "resynth":
        bem_calls = {k: v["value"] for k, v in result["metrics"].items()
                     if k.startswith("bem.") and k.endswith(".calls")}
        assert bem_calls and not any(bem_calls.values())


def test_workloads_and_mapping_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    mapped = set()
    for row in MAPPING["rows"]:
        mapped.update(f"{layer}.{stat}" for layer in row.get("layers", ())
                      for stat, _ in tracing.LAYER_STATS)
        mapped.update(row.get("counters", ()))
    assert mapped == set(_declared("per_layer"))


def test_tracing_changes_no_result(tmp_path):
    sweep = workloads.WORKLOADS["sweep"]
    state = sweep.setup(3, tmp_path, **workloads.MIN_SIZE["sweep"])
    original = workloads.synthesis.frequency_sweep
    _, (plain, _) = run.run_pass(sweep, state)
    tracer = tracing.Tracer()
    _, (traced, _) = run.run_pass(sweep, state, tracer)
    assert workloads.synthesis.frequency_sweep is original
    assert tracer.spans
    assert plain.keys() == traced.keys()
    for eps in plain:
        assert np.array_equal(plain[eps].omegas, traced[eps].omegas)
        assert np.array_equal(plain[eps].values, traced[eps].values)
