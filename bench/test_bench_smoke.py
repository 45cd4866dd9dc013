"""Smoke test of the benchmark: tiny inputs, one round of every check of every workload.

Keeps the benchmark from rotting when the program changes.  The traced runs
also check that every per-layer metric of ``BENCHMARK.json`` is reported
and that the tracer leaves the program as it found it.
"""

import json
import math
import time

import pytest

import bench_core
import bench_families
import bench_oracle
import bench_systems
from bench_trace import BENCHMARK_JSON

# a per-layer metric that must be positive where the workload runs the layer
TRACED_WORK = {"oracle": "godunov.cell_updates", "systems": "keyfitz_kranzer.grid_cells"}


@pytest.mark.parametrize(
    "module, trace",
    [(bench_families, False), (bench_oracle, True), (bench_systems, True)],
    ids=lambda v: getattr(v, "NAME", str(v)),
)
def test_every_check_runs_and_passes(module, trace):
    result = bench_core.run_workload(
        module, seed=7, seconds=0.0, trace=trace, smoke=True, spawned_at=time.monotonic()
    )
    assert result["correct"], result["failures"]
    # systems keeps one check on the known triangular-markers fault
    assert result["failed"] == (1 if module is bench_systems else 0), result["failures"]
    assert result["rounds"] == 1
    assert result["checks_per_s"] > 0.0 and result["setup_s"] > 0.0
    if trace:
        with open(BENCHMARK_JSON) as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        assert {name: m["unit"] for name, m in result["layers"].items()} == declared
        assert all(math.isfinite(m["value"]) for m in result["layers"].values())
        assert result["layers"][TRACED_WORK[module.NAME]]["value"] > 0
        fracbv = bench_core.load_program()
        assert not hasattr(fracbv.p_variation, "__wrapped__")
