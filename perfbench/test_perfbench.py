"""Self-checks of the benchmark harness at the tiny lattice size.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from tracer import Tracer

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _measure(workload, trace, after_pass=None, seed=1):
    args = run._parse(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                       "--trace", str(trace), "--size", "tiny"])
    return run.measure(args, after_pass=after_pass)


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _measure(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


def _rewrite_solution(out_dir, change):
    from subinf import fieldio

    path = os.path.join(out_dir, "solution.field")
    u = fieldio.read_field(path)
    change(u)
    fieldio.write_field(path, u)


def _nudge_boundary(u):
    i = u.domain.boundary_flat[3]
    u.values[i] = np.nextafter(u.values[i], np.inf)


def _overshoot_interior(u):
    u.values[u.domain.interior_flat[0]] = np.max(np.abs(u.values)) + 1.0


@pytest.mark.parametrize("change", [_nudge_boundary, _overshoot_interior])
def test_corrupted_solution_field_counts_as_failed(change):
    result = _measure("plane-aronsson", 0,
                      after_pass=lambda out: _rewrite_solution(out, change))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_unreadable_solution_field_counts_as_failed():
    def truncate(out_dir):
        with open(os.path.join(out_dir, "solution.field"), "w") as fh:
            fh.write("subinf-field 1\n")

    result = _measure("heis-xy", 0, after_pass=truncate)
    assert result["failed"] == result["attempted"] >= 1


def test_traced_run_restores_the_program():
    from subinf import config, convolution, solver

    before = (solver._descend, solver._Objective.line_eval, config.load_config,
              convolution._kernel_rows, solver.BoundaryData.extend_nearest)
    _measure("heis-xy", 1)
    after = (solver._descend, solver._Objective.line_eval, config.load_config,
             convolution._kernel_rows, solver.BoundaryData.extend_nearest)
    assert after == before


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.starts, tr.ends = [0.0, 1.0, 2.0, 5.0], [10.0, 2.0, 7.0, 6.0]
    tr.names = ["pass", "a", "b", "a"]
    tr.parents = [-1, 0, 0, 2]
    totals = tr.totals()
    assert totals["pass"] == (10.0, 4.0)
    assert totals["a"] == (2.0, 2.0)
    assert totals["b"] == (5.0, 4.0)
    assert tr.totals(under="b")["a"] == (1.0, 1.0)


def test_seed_zero_is_the_acceptance_cone(tmp_path):
    from subinf import acceptance, config
    import inputs

    path = os.path.join(acceptance.bundled_config_dir(), "a5_plane.cfg")
    want = acceptance._cone_field(config.load_config(path)).values
    got = inputs.cone(str(tmp_path), 0, "euclidean:2", 1 / 32).values
    assert np.array_equal(got, want)


@pytest.mark.parametrize("make", ["plane_aronsson", "heis_xy"])
def test_same_seed_same_inputs(make, tmp_path):
    import inputs

    texts = []
    for name in ("a", "b"):
        os.makedirs(tmp_path / name)
        prob = getattr(inputs, make)(str(tmp_path / name), 5, inputs.TINY)
        texts.append([open(p).read() for p in (prob.config, prob.field)])
    assert texts[0] == texts[1]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
