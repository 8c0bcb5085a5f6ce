"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import types
from fractions import Fraction
from pathlib import Path

import pytest

import child
import metrics
import workloads
from tracer import Tracer

crnkit = child.import_crnkit()
ROOT = Path(__file__).resolve().parent.parent


def inputs(workload, seed, count):
    schedule = workload.schedule(seed)[:count]
    return [(key, workload.plain(key)) for key in schedule]


def strip_paths(data):
    # cli inputs carry their file names; compare the generated content
    if isinstance(data, list):
        return [{k: v for k, v in call.items() if k not in ("argv", "out")} for call in data]
    return data


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_seed_determines_inputs(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    first = inputs(workload, 7, 40)
    again = inputs(workload, 7, 40)
    other = inputs(workload, 8, 40)
    assert [(k, strip_paths(d)) for k, d in first] == [(k, strip_paths(d)) for k, d in again]
    assert [k for k, _ in first] != [k for k, _ in other]
    assert len({k for k, _ in first}) == len(first), "an input repeats within a run"


def run_and_check(workload, api, seed, count):
    schedule = workload.schedule(seed)
    first = workload.plain(schedule[0])
    checker = child.Checker(workload, crnkit, child.load_decisions())
    child.closed_loop(workload, api, schedule, first, 1e9, child.no_spans, checker, limit=count)
    assert checker.attempted == count
    return checker.failed


def fake_target(**replacements):
    """crnkit's public names with some functions replaced."""
    return types.SimpleNamespace(**{**vars(crnkit), **replacements})


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_real_target_passes(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    assert run_and_check(workload, crnkit, 3, 3 * workload.block) == 0


def test_planted_wrong_witness_is_counted(tmp_path):
    def always_conserving(system):
        return crnkit.ConservationVector((Fraction(1),) * system.dim, "kinetic")

    fake = fake_target(kinetic_conservation=always_conserving)
    assert run_and_check(workloads.make("screen", tmp_path), fake, 3, 40) > 0


def test_planted_wrong_qfi_decision_is_counted(tmp_path):
    real = crnkit.find_quadratic_first_integrals

    def never_found(system, signature_filter=None):
        report = real(system, signature_filter)
        return dataclasses.replace(report, found=False, candidate=None, signature=None)

    fake = fake_target(find_quadratic_first_integrals=never_found)
    assert run_and_check(workloads.make("screen", tmp_path), fake, 3, 64) > 0
    assert run_and_check(workloads.make("networks", tmp_path), fake, 3, 14) > 0


def test_planted_cli_exit_code_is_counted(tmp_path):
    fake_cli = types.SimpleNamespace(main=lambda argv: 0)
    fake = fake_target(cli=fake_cli)
    assert run_and_check(workloads.make("cli", tmp_path), fake, 3, 3) == 3


def test_planted_crash_is_counted(tmp_path):
    def crash(*args, **kwargs):
        raise RuntimeError("planted")

    fake = fake_target(integrate=crash)
    assert run_and_check(workloads.make("simulate", tmp_path), fake, 3, 5) == 5


def test_planted_drift_is_counted(tmp_path):
    def drifting(trajectory):
        report = crnkit.drift_report(trajectory)
        return {**report, "max_abs_drift": 1e-3}

    fake = fake_target(drift_report=drifting)
    assert run_and_check(workloads.make("simulate", tmp_path), fake, 3, 5) == 5


def test_traced_self_times_add_up(tmp_path):
    tracer = Tracer()
    original = crnkit.qfi.lie_derivative
    tracer.install()
    try:
        assert crnkit.qfi.lie_derivative is not original
        assert crnkit.conservation.nullspace_basis is crnkit.linalg.nullspace_basis
        for name, count in (("screen", 16), ("networks", 14), ("simulate", 5), ("cli", 2)):
            workload = workloads.make(name, tmp_path)
            schedule = workload.schedule(5)
            child.closed_loop(
                workload, crnkit, schedule, workload.plain(schedule[0]), 1e9,
                tracer.span, lambda *result: None, tracer, limit=count,
            )
    finally:
        tracer.remove()
    assert crnkit.qfi.lie_derivative is original
    assert tracer.missing == []
    totals = tracer.totals()
    assert sum(t["self_ns"] for t in totals.values()) == tracer.root_ns()
    assert all(s[6] >= 0 for s in tracer.spans)
    for name in metrics.SELF_TIME_SPANS:
        assert totals.get(name, {}).get("calls", 0) > 0, f"no span {name}"
    assert tracer.counts["poly.Polynomial.constructed"] > 0
    assert tracer.counts["sim.rkf45.rhs_evals"] >= 6 * tracer.counts["sim.rkf45.accepted"]


def test_missing_wrapped_name_is_reported(monkeypatch):
    monkeypatch.delattr(crnkit.sim, "drift_report")
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    assert "crnkit.sim.drift_report" in tracer.missing


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == metrics.benchmark_json(spec["run_seconds"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)


def test_latency_tail_has_ten_samples_beyond():
    summary = child.latency_summary(list(range(1, 101)))
    assert summary["latency_tail_ms"] == 90 / 1e6
    assert summary["samples"] == 100


@pytest.mark.parametrize("index", range(0, workloads.GRID_SIZE, 997))
def test_planar_oracles_match_crnkit(index):
    coeffs = workloads.grid_coeffs(index)
    screen = workloads.Screen()
    system = screen.build(crnkit, ("screen-grid", index), coeffs)
    found = crnkit.find_quadratic_first_integrals(system, "positive-diagonal").found
    assert found == workloads.planar_diagonal_oracle(coeffs)
    conserving = crnkit.kinetic_conservation(system) is not None
    assert conserving == workloads.planar_conservation_oracle(coeffs)


def test_stratified_order_spans_cost_ranks():
    import random

    ranked = list(range(128))  # item i has cost rank i
    for seed in range(5):
        order = workloads.stratified_order(ranked, random.Random(seed))
        assert sorted(order) == ranked
        for size in (2, 8, 32):
            # a prefix of 2^k items holds one item from each of 2^k equal
            # stretches of the (cyclically shifted) cost ranks
            offset = order[0]
            strata = {((rank - offset) % 128) // (128 // size) for rank in order[:size]}
            assert len(strata) == size
