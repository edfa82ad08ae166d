"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest benchmarks -q

Each check must pass a genuine output and fail a deliberately corrupted one,
and a corrupted output must count as a failed operation.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Shape(
    traj_share=0.0, min_traj=1, trace_traj=1, trace_rounds=2, trace_rounds_traced=1, min_rounds=1
)


@pytest.fixture
def short(tmp_path):
    """The README workload at 2k trajectories, with a small shape."""
    q = workloads.import_qsteer()
    batches: list = []
    w = workloads.Workload(
        name="readme_nonblind",
        shape=SMALL,
        trajectory_op=workloads._nonblind_cli_ops(q, 7, tmp_path, 2_000, 20, batches),
        command_ops=workloads._command_ops(q, 7, tmp_path),
        diagnostics=workloads._noise_gap(q, tmp_path),
        batches=batches,
    )
    return q, w


@pytest.fixture
def batch_op(short):
    """One genuine 2k-trajectory non-blind CLI run and its output."""
    _, w = short
    op = w.trajectory_op(0)
    batch = op.run()
    w.batches.clear()
    return op, batch


def _copy_batch(batch, **arrays):
    fields = {f.name: copy.deepcopy(getattr(batch, f.name)) for f in dataclasses.fields(batch)}
    fields.update(arrays)
    return type(batch)(**fields)


def test_genuine_nonblind_output_passes(batch_op):
    op, batch = batch_op
    assert op.check(batch) == []


def test_flipped_recorded_outcome_fails(short, batch_op):
    q, _ = short
    op, batch = batch_op
    recorded = batch.recorded_outcomes.copy()
    recorded[5, 0] = 1 - recorded[5, 0]
    bad = _copy_batch(batch, recorded_outcomes=recorded)
    single = lambda t: q.protocol.run_nonblind(  # noqa: E731
        q.states.DensityState(matrix=np.eye(2) / 2, dims=(2,)),
        workloads._operator(q, "+", workloads.README_J), 40, seed=batch.seed, trajectory_index=t,
    )
    target = workloads._operator(q, "+", workloads.README_J).target
    assert checks.replay(batch, single, [3, 5], target) == []
    assert checks.replay(bad, single, [3, 5], target)


def test_flipped_outcome_counts_as_failed_operation(short):
    _, w = short
    op = w.trajectory_op(1)
    genuine = op.run

    def corrupted():
        batch = genuine()
        batch.recorded_outcomes[:, 0] = np.where(batch.recorded_outcomes[:, 0] == 1, 0, 1)
        return batch

    runner = run.Runner(w)
    runner.run(dataclasses.replace(op, run=corrupted))
    assert runner.attempted == 1 and len(runner.failures) == 1


def test_raising_operation_counts_as_failed(short):
    _, w = short

    def boom():
        raise RuntimeError("broken")

    runner = run.Runner(w)
    runner.run(workloads.Op("kak", boom, lambda out: []))
    assert runner.attempted == 1 and "broken" in runner.failures[0]


def test_repetition_law_and_failure_share(batch_op):
    _, batch = batch_op
    reps = batch.repetitions
    assert checks.geometric_ks(reps) == []
    assert checks.geometric_ks(np.where(reps > 0, reps + 3, 0))
    n, fails = len(reps), int(np.sum(reps == 0))
    assert checks.failure_share(fails, n, 0.5) == []
    assert checks.failure_share(fails, n, 0.4)


def test_fidelity_outside_unit_interval_fails():
    assert checks.unit_interval([0.0, 0.5, 1.0], "f") == []
    assert checks.unit_interval([0.2, 1.0 + 1e-9], "f")
    assert checks.unit_interval([-1e-12], "f")
    assert checks.unit_interval([float("nan")], "f")
    want = checks.plus_blind_fidelities(0.785, 3)
    payload = {"records": [{"fidelities": list(want)}]}
    assert checks.record_fidelities(payload, want, checks.ANALYTIC_TOL, "steer") == []
    payload["records"][0]["fidelities"][2] = 1.5
    assert checks.record_fidelities(payload, want, checks.ANALYTIC_TOL, "steer")


def _run_command(w, kind):
    op = next(o for o in w.command_ops(0) if o.kind == kind)
    op.run()
    return op


@pytest.mark.parametrize("kind", workloads.COMMAND_KINDS)
def test_genuine_command_outputs_pass(short, kind):
    _, w = short
    op = _run_command(w, kind)
    assert op.check(None) == []


def test_perturbed_weyl_coordinate_fails(short):
    _, w = short
    op = _run_command(w, "kak")
    payload = json.loads((op.out_dir / "kak.json").read_text())
    assert checks.kak_payload(payload, 0.3) == []
    payload["weyl_coordinates"][1] += 1e-6
    assert checks.kak_payload(payload, 0.3)
    (op.out_dir / "kak.json").write_text(json.dumps(payload))
    runner = run.Runner(w)
    runner.run(dataclasses.replace(op, run=lambda: None))
    assert len(runner.failures) == 1


def test_circuit_and_qpt_deviations_fail(short):
    _, w = short
    op = _run_command(w, "qpt")
    payload = json.loads((op.out_dir / "qpt.json").read_text())
    assert checks.qpt_payload(payload) == []
    assert checks.qpt_payload(dict(payload, max_abs_r_minus_i=1e-6))
    u = np.eye(4)
    good = {"phase_invariant_distance": 0.0, "cnot_count": 2}
    assert checks.circuit_payload(good, u, u, qubit=True) == []
    assert checks.circuit_payload(dict(good, phase_invariant_distance=1e-7), u, u, qubit=True)
    assert checks.circuit_payload(good, np.diag([1, 1, 1, -1]), u, qubit=True)


def test_tomo_and_sweep_corruption_fails(short):
    _, w = short
    op = _run_command(w, "tomo_qubit")
    payload = json.loads((op.out_dir / "tomo.json").read_text())
    exact = [f["exact"] for f in payload["fidelities"]]
    assert checks.tomo_payload(payload, exact) == []
    payload["fidelities"][3]["reconstructed"] = -0.01
    assert checks.tomo_payload(payload, exact)
    op = _run_command(w, "sweep")
    payload = json.loads((op.out_dir / "sweep.json").read_text())
    assert op.check(None) == []
    payload["rows"][40]["mean_fid"] += 1e-6
    (op.out_dir / "sweep.json").write_text(json.dumps(payload))
    assert op.check(None)


def test_ensemble_mean_off_by_many_sigma_fails():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(4000, 2, 2)) * 0.1 + np.eye(2) / 2
    mean = states.mean(axis=0)
    assert checks.ensemble_mean(mean, states, np.eye(2) / 2) == []
    assert checks.ensemble_mean(mean + 0.01, states, np.eye(2) / 2)


def test_tracer_self_time_and_repeatable_counts(short):
    q, w = short
    tracer = tracing.Tracer()
    try:
        metrics, samples, runner = run.traced(w, tracer)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["protocol.active_step_frac"][0] == pytest.approx(0.52, abs=0.05)
    assert metrics["cli.tomo_vs_steer_noisy_gap"][0] == pytest.approx(0.3, abs=1e-9)
    stats = tracing.layer_stats(tracer.spans)
    root = sum(end - start for _, parent, _, start, end in tracer.spans if parent < 0)
    assert sum(s for _, s in stats.values()) == pytest.approx(root, rel=1e-9)


def test_layer_stats_subtracts_children():
    spans = [[0, -1, "a", 0.0, 10.0], [0, 0, "b", 1.0, 4.0], [0, 1, "c", 2.0, 3.0],
             [0, 0, "b", 5.0, 6.0]]
    assert tracing.layer_stats(spans) == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}


def test_density_state_validations_grow_with_steps(short, tmp_path):
    q, _ = short
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    calls = []
    try:
        for steps in ("5", "10"):
            tracer.reset()
            workloads.invoke(q, ["steer", "--target", "+", "--J", "0.5", "--N", steps,
                                 "--mode", "blind", "--out", str(tmp_path)])
            calls.append(tracing.layer_stats(tracer.spans)["states.DensityState"][0])
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert calls[1] > calls[0] > 0


def test_end_to_end_metric_names(short, tmp_path):
    _, w = short
    again = tmp_path / "again"
    r = run.measure(w, 1, lambda: run.setup_again("noisy_qutrit_ensemble", 7, again))
    assert r.setup_times, "a set-up is timed every few rounds"
    metrics, samples = run.end_to_end(r)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert r.failures == [] and all(v > 0 for v, _ in metrics.values())


def test_end_to_end_times_cancel_host_speed(short):
    """A host twice as slow doubles every raw time and the reference
    samples alike; the reported metrics stay the same."""
    _, w = short

    def runner(slow: float) -> run.Runner:
        r = run.Runner(w)
        r.ref_times = [slow * t for t in (1.1e-3, 1.0e-3, 1.3e-3)]
        r.times = {k: [slow * 0.01 * (i + 1), slow * 0.012 * (i + 1)]
                   for i, k in enumerate(workloads.COMMAND_KINDS)}
        r.times["trajectory"] = [slow * 5.0, slow * 6.0, slow * 4.0]
        r.ref_span = {k: [(1, 1)] * len(v) for k, v in r.times.items()}
        r.setup_times, r.setup_span = [slow * 0.08, slow * 0.09, slow * 0.2], [(0, 0), (1, 1), (3, 3)]
        r.rates, r.traj_n = [5000.0 / slow], [25_000] * 3
        return r

    fast, _ = run.end_to_end(runner(1.0))
    slow, samples = run.end_to_end(runner(2.0))
    assert samples["reference"]["median_s"] == pytest.approx(2.2e-3)
    for name, (value, unit) in fast.items():
        if name != "peak_rss_mb":
            assert slow[name][0] == pytest.approx(value, rel=1e-12), name
    assert fast["sweep_ms"][0] == pytest.approx(33.0 * run.REFERENCE_S / 1.1e-3)
    assert fast["setup_s"][0] == pytest.approx(0.09 * run.REFERENCE_S / 1.1e-3)
    assert fast["trajectories_per_s"][0] == pytest.approx(5000.0 * 1.1e-3 / run.REFERENCE_S)


def test_reference_sampled_during_long_operation(short):
    """A trajectory operation gets reference samples while it runs, and
    their time is not counted as the operation's."""
    import time

    _, w = short

    def busy():
        end = time.perf_counter() + 0.8
        while time.perf_counter() < end:
            pass

    r = run.Runner(w, reference=True)
    r.run(workloads.Op("trajectory", busy, lambda _: [], trajectories=10))
    (start, end), = r.ref_span["trajectory"]
    assert start == 1 and end - start >= 2
    spent = sum(r.ref_times[start:end])
    assert r.times["trajectory"][0] == pytest.approx(0.8 - spent, abs=0.05)
    assert r.failures == []
