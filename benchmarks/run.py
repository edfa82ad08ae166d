"""qsteer benchmark: run one workload, check every output, print the metrics.

    python3 benchmarks/run.py --workload readme_nonblind --seed 1 --seconds 30 --trace 0

Run from the repository root; qsteer is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run of fixed size (see ``workloads.Shape``).  The line before it
records the environment and the sample count behind each metric.  Both are
also written under ``benchmarks/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import os

# One thread everywhere: pinned before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Command rounds between two extra set-ups in a timed run.
SETUP_EVERY = 3
MAX_REPORTED_FAILURES = 20
# End-to-end times are given at the speed of a machine on which one
# reference sample takes this long (see ``reference_sample``).
REFERENCE_S = 1e-3
# A time is scaled by the median of the reference samples taken during it
# and up to this many before and after it.
REF_WINDOW = 10
# Period of the reference samples taken during a trajectory operation.
REF_PERIOD_S = 0.25

_REF_RNG = numpy.random.default_rng(0)
_REF_MATS = [m + m.conj().T for m in (_REF_RNG.standard_normal((8, 3, 3))
                                      + 1j * _REF_RNG.standard_normal((8, 3, 3)))] * 4


def reference_sample() -> float:
    """Seconds taken by a fixed kernel that does what the command phase does
    most: small numpy calls and interpreter work.  It is the same in every
    run and on every commit, so it measures the machine, not qsteer."""
    t0 = time.perf_counter()
    acc = 0.0
    for m in _REF_MATS:
        vals, vecs = numpy.linalg.eigh(m)
        acc += float(numpy.trace(vecs @ m @ vecs.conj().T).real) + vals[0]
        acc += float(numpy.einsum("ij,ji->", m, m).real)
    for i in range(3000):
        acc += i & 7
    return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


class Runner:
    """Runs operations, times them, checks them, and keeps the tallies."""

    def __init__(self, workload, tracer=None, reference=False):
        self.w = workload
        self.tracer = tracer
        self.reference = reference
        self.ref_times: list[float] = []
        # For each timed sample, the slice of ref_times taken while it ran.
        self.ref_span: dict[str, list[tuple[int, int]]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.rates: list[float] = []
        self.traj_n: list[int] = []
        self.counts = dict.fromkeys(workloads.step_counts([]), 0)
        self.bytes_written = 0
        self.op_times: list[float] = []
        self.setup_times: list[float] = []
        self.setup_span: list[tuple[int, int]] = []
        self.index = 0

    def run(self, op) -> None:
        index = self.index
        self.index += 1
        self.attempted += 1
        tracer = self.tracer
        fails: list[str]
        if self.reference:
            self.ref_times.append(reference_sample())
        try:
            if tracer is not None:
                tracer.op = index
            start = len(self.ref_times)
            with tracer.span(f"op.{op.kind}") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                with self.sampled(op.trajectories > 0) as spent:
                    out = op.run()
                dt = time.perf_counter() - t0 - spent[0]
            self.op_times.append(dt)
            self.times.setdefault(op.kind, []).append(dt)
            self.ref_span.setdefault(op.kind, []).append((start, len(self.ref_times)))
            if op.trajectories:
                self.rates.append(op.trajectories / dt)
                self.traj_n.append(op.trajectories)
            for key, val in workloads.step_counts(self.w.batches).items():
                self.counts[key] += val
            self.w.batches.clear()
            self.bytes_written += workloads.dir_bytes(op.out_dir)
            enabled = tracer is not None and tracer.enabled
            if enabled:
                tracer.enabled = False
            try:
                fails = op.check(out)
            finally:
                if enabled:
                    tracer.enabled = True
        except Exception as exc:  # an operation that raises counts as failed
            fails = [f"{op.kind}: {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        if fails:
            self.failures.append(f"op {index} ({op.kind}): " + "; ".join(fails))

    @contextlib.contextmanager
    def sampled(self, long_op: bool):
        """Take a reference sample every REF_PERIOD_S while a long operation
        runs, from a SIGALRM handler, which Python runs on this thread
        between the operation's bytecodes.  Yields a one-item list with the
        seconds the samples took, for the caller to subtract."""
        spent = [0.0]
        if not (self.reference and long_op):
            yield spent
            return

        def sample(signum, frame):
            t0 = time.perf_counter()
            self.ref_times.append(reference_sample())
            spent[0] += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def add_setup(self, seconds: float) -> None:
        pos = len(self.ref_times)
        self.setup_times.append(seconds)
        self.setup_span.append((pos, pos))

    def scaled(self, times: list[float], spans: list[tuple[int, int]]) -> list[float]:
        """``times`` at reference speed: each is scaled by REFERENCE_S over
        the median of the reference samples taken during it and up to
        REF_WINDOW before and after it."""
        refs = self.ref_times
        return [t * REFERENCE_S / statistics.median(refs[max(0, a - REF_WINDOW):b + REF_WINDOW])
                for t, (a, b) in zip(times, spans)]

    def absorb(self, other: "Runner") -> None:
        self.attempted += other.attempted
        self.failures += other.failures

    def round(self, r: int) -> None:
        for op in self.w.command_ops(r):
            self.run(op)


def setup(name: str, seed: int, out: Path):
    """Import qsteer afresh and build the workload; returns it and the
    seconds this took."""
    t0 = time.perf_counter()
    q = workloads.import_qsteer()
    w = workloads.build(name, q, seed, out)
    elapsed = time.perf_counter() - t0
    origin = Path(q.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"qsteer was imported from {origin}, not from {ROOT / 'src'}")
    return w, elapsed


def setup_again(name: str, seed: int, out: Path) -> float:
    """Time one more set-up and discard it; the running workload keeps the
    qsteer modules it was built from."""
    saved = workloads.qsteer_modules()
    try:
        return setup(name, seed, out)[1]
    finally:
        for module in workloads.qsteer_modules():
            del sys.modules[module]
        sys.modules.update(saved)


def measure(w, seconds: int, again) -> Runner:
    """Untraced run for ``seconds`` after one untimed warm-up round.

    Trajectory operations and command rounds are interleaved so that the
    trajectory operations take ``traj_share`` of the time, and every
    SETUP_EVERY rounds ``again()`` times one more set-up: every metric then
    samples the whole run rather than one stretch of it.  Reference
    samples are timed before every operation and during trajectory
    operations (``Runner.sampled``).
    """
    shape = w.shape
    warm = Runner(w)
    warm.round(-1)
    for _ in range(20):
        reference_sample()
    r = Runner(w, reference=True)
    n_traj = rounds = 0
    traj_time = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        traj_due = traj_time < shape.traj_share * elapsed
        if elapsed >= seconds:
            if n_traj < shape.min_traj:
                traj_due = True
            elif rounds < shape.min_rounds:
                traj_due = False
            else:
                break
        if traj_due:
            t0 = time.perf_counter()
            r.run(w.trajectory_op(n_traj))
            traj_time += time.perf_counter() - t0
            n_traj += 1
        else:
            r.round(rounds)
            rounds += 1
            if rounds % SETUP_EVERY == 0:
                r.add_setup(again())
    r.absorb(warm)
    return r


def fixed_pass(w, n_traj: int, n_rounds: int, tracer=None) -> Runner:
    r = Runner(w, tracer)
    for i in range(n_traj):
        r.run(w.trajectory_op(i))
    for k in range(n_rounds):
        r.round(k)
    return r


def end_to_end(r: Runner) -> tuple[dict, dict]:
    """Median latency per command kind, median set-up and median
    trajectory rate, all at reference speed (``Runner.scaled``).  Other
    tenants share this machine's cores and change its speed by up to 2x over
    seconds to minutes; the reference samples around an operation slow down
    with it, so the scaled times vary far less between runs than the raw
    ones.  The raw median and 90th percentile (10th for the rate) go to the
    detail."""
    metrics, samples, raw = {}, {}, {}
    traj = r.scaled(r.times["trajectory"], r.ref_span["trajectory"])
    rates = [n / t for n, t in zip(r.traj_n, traj)]
    metrics["trajectories_per_s"] = (statistics.median(rates), "1/s")
    samples["trajectories_per_s"] = len(traj)
    raw["trajectories_per_s"] = {"total": sum(r.traj_n) / sum(r.times["trajectory"]),
                                 "p10": float(numpy.percentile(r.rates, 10))}
    samples["trajectory_ops_s"] = {"raw": r.times["trajectory"], "scaled": traj}
    values = {f"{kind}_ms": (r.times[kind], r.ref_span[kind], 1e3, "ms")
              for kind in workloads.COMMAND_KINDS}
    values["setup_s"] = (r.setup_times, r.setup_span, 1.0, "s")
    for name, (xs, spans, scale, unit) in values.items():
        metrics[name] = (scale * statistics.median(r.scaled(xs, spans)), unit)
        samples[name] = len(xs)
        raw[name] = {"median": scale * statistics.median(xs),
                     "p90": scale * float(numpy.percentile(xs, 90))}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    samples["peak_rss_mb"] = 1
    samples["reference"] = {"n": len(r.ref_times), "median_s": statistics.median(r.ref_times)}
    samples["raw"] = raw
    return metrics, samples


def traced(w, tracer) -> tuple[dict, dict, Runner]:
    """An untraced pass, a traced pass, and a second traced pass (with
    tracemalloc around the batch) whose counts must repeat the first's."""
    shape = w.shape
    warm = Runner(w)
    warm.round(-1)
    untraced = fixed_pass(w, shape.trace_traj, shape.trace_rounds)
    tracer.install()
    tracer.enabled = True
    first = fixed_pass(w, shape.trace_traj, shape.trace_rounds_traced, tracer)
    spans = tracer.spans
    tracer.reset()
    tracer.track_alloc = True
    second = fixed_pass(w, shape.trace_traj, shape.trace_rounds_traced, tracer)
    tracer.enabled = False
    peak_alloc = tracer.alloc_peak_bytes
    second_stats = tracing.layer_stats(tracer.spans)
    tracer.spans = spans
    stats = tracing.layer_stats(spans)

    def counts(r, st):
        return dict({f"{k}.calls": calls for k, (calls, _) in st.items()}, **r.counts)

    a, b = counts(first, stats), counts(second, second_stats)
    mismatch = [f"{k}: {a.get(k)} != {b.get(k)}" for k in sorted(set(a) | set(b))
                if a.get(k) != b.get(k)]

    metrics = {}
    for layer, names in tracing.LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            calls, self_s = stats.get(key, (0, 0.0))
            metrics[f"{key}.calls"] = (calls, "count")
            if key not in tracing.CALLS_ONLY:
                metrics[f"{key}.self_s"] = (self_s, "s")
    steps, slots = first.counts["protocol.trajectory_steps"], first.counts["protocol.step_slots"]
    metrics["protocol.trajectory_steps"] = (steps, "count")
    metrics["protocol.step_slots"] = (slots, "count")
    metrics["protocol.active_step_frac"] = (steps / slots, "frac")
    metrics["protocol.run_nonblind_batch.peak_alloc_mb"] = (peak_alloc / 2**20, "MB")
    metrics["cli.bytes_written"] = (first.bytes_written, "B")
    samples = {}
    for kind in workloads.COMMAND_KINDS:
        ts = untraced.times[kind]
        metrics[f"cli.{kind}.p90_ms"] = (1e3 * statistics.quantiles(ts, n=10)[-1], "ms")
        metrics[f"cli.{kind}.n"] = (len(ts), "count")
    metrics.update({k: (v, "abs") for k, v in w.diagnostics().items()})
    n_ops = len(first.op_times)
    wall = sum(first.op_times)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (wall / sum(untraced.op_times[:n_ops]) - 1.0, "frac")
    samples["traced_ops"] = n_ops
    samples["untraced_ops"] = len(untraced.op_times)
    runner = Runner(w)
    for r in (warm, untraced, first, second):
        runner.absorb(r)
    runner.attempted += 1
    if mismatch:
        runner.failures.append("counts differ between two traced passes: " + "; ".join(mismatch))
    return metrics, samples, runner


def environment(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qsteer" / "__init__.py").is_file():
        print(f"qsteer sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_root = HERE / "out"
    out = out_root / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        w, setup_s = setup(args.workload, args.seed, out)
        if args.trace:
            tracer = tracing.Tracer()
            metrics, samples, r = traced(w, tracer)
            tracer.write(out_root / f"{tag}-spans.jsonl")
        else:
            r = measure(w, args.seconds,
                        lambda: setup_again(args.workload, args.seed, out / "setup"))
            r.setup_times.insert(0, setup_s)
            r.setup_span.insert(0, (0, 0))
            metrics, samples = end_to_end(r)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result = {
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "samples": samples,
        "failures": r.failures[:MAX_REPORTED_FAILURES],
    }
    (out_root / f"{tag}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
