"""Spans around qsteer's public functions, installed from outside the library.

A ``Tracer`` replaces each listed function with a wrapper in every loaded
``qsteer`` module that binds the name, so calls made inside the library are
seen as well as calls made by the benchmark.  ``DensityState`` is traced by
wrapping ``__post_init__``, so its call count is the number of validations.
Spans stay in memory as ``[op, parent, name, start, end]`` rows and are
written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

# Layers and the public functions whose spans are recorded, by module.
LAYERS = {
    "protocol": ("run_nonblind_batch", "run_blind", "sweep", "repetition_stats", "apply_noise"),
    "steering": ("make_steering_operator", "kraus_from_unitary", "averaged_step"),
    "states": ("DensityState", "fidelity"),
    "linalg": ("expm_i_herm", "herm_eig", "kron", "partial_trace", "phase_invariant_distance"),
    "geometry": ("kak_decompose", "weyl_coordinates", "locally_equivalent"),
    "circuits": ("synth_kak_circuit", "synth_qutrit_circuit", "evaluate_circuit", "emit_text"),
    "tomography": (
        "tomo_qubit_state",
        "tomo_qutrit_state",
        "process_tomography",
        "mle_project",
        "ptm_of_unitary",
    ),
    "cli": ("write_csv", "write_json"),
}

# No CLI path calls these, so their time would read 0 on every run: only
# their call counts are reported.
CALLS_ONLY = frozenset({"linalg.partial_trace"})

# The batch whose tracemalloc peak is recorded when ``Tracer.track_alloc`` is on.
ALLOC_SPAN = "protocol.run_nonblind_batch"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.track_alloc = False
        self.op = -1
        self.spans: list[list] = []
        self.alloc_peak_bytes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.alloc_peak_bytes = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, parent, name, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        alloc = name == ALLOC_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            measure = alloc and self.track_alloc
            if measure:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak_bytes = max(self.alloc_peak_bytes, peak)
                self._close(idx)

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a qsteer module binds it."""
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "qsteer" or n.startswith("qsteer.")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"qsteer.{layer}"]
            for name in names:
                original = getattr(home, name)
                if isinstance(original, type):
                    hook = original.__post_init__
                    self._patch(original, "__post_init__", self.wrap(f"{layer}.{name}", hook))
                    continue
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["op", "parent", "name", "start_s", "end_s"]) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def layer_stats(spans) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, tuple[int, float]] = {}
    for idx, (_, _, name, start, end) in enumerate(spans):
        calls, self_s = stats.get(name, (0, 0.0))
        stats[name] = (calls + 1, self_s + (end - start) - child[idx])
    return stats
