"""Span tracing of qgeo's layer functions, installed from the benchmark.

A wrapper replaces every module-global binding of each traced function
object in the loaded ``qgeo`` modules. Modules import these functions by
name (``uncertainty.split`` and ``verify.xi_field`` are bindings of their
own), so patching only the defining module would miss calls. Tiny helpers
such as ``frobenius`` and ``check_finite`` are left alone: wrapping them
costs more than they do.

Spans (op id, span id, parent id, name, start ns, end ns) stay in memory
and are written out once, after the run.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

TRACED = {
    "linalg": ("hermitian_eigensystem", "unitary_exponential_family",
               "check_hermitian", "sample_haar_unitary"),
    "states": ("density_state", "purify", "frame_from_eigensystem", "frame_to_state"),
    "geometry": ("hamiltonian_lift", "connection", "split", "xi_field", "brackets",
                 "ambient_forms", "inertia_inner"),
    "uncertainty": ("decomposition", "moments", "rs_bound", "evolve"),
    "spin": ("closed_forms", "abcd_experiment"),
}
# the 17 suite functions that verify.run_all calls
SUITES = (
    "run_eigensystem_suite", "run_sampler_determinism_suite", "run_exponential_suite",
    "run_fiber_transitivity_suite", "run_purify_determinism_suite",
    "run_partial_trace_suite", "run_connection_suite", "run_momentum_fd_suite",
    "run_momentum_equivariance_suite", "run_identity_campaign",
    "run_pure_collapse_suite", "run_parallel_collapse_suite",
    "run_gauge_invariance_suite", "run_representative_suite",
    "run_evolution_suites", "run_spin_suites", "run_spin_demo_suite",
)
LAYERS = ("linalg", "states", "geometry", "uncertainty", "spin", "verify")
EIGENSOLVER = "linalg.hermitian_eigensystem"
EIG_SIZES = (2, 4, 8)


def targets() -> list[tuple[str, str]]:
    out = [(mod, fn) for mod, fns in TRACED.items() for fn in fns]
    return out + [("verify", fn) for fn in SUITES]


class Tracer:
    """Collects spans and per-name call counts, self and total times."""

    def __init__(self) -> None:
        self.op = 0
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.eig_calls: Counter = Counter()
        self.eig_ns: Counter = Counter()
        self._stack: list[list[int]] = []   # [span id, ns covered by children]
        self._next_id = 0

    def wrap(self, name: str, fn):
        by_size = name == EIGENSOLVER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.spans.append((self.op, frame[0], parent, name, start, end))
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                self.total_ns[name] += dur
                if by_size:
                    n = len(args[0] if args else kwargs["m"])
                    self.eig_calls[n] += 1
                    self.eig_ns[n] += dur

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("op", "span", "parent", "name", "start_ns", "end_ns"))
            out.writerows(self.spans)

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict:
        """Per-op layer metrics; ``traced_s``/``untraced_s`` are the wall
        times of the same ops with and without the wrappers."""
        out: dict = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = {"value": value, "unit": unit}

        for mod, fn in targets():
            name = f"{mod}.{fn}"
            if mod == "verify":
                put(f"{name}.s", self.total_ns[name] / ops / 1e9, "s")
            else:
                put(f"{name}.calls", self.calls[name] / ops, "count")
                put(f"{name}.self_ms", self.self_ns[name] / ops / 1e6, "ms")
        for layer in LAYERS:
            own = sum(v for k, v in self.self_ns.items() if k.split(".", 1)[0] == layer)
            put(f"{layer}.self_share", own / 1e9 / traced_s, "frac")
        for n in EIG_SIZES:
            calls = self.eig_calls[n]
            put(f"{EIGENSOLVER}.n{n}.us_per_call",
                self.eig_ns[n] / calls / 1e3 if calls else 0.0, "us")
        put("trace_overhead_frac", traced_s / untraced_s - 1.0, "frac")
        return out


@contextmanager
def installed(tracer: Tracer):
    """Replace every module-global binding of each traced function in the
    loaded qgeo modules; restore the originals on exit."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "qgeo" or name.startswith("qgeo.")]
    patched = []
    for mod, fn in targets():
        original = getattr(sys.modules[f"qgeo.{mod}"], fn)
        wrapper = tracer.wrap(f"{mod}.{fn}", original)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    try:
        yield tracer
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)
