"""Span tracer that wraps cwblowup's public calls from outside the package.

Each wrapped name is replaced in the module namespace where its caller looks
it up (``cwblowup.simulator.step``, ``cwblowup.stepper.assemble``, ...), so
the package itself is not edited.  Spans are kept in memory as tuples and
written out once, when the traced iteration ends.  A span's self time is its
duration minus the time covered by the spans it directly caused.
"""

from __future__ import annotations

import contextlib
import functools
import time
from pathlib import Path

# (layer.name, module attributes to patch).  Every lookup site a caller uses
# is listed, because ``from x import f`` copies the name into the caller.
WRAPPED = (
    ("params.validate", ("params.validate", "simulator.validate")),
    ("params.make_initial", ("simulator.make_initial",)),
    ("grid.build_grid", ("simulator.build_grid",)),
    ("grid.build_grid_by_count", ("simulator.build_grid_by_count",)),
    ("grid.carry_to_grid", ("simulator.carry_to_grid",)),
    ("stepper.step", ("simulator.step",)),
    ("stepper.assemble", ("stepper.assemble",)),
    ("stepper.solve_tridiag", ("stepper.solve_tridiag",)),
    ("simulator.run", ("simulator.run", "analysis.run", "cli.run")),
    ("simulator.record", ("simulator.RunHistory.record",)),
    ("simulator.snapshot", ("simulator.RunHistory.add_snapshot",)),
    ("analysis.classify_blowup_set", ("analysis.classify_blowup_set", "cli.classify_blowup_set")),
    ("analysis.peak_ratio_diagnostics", ("analysis.peak_ratio_diagnostics", "cli.peak_ratio_diagnostics")),
    ("analysis.blowup_time_bounds", ("analysis.blowup_time_bounds", "cli.blowup_time_bounds")),
    ("analysis.convergence_study", ("analysis.convergence_study", "cli.convergence_study")),
    ("cli.main", ("cli.main",)),
)

LAYERS = ("params", "grid", "stepper", "simulator", "analysis", "cli")
ROOT = "bench.iteration"


class Tracer:
    """Records spans and counters for the calls listed in ``WRAPPED``."""

    def __init__(self) -> None:
        # span: (id, parent id or -1, name, start, end)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_time: dict[str, float] = {}
        self.total_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {
            "stepper.assemble.stiff.n": 0,
            "stepper.unknowns.n": 0,
            "stepper.picard_iters.n": 0,
            "stepper.sign_flips.n": 0,
            "grid.peak_K": 0,
            "grid.moved_bytes": 0,
            "simulator.snapshot_bytes": 0,
            "cli.runs.n": 0,
        }
        # frames of open spans: [name, start, child time, span id]
        self._stack: list[list] = []
        self._next_id = 0
        self._cli_depth = 0
        self._stiff_error: type = Exception

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> list:
        frame = [name, 0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.total_time[name] = self.total_time.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.spans.append((span_id, parent_id, name, start, end))

    @contextlib.contextmanager
    def root(self):
        """Root span around one traced iteration."""
        frame = self._open(ROOT)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            if name == "cli.main":
                tracer._cli_depth += 1
            elif name == "simulator.run" and tracer._cli_depth:
                counts["cli.runs.n"] += 1
            try:
                result = fn(*args, **kwargs)
            except tracer._stiff_error:
                if name == "stepper.assemble":
                    counts["stepper.assemble.stiff.n"] += 1
                raise
            finally:
                if name == "cli.main":
                    tracer._cli_depth -= 1
                tracer._close(frame)
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name == "stepper.solve_tridiag":
            counts["stepper.unknowns.n"] += args[0].size
        elif name == "stepper.step":
            counts["stepper.picard_iters.n"] += result.picard_iters
            counts["stepper.sign_flips.n"] += result.sign_flips
        elif name in ("grid.build_grid", "grid.build_grid_by_count"):
            counts["grid.peak_K"] = max(counts["grid.peak_K"], result.interval_count)
        elif name == "grid.carry_to_grid":
            # computed, not measured: one float64 per node of the new grid
            counts["grid.moved_bytes"] += 8 * (args[2].interval_count + 1)
        elif name == "simulator.snapshot":
            _, _, x, u = args[0].snapshots[-1]
            counts["simulator.snapshot_bytes"] += x.nbytes + u.nbytes

    def install(self, package) -> None:
        """Patch every name in ``WRAPPED`` on the imported ``package``."""
        self._stiff_error = package.stepper.StiffError
        for name, sites in WRAPPED:
            for site in sites:
                *owner_path, attr = site.split(".")
                owner = package
                for part in owner_path:
                    owner = getattr(owner, part)
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))

    # -- results -------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer table: times (s), call counts and counters of one iteration."""
        total = self.total_time.get(ROOT, 0.0)
        s = self.total_time.get
        self_s = self.self_time.get
        n = self.calls.get
        out: dict[str, float] = {}
        for name, _ in WRAPPED:
            out[name + ".s"] = s(name, 0.0)
            out[name + ".n"] = n(name, 0)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                v for k, v in self.self_time.items() if k.split(".")[0] == layer
            )
        out["stepper.step.self_s"] = self_s("stepper.step", 0.0)
        out["simulator.run.self_s"] = self_s("simulator.run", 0.0)
        out["analysis.convergence_study.self_s"] = self_s("analysis.convergence_study", 0.0)
        out.update(self.counts)
        solves = n("stepper.solve_tridiag", 0)
        out["stepper.useful_solve_ratio"] = n("stepper.step", 0) / solves if solves else 0.0
        out["trace.total_s"] = total
        out["trace.unattributed_s"] = self_s(ROOT, 0.0)
        layered = sum(out[layer + ".self_s"] for layer in LAYERS)
        out["trace.self_sum_ratio"] = layered / total if total else 0.0
        out["trace.spans.n"] = len(self.spans)
        return out

    def write_spans(self, path: Path) -> None:
        """Write the spans as CSV; times are seconds from the first span's start."""
        t0 = min((sp[3] for sp in self.spans), default=0.0)
        lines = ["id,parent,name,start_s,end_s"]
        lines.extend(
            f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}"
            for i, parent, name, start, end in self.spans
        )
        path.write_text("\n".join(lines) + "\n")
