#!/usr/bin/env python3
"""Interleaved A/B timing of two checkouts' run loops in one process.

Usage: python3 tools/interleaved_ab.py BASE_CHECKOUT HEAD_CHECKOUT [--rounds N]

HEAD's ``src/cwblowup`` is imported as ``cwblowup``; BASE's is copied into a
temporary directory as the package ``cwblowup_base``, its absolute imports
rewritten to that name, and imported beside it.  Each round runs three
scenarios on both sides, in alternating order (BASE first on even rounds):

* fixed-q1: p=2, q=1, tau=0.001, lambda=7, 4,000 steps;
* refine-q136: p=3, q=1.36, tau=0.1, lambda=10, to blow-up;
* p=3, q=1.2, tau=0.1, lambda=100, to blow-up.

A run's time is the wall time of ``run()``.  The two sides' history digests
(every history column, byte for byte) must be equal; the script exits 1 when
one differs.  It prints, per scenario, each side's median microseconds per
accepted step, the median over rounds of the round's BASE/HEAD time ratio,
and how many of the rounds HEAD was faster.  A ratio taken within a round
holds when the host's speed changes during the run; a ratio of the two
sides' medians does not.  One process
alternating both sides sees the same host speed state for each pair, which
separate fresh-process benchmark runs do not.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import re
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

SCENARIOS = {
    "fixed-q1": dict(p=2.0, q=1.0, tau=0.001, h=0.05, lam=7.0, max_steps=4000),
    "refine-q136": dict(p=3.0, q=1.36, tau=0.1, h=0.05, lam=10.0),
    "p3-q1.2-l100": dict(p=3.0, q=1.2, tau=0.1, h=0.05, lam=100.0),
}


def _load(base: Path, head: Path, tmp: Path):
    """Import HEAD's package as cwblowup and BASE's as cwblowup_base."""
    copy = tmp / "cwblowup_base"
    shutil.copytree(base / "src" / "cwblowup", copy, ignore=shutil.ignore_patterns("__pycache__"))
    for path in copy.glob("*.py"):
        text = path.read_text()
        path.write_text(re.sub(r"\bcwblowup\b", "cwblowup_base", text))
    sys.path[:0] = [str(head / "src"), str(tmp)]
    return importlib.import_module("cwblowup_base"), importlib.import_module("cwblowup")


def _digest(history, columns) -> str:
    h = hashlib.sha256()
    for name in columns:
        h.update(history.rows[name].tobytes())
    return h.hexdigest()


def _timed(package, fields: dict) -> tuple[float, str]:
    """Microseconds per accepted step of one run, and its history digest."""
    params = package.SimParams(**fields)
    start = time.perf_counter()
    outcome, history = package.run(params)
    elapsed = time.perf_counter() - start
    digest = _digest(history, package.simulator.HISTORY_COLUMNS)
    return 1e6 * elapsed / max(outcome.n_final, 1), digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    # the scenarios' small amplitudes warn on every run
    warnings.simplefilter("ignore", UserWarning)
    with tempfile.TemporaryDirectory() as tmp:
        base, head = _load(args.base.resolve(), args.head.resolve(), Path(tmp))
        sides = {"base": base, "head": head}
        times = {(name, side): [] for name in SCENARIOS for side in sides}
        for name, fields in SCENARIOS.items():
            for side, package in sides.items():  # warm-up, untimed
                _timed(package, fields)
        for k in range(args.rounds):
            for name, fields in SCENARIOS.items():
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                digests = {}
                for side in order:
                    us, digests[side] = _timed(sides[side], fields)
                    times[name, side].append(us)
                if digests["base"] != digests["head"]:
                    print(f"{name}: history digests differ in round {k}", file=sys.stderr)
                    return 1

    for name in SCENARIOS:
        b, h = times[name, "base"], times[name, "head"]
        wins = sum(x < y for x, y in zip(h, b))
        ratio = statistics.median(x / y for x, y in zip(b, h))
        print(
            f"{name}: base {statistics.median(b):.2f} us/step, head "
            f"{statistics.median(h):.2f} us/step, median per-round base/head "
            f"{ratio:.3f}x, head won {wins}/{len(h)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
