"""Command-line front end.

Verbs: run, classify, time-table, figures, converge, diagnostics.  All
outputs are CSV/JSON files whose first line records the resolved parameter
set; repeated invocations with the same config produce byte-identical files.

Exit codes: 0 ok, 2 configuration error, 3 solver error, 4 diagnostics
check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path

from cwblowup.analysis import (
    amplitude_lower_bound,
    blowup_time_bounds,
    classify_blowup_set,
    convergence_study,
    peak_ratio_diagnostics,
)
from cwblowup.params import (
    ConfigError,
    InitialData,
    InitialDataError,
    SimParams,
    apply_overrides,
    build_params,
    load_config,
    params_header,
)
from cwblowup.simulator import (
    RunOutcome,
    RunStatus,
    history_csv_rows,
    run,
    write_history_csv,
    write_snapshot_csv,
)
from cwblowup.stepper import StepError

_FIGURE_LAMBDAS = tuple(10.0 ** (1.0 + 0.5 * i) for i in range(9))  # 10^1 .. 10^5
_FIGURE_COLUMNS = ("t", "u_m", "u_m_minus_1", "u_m_minus_2", "u_m_plus_1", "u_m_plus_2")


def _resolve_setup(args: argparse.Namespace) -> tuple[SimParams, InitialData]:
    if args.config:
        mapping = load_config(args.config)
        base = Path(args.config).resolve().parent
    else:
        mapping, base = {}, None
    mapping = apply_overrides(mapping, args.set or [])
    return build_params(mapping, base_dir=base)

def _output_dir(args: argparse.Namespace) -> Path:
    """The output directory, not yet created.

    Each verb creates it only when its first file is ready to write, so a
    run refused by validation or a failed study leaves no directory behind.
    """
    return Path(os.environ.get("CW_OUTPUT_DIR") or args.output_dir)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _outcome_payload(outcome) -> dict:
    return {
        "status": outcome.status.value,
        "t_num_partial": outcome.t_num_partial,
        "t_num_tail": outcome.t_num_tail,
        "n_final": outcome.n_final,
        "error": outcome.error,
    }


def cmd_run(args: argparse.Namespace) -> int:
    params, initial = _resolve_setup(args)
    out = _output_dir(args)
    outcome, history = run(params, initial, snapshot_every=args.snapshot_every)
    out.mkdir(parents=True, exist_ok=True)
    write_history_csv(history, out / "history.csv", params, initial)
    for snap in history.snapshots:
        write_snapshot_csv(snap, out / f"snapshot_{snap[0]:06d}.csv", params, initial)
    _write_json(out / "outcome.json", _outcome_payload(outcome))
    print(f"{outcome.status.value}: {outcome.n_final} steps, t = {outcome.t_num_partial!r}")
    return 3 if outcome.status is RunStatus.SOLVER_ERROR else 0


def cmd_classify(args: argparse.Namespace) -> int:
    params, initial = _resolve_setup(args)
    out = _output_dir(args)
    outcome, history = run(params, initial)
    out.mkdir(parents=True, exist_ok=True)
    write_history_csv(history, out / "history.csv", params, initial)
    _write_json(out / "outcome.json", _outcome_payload(outcome))
    if outcome.status is not RunStatus.BLEW_UP:
        print(f"cannot classify: run ended with {outcome.status.value}", file=sys.stderr)
        return 3
    report = classify_blowup_set(history, params)
    _write_json(out / "blowup_report.json", report.to_dict())
    for offset in sorted(report.verdicts):
        print(f"offset {offset:+d}: {report.verdicts[offset].value}")
    return 0


def _amplitude_sweep(
    params: SimParams, initial: InitialData, lambdas: Iterable[float]
) -> Iterator[tuple[float, SimParams, RunOutcome]]:
    """Run each amplitude once, unmonitored, yielding each outcome as its run ends."""
    for lam in lambdas:
        row = replace(params, lam=lam)
        yield lam, row, run(row, initial, monitor=False)[0]


def cmd_time_table(args: argparse.Namespace) -> int:
    params, initial = _resolve_setup(args)
    if initial.kind != "sine":
        raise ConfigError(
            "time-table requires the sine initial profile (the bounds assume "
            "the initial peak equals lambda)"
        )
    out = _output_dir(args)
    lambdas = args.lambdas
    lines = [
        params_header(params, initial),
        "lambda,g_lambda,T_num,tail,T_star_star,sandwich_ok,status",
    ]
    for lam, row_params, outcome in _amplitude_sweep(params, initial, lambdas):
        if outcome.status is RunStatus.BLEW_UP:
            bounds = blowup_time_bounds(outcome, row_params)
            upper = "" if bounds.upper is None else repr(bounds.upper)
            lines.append(
                f"{lam!r},{bounds.lower_g!r},{bounds.t_num!r},{bounds.tail!r},"
                f"{upper},{str(bounds.sandwich_ok).lower()},{outcome.status.value}"
            )
        else:
            g = amplitude_lower_bound(row_params.p, lam)
            lines.append(f"{lam!r},{g!r},,,,false,{outcome.status.value}")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "time_table.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lambdas)} rows)")
    return 0


def _figure_series(params: SimParams, out: Path, *names: str) -> None:
    """Run one scenario and write its tracked-node series to each file name."""
    outcome, history = run(params)
    lines = [
        params_header(params) + f" status={outcome.status.value}",
        ",".join(_FIGURE_COLUMNS),
    ]
    lines.extend(history_csv_rows(history, _FIGURE_COLUMNS))
    text = "\n".join(lines) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        (out / name).write_text(text)


def cmd_figures(args: argparse.Namespace) -> int:
    params, initial = _resolve_setup(args)
    if initial.kind != "sine":
        raise ConfigError("figures requires the sine initial profile")
    out = _output_dir(args)
    # Scenario pins: the single-point damped case, and the multi-point case
    # tracked at the first and second neighbours (one run, two files).
    _figure_series(replace(params, p=4.0, q=1.3), out, "neighbor_bounded.csv")
    multi = replace(params, p=2.0, q=1.0)
    _figure_series(multi, out, "neighbor_blowup.csv", "second_neighbor_bounded.csv")

    sweep = replace(params, p=3.0)
    lines = [
        params_header(sweep, initial),
        "lambda,g_lambda,T_num,tail,status",
    ]
    lambdas = args.lambdas or _FIGURE_LAMBDAS
    for lam, row_params, outcome in _amplitude_sweep(sweep, initial, lambdas):
        g = amplitude_lower_bound(row_params.p, lam)
        total = outcome.t_num_partial + outcome.t_num_tail
        lines.append(
            f"{lam!r},{g!r},{total!r},{outcome.t_num_tail!r},{outcome.status.value}"
        )
    (out / "time_vs_bound.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote 4 figure data files to {out}")
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    params, initial = _resolve_setup(args)
    out = _output_dir(args)
    report = convergence_study(
        params,
        t_check=args.t_check,
        grid_levels=tuple(args.levels),
        reference_h=args.ref_h,
        initial=initial,
    )
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "convergence.json", report.to_dict())
    lines = [params_header(params, initial), "h,error"]
    lines.extend(f"{h!r},{e!r}" for h, e in zip(report.levels, report.errors))
    (out / "convergence.csv").write_text("\n".join(lines) + "\n")
    print(
        f"fitted order {report.fitted_order:.3f} "
        f"(expected {report.expected_order:.3f})"
    )
    return 0


def cmd_diagnostics(args: argparse.Namespace) -> int:
    params, initial = _resolve_setup(args)
    out = _output_dir(args)
    outcome, history = run(params, initial)
    diag = peak_ratio_diagnostics(history, params)
    inv = history.invariant_summary or {}
    payload = {
        "outcome": _outcome_payload(outcome),
        "ratio_diagnostics": diag.to_dict(),
        "invariants": inv,
    }

    failures: list[str] = []
    if inv:
        if inv["min_entry"] < 0.0:
            failures.append("negative solution entry observed")
        if inv["monotonicity_violations"]:
            failures.append(f"{inv['monotonicity_violations']} monotonicity violations")
        if not inv["boundary_zero"]:
            failures.append("boundary values drifted from zero")
    if diag.applicable:
        if diag.growth_deviation > 0.01:
            failures.append(f"peak growth deviates {diag.growth_deviation:.3%} from 1+tau")
        if diag.ratio_change_deviation > 0.02:
            failures.append(
                f"neighbour ratio change deviates {diag.ratio_change_deviation:.3%} "
                "from 1/(1+tau)"
            )
        if not diag.strictly_decreasing_tail:
            failures.append("neighbour-to-peak ratio not strictly decreasing in the tail")
    payload["failures"] = failures
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "diagnostics.json", payload)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("diagnostics ok")
    return 4 if failures else 0


def _float_list(text: str) -> list[float]:
    items = [part for part in text.split(",") if part.strip()]
    return [float(part) for part in items]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwblowup",
        description="Adaptive finite-difference blow-up solver for "
        "u_t = u_xx + u^p - |u_x|^q on (-1, 1).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument(
            "--output-dir",
            default="cw_out",
            help="output directory (env CW_OUTPUT_DIR overrides)",
        )

    p_run = sub.add_parser("run", help="simulate and write history/outcome")
    common(p_run)
    p_run.add_argument("--snapshot-every", type=int, default=0, metavar="S")
    p_run.set_defaults(func=cmd_run)

    p_cls = sub.add_parser("classify", help="run and classify the blow-up set")
    common(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_tt = sub.add_parser("time-table", help="blow-up time vs bounds per amplitude")
    common(p_tt)
    p_tt.add_argument(
        "--lambdas",
        type=_float_list,
        default=[10.0, 1e2, 1e3, 1e4, 1e5],
        help="comma-separated amplitudes",
    )
    p_tt.set_defaults(func=cmd_time_table)

    p_fig = sub.add_parser("figures", help="emit the standard scenario time series")
    common(p_fig)
    p_fig.add_argument("--lambdas", type=_float_list, default=None)
    p_fig.set_defaults(func=cmd_figures)

    p_cv = sub.add_parser("converge", help="grid-refinement order study")
    common(p_cv)
    p_cv.add_argument("--levels", type=_float_list, default=[0.1, 0.05, 0.025])
    p_cv.add_argument("--ref-h", type=float, default=None)
    p_cv.add_argument("--t-check", type=float, default=None)
    p_cv.set_defaults(func=cmd_converge)

    p_diag = sub.add_parser("diagnostics", help="limit checks; exit 4 on failure")
    common(p_diag)
    p_diag.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InitialDataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepError as exc:  # a run inside a study ended with SolverError
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
