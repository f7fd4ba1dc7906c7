"""Command-line front end.

Verbs: run, classify, time-table, figures, converge, diagnostics.  All
outputs are CSV/JSON files whose first line records the resolved parameter
set; repeated invocations with the same config produce byte-identical files.

Exit codes: 0 ok, 2 configuration error, 3 solver error (or a classify run
that gives nothing to classify), 4 diagnostics check failure.  Any other
exception is a defect and ends in a traceback, exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Sequence
from dataclasses import replace
from pathlib import Path

from cwblowup.analysis import (
    CLASSIFY_MIN_ROWS,
    amplitude_lower_bound,
    blowup_time_bounds,
    classify_blowup_set,
    convergence_study,
    peak_ratio_diagnostics,
)
from cwblowup.params import (
    ConfigError,
    InitialData,
    SimParams,
    apply_overrides,
    build_params,
    load_config,
    params_header,
)
from cwblowup.simulator import HISTORY_COLUMNS, RunHistory, RunOutcome, RunStatus, run
from cwblowup.stepper import StepError

_FIGURE_LAMBDAS = tuple(10.0 ** (1.0 + 0.5 * i) for i in range(9))  # 10^1 .. 10^5
_FIGURE_COLUMNS = ("t", "u_m", "u_m_minus_1", "u_m_minus_2", "u_m_plus_1", "u_m_plus_2")
_TIME_TABLE_COLUMNS = (
    "lambda", "g_lambda", "T_num", "tail", "T_star_star", "sandwich_ok", "status"
)
_TIME_VS_BOUND_COLUMNS = ("lambda", "g_lambda", "T_num", "tail", "status")


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

    The two writers, :func:`_write_csv` and :func:`_write_json`, create it
    when their file is ready, so a run refused by validation or a failed
    study leaves no directory behind.
    A path that could never be created, because it or its nearest existing
    ancestor is not a directory, is refused here, before any run.
    """
    out = Path(args.output_dir)
    existing = next(d for d in (out, *out.parents) if d.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {out}: {existing} is not a directory")
    return out


def _write_json(path: Path, payload: dict) -> None:
    """Write strict JSON (NaN and infinities are refused), keys sorted."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(
    path: Path, comment: str, names: Sequence[str], columns: Iterable, *copies: Path
) -> None:
    """Write the ``#`` comment line, the line of column names, then the rows.

    ``columns`` holds the cells column by column, one sequence per name.
    Each cell prints as its ``str``: a Python float as its shortest
    round-trip ``repr``, an int as an integer, text as itself.  Each path in
    ``copies`` receives the same bytes.
    """
    lines = [comment, ",".join(names)]
    lines.extend(map(",".join, zip(*[map(str, column) for column in columns])))
    text = "\n".join(lines) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    for target in (path, *copies):
        target.write_text(text)


def _history_columns(
    history: RunHistory, names: Sequence[str] = HISTORY_COLUMNS
) -> list[list]:
    """The named columns as Python floats, with the step count ``n`` as ints."""
    columns = [history.column(name).tolist() for name in names]
    if "n" in names:
        k = names.index("n")
        columns[k] = [int(v) for v in columns[k]]
    return columns


def _outcome_payload(outcome: RunOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "t_num_partial": outcome.t_num_partial,
        "t_num_tail": outcome.t_num_tail,
        "n_final": outcome.n_final,
        "error": outcome.error,
    }


def _write_run(out: Path, header: str, outcome: RunOutcome, history: RunHistory) -> None:
    """Write a run's ``history.csv`` and ``outcome.json``."""
    _write_csv(out / "history.csv", header, HISTORY_COLUMNS, _history_columns(history))
    _write_json(out / "outcome.json", _outcome_payload(outcome))


def cmd_run(
    args: argparse.Namespace, params: SimParams, initial: InitialData, out: Path
) -> int:
    outcome, history = run(params, initial, snapshot_every=args.snapshot_every)
    header = params_header(params, initial)
    _write_run(out, header, outcome, history)
    for n, t, x, u in history.snapshots:
        _write_csv(
            out / f"snapshot_{n:06d}.csv", f"{header} n={n} t={t!r}", ("x", "u"),
            (x.tolist(), u.tolist()),
        )
    print(f"{outcome.status.value}: {outcome.n_final} steps, t = {outcome.t_num_partial!r}")
    return 3 if outcome.status is RunStatus.SOLVER_ERROR else 0


def cmd_classify(
    args: argparse.Namespace, params: SimParams, initial: InitialData, out: Path
) -> int:
    outcome, history = run(params, initial)
    _write_run(out, params_header(params, initial), outcome, history)
    if outcome.status is not RunStatus.BLEW_UP or len(history) < CLASSIFY_MIN_ROWS:
        ended = f"{outcome.status.value} after {outcome.n_final} steps"
        print(f"cannot classify: run ended with {ended}", file=sys.stderr)
        return 3
    report = classify_blowup_set(history, params)
    _write_json(out / "blowup_report.json", report.to_dict())
    for offset in sorted(report.verdicts):
        print(f"offset {offset:+d}: {report.verdicts[offset].value}")
    return 0


def _amplitude_table(
    params: SimParams, initial: InitialData, lambdas: Sequence[float]
) -> dict[str, list]:
    """Run each amplitude once, in order; the ``_TIME_TABLE_COLUMNS`` by name.

    A run that did not blow up has empty ``T_num``, ``tail`` and
    ``T_star_star`` cells.  Every run ends before any file is written, so a
    refused amplitude, or an empty list of them, leaves no output behind.
    """
    if not lambdas:
        raise ConfigError("no amplitudes given; --lambdas needs at least one value")
    if initial.kind != "sine":
        raise ConfigError(
            "time-table and figures require the sine initial profile (the "
            "bounds assume the initial peak equals lambda)"
        )
    rows = []
    for lam in lambdas:
        row_params = replace(params, lam=lam)
        outcome = run(row_params, initial)[0]
        status = outcome.status.value
        if outcome.status is RunStatus.BLEW_UP:
            b = blowup_time_bounds(outcome, row_params)
            upper = "" if b.upper is None else b.upper
            ok = str(b.sandwich_ok).lower()
            rows.append((lam, b.lower_g, outcome.t_num, outcome.t_num_tail, upper, ok, status))
        else:
            g = amplitude_lower_bound(row_params.p, lam)
            rows.append((lam, g, "", "", "", "false", status))
    return {
        name: [row[k] for row in rows] for k, name in enumerate(_TIME_TABLE_COLUMNS)
    }


def cmd_time_table(
    args: argparse.Namespace, params: SimParams, initial: InitialData, out: Path
) -> int:
    table = _amplitude_table(params, initial, args.lambdas)
    path = out / "time_table.csv"
    _write_csv(path, params_header(params, initial), _TIME_TABLE_COLUMNS, table.values())
    print(f"wrote {path} ({len(args.lambdas)} rows)")
    return 0


def _figure_series(params: SimParams, out: Path, *names: str) -> None:
    """Run one scenario and write its tracked-node series to each file name."""
    outcome, history = run(params)
    first, *rest = (out / name for name in names)
    _write_csv(
        first, params_header(params) + f" status={outcome.status.value}", _FIGURE_COLUMNS,
        _history_columns(history, _FIGURE_COLUMNS), *rest,
    )


def cmd_figures(
    args: argparse.Namespace, params: SimParams, initial: InitialData, out: Path
) -> int:
    sweep = replace(params, p=3.0)
    table = _amplitude_table(sweep, initial, _FIGURE_LAMBDAS)
    # Scenario pins: the single-point damped case, and the multi-point case
    # tracked at the first and second neighbours (one run, two files).
    _figure_series(replace(params, p=4.0, q=1.3), out, "neighbor_bounded.csv")
    multi = replace(params, p=2.0, q=1.0)
    _figure_series(multi, out, "neighbor_blowup.csv", "second_neighbor_bounded.csv")
    _write_csv(
        out / "time_vs_bound.csv", params_header(sweep, initial), _TIME_VS_BOUND_COLUMNS,
        [table[name] for name in _TIME_VS_BOUND_COLUMNS],
    )
    print(f"wrote 4 figure data files to {out}")
    return 0


def cmd_converge(
    args: argparse.Namespace, params: SimParams, initial: InitialData, out: Path
) -> int:
    report = convergence_study(
        params, t_check=args.t_check, grid_levels=tuple(args.levels), initial=initial
    )
    _write_json(out / "convergence.json", report.to_dict())
    _write_csv(
        out / "convergence.csv", params_header(params, initial), ("h", "error"),
        (report.levels, report.errors),
    )
    print(
        f"fitted order {report.fitted_order:.3f} "
        f"(expected {report.expected_order:.3f})"
    )
    return 0


def cmd_diagnostics(
    args: argparse.Namespace, params: SimParams, initial: InitialData, out: Path
) -> int:
    outcome, history = run(params, initial)
    diag = peak_ratio_diagnostics(history, params)
    failures: list[str] = []
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
    _write_json(
        out / "diagnostics.json",
        {
            "outcome": _outcome_payload(outcome),
            "ratio_diagnostics": diag.to_dict(),
            "failures": failures,
        },
    )
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if outcome.status is RunStatus.SOLVER_ERROR:
        print(f"cannot check limits: run ended with {outcome.status.value}",
              file=sys.stderr)
        return 3
    if not diag.applicable:
        print(f"limits not checked: {diag.reason}")
    elif not failures:
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
        p.add_argument("--output-dir", default="cw_out", help="output directory")

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
    p_fig.set_defaults(func=cmd_figures)

    p_cv = sub.add_parser("converge", help="grid-refinement order study")
    common(p_cv)
    p_cv.add_argument("--levels", type=_float_list, default=[0.1, 0.05, 0.025])
    p_cv.add_argument("--t-check", type=float, default=None)
    p_cv.set_defaults(func=cmd_converge)

    p_diag = sub.add_parser("diagnostics", help="limit checks; exit 4 on failure")
    common(p_diag)
    p_diag.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, initial = _resolve_setup(args)
        return args.func(args, params, initial, _output_dir(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepError as exc:  # a run inside a study ended with SolverError
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
