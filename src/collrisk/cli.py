"""Command-line front end.

Reads a declarative model file, dispatches to the library, and writes
aligned text tables or headerless CSV (``--format csv``) with a documented
column order per command. All numeric output uses 12 significant digits
and runs are byte-identical for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import montecarlo
from .cumulant import (
    CompoundModel,
    Policy,
    Portfolio,
    chernoff_bound,
    esscher_tail,
    esscher_tail_lattice,  # noqa: F401  the benchmark's tracer patches it here
    portfolio_exact_tail,
    portfolio_tail_bracket,
    portfolio_to_compound,
)
from .errors import (
    BudgetError,
    CollRiskError,
    ConvergenceError,
    DomainError,
    GridError,
    InsufficientRuinsError,
    NoRootError,
    ParseError,
    RootBracketError,
)
from .lattice import check_cells, panjer, step_at, steps_to, steps_within
from .ruin import (
    LundbergSolution,
    RiskSystem,
    cramer_lundberg_approx,
    finite_time_bound,
    lundberg,
    mixture_exact,
    non_ruin_zero,
    ruin_panjer,
    ruin_time_clt,
    seal,
)
from .severity import (
    Exponential,
    Gamma,
    Lattice,
    MixtureOfExponentials,
    PointMass,
    SeverityModel,
    lattice_masses,
)
from .severity import discretize  # noqa: F401  (bench/tracer.py patches this name here)

logger = logging.getLogger(__name__)

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_BUDGET = 5

# every other CollRiskError exits with EXIT_DOMAIN
_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (ParseError, EXIT_PARSE),
    (ConvergenceError, EXIT_CONVERGENCE),
    (NoRootError, EXIT_CONVERGENCE),
    (RootBracketError, EXIT_CONVERGENCE),
    (BudgetError, EXIT_BUDGET),
    (InsufficientRuinsError, EXIT_BUDGET),
)


def _exit_code(exc: CollRiskError) -> int:
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return EXIT_DOMAIN


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.12g}"


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Controls:
    """Numeric controls carried by the model file (overridable by flags)."""

    span: float = 0.01
    n_out: int | None = None
    mc_seed: int = 0
    mc_paths: int = 100_000
    mc_horizon: float | None = None

    def __post_init__(self):
        # checked here so that the model file's keys and the flags share the checks
        if not self.span > 0:
            raise ParseError(f"span must be positive, got {self.span}")
        if self.n_out is not None and self.n_out < 1:
            raise ParseError(f"n_out must be positive, got {self.n_out}")
        if not 0 <= self.mc_seed < 2**64:
            raise ParseError(f"mc_seed must lie in [0, 2**64), got {self.mc_seed}")
        if self.mc_paths < 1:
            raise ParseError(f"mc_paths must be positive, got {self.mc_paths}")


@dataclass(frozen=True)
class ModelSpec:
    system: RiskSystem
    controls: Controls


def _parse_float(key: str, raw: str) -> float:
    try:
        return _finite(raw)
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"key '{key}': {exc}") from exc


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"key '{key}': expected an integer, got '{raw}'") from exc


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, tok) for tok in map(str.strip, raw.split(",")) if tok)


# model-file key -> its parser: the risk system's numbers, then the Controls fields
_SYSTEM_KEYS = dict.fromkeys(("lambda", "premium_rate", "initial_capital"), _parse_float)
_CONTROL_KEYS = {
    "span": _parse_float,
    "n_out": _parse_int,
    "mc_seed": _parse_int,
    "mc_paths": _parse_int,
    "mc_horizon": _parse_float,
}
_TOP_KEYS = _SYSTEM_KEYS | _CONTROL_KEYS


def _two_column_rows(
    path: Path, file: str, row: str, columns: str
) -> list[tuple[int, str, str]]:
    """The ``(line number, first, second)`` rows of a two-column text file.

    Blank lines and lines starting with ``#`` are skipped, and a comma
    separates like whitespace. ``file``, ``row`` and ``columns`` name the
    file, its rows and its columns in the error messages.
    """
    if not path.exists():
        raise ParseError(f"{file} file not found: {path}")
    rows = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{line_no}: expected {columns}")
        rows.append((line_no, *parts))
    if not rows:
        raise ParseError(f"{path}: no {row} rows")
    return rows


def _lattice_from_file(span: float, path: Path) -> Lattice:
    masses: dict[int, float] = {}
    for line_no, raw_point, raw_mass in _two_column_rows(path, "lattice", "mass", "two columns"):
        point, mass = _parse_float("point", raw_point), _parse_float("mass", raw_mass)
        idx = step_at(point, span)
        if idx is None or idx < 1:
            raise ParseError(
                f"{path}:{line_no}: point {point} is not a positive multiple of span {span}"
            )
        if idx in masses:
            raise ParseError(f"{path}:{line_no}: duplicate point {point}")
        masses[idx] = mass
    arr = np.zeros(check_cells(max(masses)))
    for idx, mass in masses.items():
        arr[idx - 1] = mass
    total = arr.sum()
    if abs(total - 1.0) > 1e-9:
        raise ParseError(f"{path}: masses sum to {total!r}, not 1")
    if abs(total - 1.0) > 1e-12:
        logger.warning("lattice file %s: masses sum to %.17g, renormalizing", path, total)
        arr = arr / total
    return Lattice(span, tuple(arr))


# severity kind -> its law and the law's keys, each with its parser, in argument order
_SEVERITY_KINDS = {
    "exponential": (Exponential, {"rate": _parse_float}),
    "gamma": (Gamma, {"shape": _parse_float}),
    "point": (PointMass, {"location": _parse_float}),
    "mixture": (MixtureOfExponentials, {"weights": _parse_float_list, "rates": _parse_float_list}),
    "lattice": (_lattice_from_file, {"span": _parse_float, "file": lambda _key, raw: raw}),
}
_SEVERITY_KEYS = {"kind"}.union(*(keys for _, keys in _SEVERITY_KINDS.values()))


def _severity_from_block(block: dict[str, str], base_dir: Path) -> SeverityModel:
    kind = block.get("kind")
    if kind is None:
        raise ParseError("severity block needs a 'kind' key")
    if kind not in _SEVERITY_KINDS:
        raise ParseError(f"unknown severity kind '{kind}'")
    law, keys = _SEVERITY_KINDS[kind]
    missing = [k for k in keys if k not in block]
    if missing:
        raise ParseError(f"severity kind '{kind}' needs keys: {', '.join(missing)}")
    extra = set(block) - {"kind", *keys}
    if extra:
        raise ParseError(
            f"severity kind '{kind}' does not accept keys: {', '.join(sorted(extra))}"
        )
    args = [parse(key, block[key]) for key, parse in keys.items()]
    if kind == "lattice":  # the file name is relative to the model file's directory
        args[1] = base_dir / args[1]
    try:
        return law(*args)
    except DomainError as exc:
        raise ParseError(f"invalid severity parameters: {exc}") from exc


def parse_model_text(text: str, base_dir: Path) -> ModelSpec:
    top: dict[str, str] = {}
    sev_block: dict[str, str] | None = None
    in_severity = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "severity {":
            if sev_block is not None:
                raise ParseError(f"line {line_no}: duplicate severity block")
            sev_block = {}
            in_severity = True
            continue
        if line == "}":
            if not in_severity:
                raise ParseError(f"line {line_no}: unmatched '}}'")
            in_severity = False
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected 'key = value', got '{raw.strip()}'")
        key, value = (tok.strip() for tok in line.split("=", 1))
        if in_severity:
            if key not in _SEVERITY_KEYS:
                raise ParseError(f"line {line_no}: unknown severity key '{key}'")
            if key in sev_block:
                raise ParseError(f"line {line_no}: duplicate severity key '{key}'")
            sev_block[key] = value
        else:
            if key not in _TOP_KEYS:
                raise ParseError(f"line {line_no}: unknown key '{key}'")
            if key in top:
                raise ParseError(f"line {line_no}: duplicate key '{key}'")
            top[key] = value
    if in_severity:
        raise ParseError("unterminated severity block")
    for required in ("lambda", "premium_rate"):
        if required not in top:
            raise ParseError(f"missing required key '{required}'")
    if sev_block is None:
        raise ParseError("missing severity block")

    def parsed(table: dict) -> dict:
        return {key: parse(key, top[key]) for key, parse in table.items() if key in top}

    severity = _severity_from_block(sev_block, base_dir)
    numbers = parsed(_SYSTEM_KEYS)
    try:
        system = RiskSystem(CompoundModel(numbers.pop("lambda"), severity), **numbers)
    except DomainError as exc:
        raise ParseError(f"invalid model parameters: {exc}") from exc
    return ModelSpec(system, Controls(**parsed(_CONTROL_KEYS)))


def parse_model_file(path: str | Path) -> ModelSpec:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"model file not found: {path}")
    return parse_model_text(path.read_text(), path.parent)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _render(header: list[str], rows: list[tuple], fmt: str) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in cells) + ("\n" if cells else "")
    table = [header] + cells
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for r, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


# command-line flag -> the Controls field it overrides
_OVERRIDES = {"span": "span", "seed": "mc_seed", "paths": "mc_paths", "horizon": "mc_horizon"}


def _apply_overrides(spec: ModelSpec, args: argparse.Namespace) -> ModelSpec:
    given = {field: getattr(args, flag, None) for flag, field in _OVERRIDES.items()}
    controls = replace(spec.controls, **{k: v for k, v in given.items() if v is not None})
    return replace(spec, controls=controls)


def _check_lattice_budget(controls: Controls, needed: int) -> None:
    # n_out caps how many lattice steps a command's recursion computes
    if controls.n_out is not None and needed > controls.n_out:
        raise GridError(
            f"command needs {needed} lattice steps but n_out caps it at {controls.n_out}; "
            f"raise n_out or coarsen the span"
        )


def _plan(
    system: RiskSystem, controls: Controls, horizon: float, workers: int, **probes
) -> montecarlo.SimulationPlan:
    return montecarlo.SimulationPlan(
        system=system,
        horizon=horizon,
        n_paths=controls.mc_paths,
        seed=controls.mc_seed,
        workers=workers,
        **probes,
    )


# ---------------------------------------------------------------------------
# Commands: each builds its rows and returns the text to print
# ---------------------------------------------------------------------------


def cmd_tail(spec: ModelSpec, args: argparse.Namespace) -> str:
    system, controls = spec.system, spec.controls
    model = system.model
    t, x = args.t, args.x
    rows: list[tuple] = []

    bound = chernoff_bound(model, t, x)
    rows.append(("chernoff", t, x, bound.bound, None, bound.side))

    if bound.point.tilt == 0.0:
        rows.append(("esscher", t, x, None, None, "mean-rate: no positive tilt"))
    elif bound.side == "lower-tail":
        rows.append(("esscher", t, x, None, None, "below the mean rate"))
    else:
        tail = esscher_tail(model, t, x)
        lattice = tail.span_correction is not None
        note = "span-corrected" if lattice else "continuous"
        rows.append(("esscher", t, x, tail.value, None,
                     "degenerate: a*sigma < 1" if tail.degenerate else note))
        prefactor = "modified prefactor" if lattice else "expanded prefactor"
        rows.append(("esscher-explicit", t, x, tail.value_explicit, None, prefactor))

    # a lattice law fixes the panjer span
    span = model.severity.lattice_span
    note = "exact"
    if span is None:
        span = controls.span
        note = f"discretized (d={span:g})"
    # P(S(t) >= t*x) is the tail above the last cell below t*x
    m_star = steps_to(t * x, span)
    n_cells = max(m_star, 1)
    _check_lattice_budget(controls, n_cells)
    agg = panjer(model.rate * t, lattice_masses(model.severity, span), n_cells)
    rows.append(("panjer", t, x, agg.tail(m_star - 1), None, note))

    if args.mc:
        result = montecarlo.simulate(_plan(system, controls, t, args.workers,
                                           tail_probes=((t, x),)))
        est = result.estimates[montecarlo.estimate_key("tail", t=t, x=x)]
        rows.append(("monte-carlo", t, x, est.value, est.std_error, f"n={est.n_effective}"))

    return _render(["method", "t", "x", "value", "std_error", "note"], rows, args.format)


def ruin_report_record(solution: LundbergSolution | None, rows: list[tuple]) -> str:
    """Flat key-value serialization of (method, u, t, value, error) ruin rows."""
    lines = []
    if solution is not None:
        lines.append(f"R = {solution.R:.12g}")
        lines.append(f"C = {solution.constant:.12g}")
        lines.append(f"tbar = {solution.time_scale:.12g}")
        lines.append(f"sigma_sq = {solution.sigma_sq:.12g}")
    for method, u, t, value, error in rows:
        key = f"r(u={u:.12g}"
        if t is not None:
            key += f"; t={t:.12g}"
        key += f"; method={method})"
        value = f"{value:.12g}"
        if error is not None:
            value += f" +- {error:.12g}"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def cmd_ruin(spec: ModelSpec, args: argparse.Namespace) -> str:
    system, controls = spec.system, spec.controls
    u_list = args.u
    header = ["method", "u", "t", "value", "error"]

    if system.loading <= 0.0:
        if args.record:
            return ruin_report_record(None, [("certain", min(u_list), None, 1.0, None)])
        return _render(header, [("certain", None, None, 1.0, None)], args.format)

    _check_lattice_budget(controls, steps_to(max(u_list), controls.span) + 1)
    curve = ruin_panjer(system, controls.span, max(u_list))
    rows: list[tuple] = [("panjer-recursion", u, None, curve.value(u), None) for u in u_list]

    sol = lundberg(system)
    for u in u_list:
        cl = cramer_lundberg_approx(system, u)
        rows.append(("cramer-lundberg", u, None, cl.value, None))
        rows.append(("lundberg-bound", u, None, cl.bound, None))

    if system.model.severity.as_mixture() is not None:
        rows += [("mixture-exact", u, None, mixture_exact(system, u).value, None) for u in u_list]

    if args.mc:
        horizon = controls.mc_horizon
        if horizon is None:
            horizon = montecarlo.default_horizon(system, max(u_list))
            if horizon == 0.0:
                raise DomainError("every capital is 0, so the default horizon is 0; "
                                  "pass --horizon")
        result = montecarlo.simulate(_plan(system, controls, horizon, args.workers,
                                           ruin_levels=tuple(u_list)))
        for u in u_list:
            est = result.estimates[montecarlo.estimate_key("ruin", u=u)]
            rows.append(("monte-carlo", u, horizon, est.value, est.std_error))

    if args.record:
        return ruin_report_record(sol, rows)
    return _render(header, rows, args.format)


def cmd_ruin_time(spec: ModelSpec, args: argparse.Namespace) -> str:
    system, controls = spec.system, spec.controls
    u = args.u
    ratios = args.t if args.t else [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
    for ratio in ratios:
        if not ratio > 0.0:
            raise DomainError(f"--t values must be positive, got {ratio:g}")
    sol = lundberg(system)
    rows: list[tuple] = [
        ("R", u, None, sol.R, None),
        ("C", u, None, sol.constant, None),
        ("tbar", u, None, sol.time_scale, None),
        ("sigma-sq", u, None, sol.sigma_sq, None),
    ]
    clt = ruin_time_clt(system, u, 0.0)
    rows.append(("clt-mean", u, None, clt.mean, None))
    rows.append(("clt-variance", u, None, clt.variance, None))
    for ratio in ratios:
        t = ratio * sol.time_scale if args.relative else ratio
        ftb = finite_time_bound(system, u, t)
        rows.append((f"H-{ftb.side}", u, t, ftb.exponent, None))
        rows.append((f"bound-{ftb.side}", u, t, ftb.bound, None))

    if args.mc:
        horizon = controls.mc_horizon
        if horizon is None:
            horizon = montecarlo.default_horizon(system, u)
        study = montecarlo.ruin_time_samples(_plan(system, controls, horizon, args.workers,
                                                   collect_ruin_times=u))
        if args.dump is not None:
            Path(args.dump).write_text(montecarlo.ruin_times_text(study.times))
        rows.append(("mc-ruin-frequency", u, horizon, study.ruin_frequency.value,
                     study.ruin_frequency.std_error))
        rows.append(("mc-ruin-time-mean", u, horizon, study.mean, study.mean_se))
        rows.append(("mc-ruin-time-variance", u, horizon, study.variance, None))
        if study.pre_asymptotic:
            rows.append(("mc-flag", u, horizon, None, None))

    return _render(["quantity", "u", "t", "value", "error"], rows, args.format)


def cmd_seal(spec: ModelSpec, args: argparse.Namespace) -> str:
    controls = spec.controls
    system = RiskSystem(spec.system.model, spec.system.premium_rate, args.u)
    u, t = args.u, args.t
    sev = system.model.severity
    # exact lattice masses fix the span; every other law, a point mass too, is discretized
    span = controls.span if sev.as_distribution() is None else sev.lattice_span
    # seal's aggregate recursion runs to the first cell at or above u + c*t
    _check_lattice_budget(controls, steps_to(u + system.premium_rate * t, span))
    result = seal(system, t, d=span)
    rows: list[tuple] = [
        ("seal", u, t, result.value, None),
        ("seal-beyond-horizon", u, t, result.beyond, None),
        ("seal-crossings", u, t, result.crossings, None),
    ]
    if u == 0.0:
        non_ruin = non_ruin_zero(system, t, result.aggregate)
        rows.append(("one-minus-non-ruin-zero", 0.0, t, 1.0 - non_ruin, None))

    if args.mc:
        plan = _plan(system, controls, t, args.workers, ruin_levels=(u,))
        est = montecarlo.simulate(plan).estimates[montecarlo.estimate_key("ruin", u=u)]
        rows.append(("monte-carlo", u, t, est.value, est.std_error))

    return _render(["method", "u", "t", "value", "error"], rows, args.format)


def _parse_policies(path: Path) -> Portfolio:
    policies = []
    columns = "'sum_at_risk, probability'"
    for line_no, sum_at_risk, probability in _two_column_rows(path, "policy", "policy", columns):
        try:
            policies.append(Policy(float(sum_at_risk), float(probability)))
        except (ValueError, DomainError) as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
    return Portfolio(tuple(policies))


def cmd_portfolio(args: argparse.Namespace) -> str:
    if args.span is not None:
        Controls(span=args.span)  # the span check of the model commands
    portfolio = _parse_policies(Path(args.policies))
    model = portfolio_to_compound(portfolio, span=args.span)
    severity: Lattice = model.severity
    rows: list[tuple] = [
        ("summary", "lambda", model.rate),
        ("summary", "sum-p-squared", portfolio.sum_p_squared),
        ("summary", "approximation-bound", portfolio.approximation_bound),
        ("summary", "span", severity.span),
        ("summary", "policies", float(len(portfolio))),
    ]
    dist = lattice_masses(severity)
    rows.extend(("atom", idx * severity.span, dist.masses[idx])
                for idx in np.flatnonzero(dist.masses).tolist())

    if args.x:
        n_out = max(steps_to(max(args.x), severity.span) + 1, 1)
        agg = panjer(model.rate, dist, n_out)
        try:
            tails = [("tail", portfolio_exact_tail(portfolio, args.x))]
        except DomainError:  # the sums share no span: bracket them on --span's lattice
            bracket = portfolio_tail_bracket(portfolio, severity.span, args.x)
            tails = list(zip(("tail-lower", "tail-upper"), bracket))
        for i, x in enumerate(args.x):
            compound = agg.tail(steps_within(x, severity.span))
            rows.extend((key, x, values[i], compound) for key, values in tails)

    return _render(["section", "key", "value", "extra"],
                   [row + ("",) * (4 - len(row)) for row in rows], args.format)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, mc: bool = True) -> None:
    parser.add_argument("--format", choices=["table", "csv"], default="table",
                        help="output format (csv is headerless, documented column order)")
    parser.add_argument("--span", type=_finite, default=None,
                        help="override the discretization span from the model file")
    if mc:
        parser.add_argument("--mc", action="store_true", help="add Monte Carlo estimates")
        parser.add_argument("--paths", type=int, default=None, help="override mc_paths")
        parser.add_argument("--seed", type=int, default=None, help="override mc_seed")
        parser.add_argument("--horizon", type=_finite, default=None, help="override mc_horizon")
        parser.add_argument("--workers", type=int, default=1, help="simulation worker threads")


def _finite(raw: str) -> float:
    """A finite number from the command line; argparse names the flag on error."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got '{raw}'") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got '{raw}'")
    return value


def _float_list(raw: str) -> list[float]:
    values = [_finite(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got '{raw}'")
    return values


@functools.cache  # built on the first call, not at import; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collrisk",
        description="Compound Poisson tails and ruin probabilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tail", help="approximations of P(S(t) >= t*x)")
    p.add_argument("model", help="model file")
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--x", type=_finite, required=True)
    _add_common(p)

    p = sub.add_parser("ruin", help="ruin probability r(u) by all applicable methods")
    p.add_argument("model", help="model file")
    p.add_argument("--u", type=_float_list, required=True, help="comma-separated capitals")
    p.add_argument("--record", action="store_true",
                   help="emit a flat key-value record instead of a table")
    _add_common(p)

    p = sub.add_parser("ruin-time", help="ruin-time scale, bounds and normal limit")
    p.add_argument("model", help="model file")
    p.add_argument("--u", type=_finite, required=True)
    p.add_argument("--t", type=_float_list, default=None,
                   help="time ratios (default: multiples of tbar)")
    p.add_argument("--absolute", dest="relative", action="store_false",
                   help="treat --t values as absolute ratios, not multiples of tbar")
    p.add_argument("--dump", default=None, metavar="FILE",
                   help="with --mc, write raw ruin-time samples to FILE, one per line")
    _add_common(p)

    p = sub.add_parser("seal", help="finite-time ruin probability r(u, t)")
    p.add_argument("model", help="model file")
    p.add_argument("--u", type=_finite, required=True)
    p.add_argument("--t", type=_finite, required=True)
    _add_common(p)

    p = sub.add_parser("portfolio", help="compound model from a policy file")
    p.add_argument("policies", help="two-column CSV: sum at risk, loss probability")
    p.add_argument("--x", type=_float_list, default=None, help="tail evaluation points")
    _add_common(p, mc=False)

    return parser


_COMMANDS = {"tail": cmd_tail, "ruin": cmd_ruin, "ruin-time": cmd_ruin_time, "seal": cmd_seal}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "portfolio":
            text = cmd_portfolio(args)
        else:
            spec = _apply_overrides(parse_model_file(args.model), args)
            text = _COMMANDS[args.command](spec, args)
    except CollRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
