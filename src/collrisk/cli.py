"""Command-line front end.

Reads a declarative model file, dispatches to the library, and writes
aligned text tables or headerless CSV (``--format csv``) with a documented
column order per command. All numeric output uses 12 significant digits
and runs are byte-identical for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
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
    esscher_tail_lattice,
    portfolio_exact_tail,
    portfolio_to_compound,
)
from .errors import (
    BudgetError,
    CollRiskError,
    ConvergenceError,
    DomainError,
    GridError,
    InsufficientRuinsError,
    LatticeSeverityError,
    LoadingError,
    NoRootError,
    ParseError,
    RootBracketError,
    SizeError,
    TailError,
)
from .lattice import panjer
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
    discretize,
)

logger = logging.getLogger(__name__)

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_BUDGET = 5

_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (ParseError, EXIT_PARSE),
    (ConvergenceError, EXIT_CONVERGENCE),
    (NoRootError, EXIT_CONVERGENCE),
    (RootBracketError, EXIT_CONVERGENCE),
    (BudgetError, EXIT_BUDGET),
    (InsufficientRuinsError, EXIT_BUDGET),
    (LoadingError, EXIT_DOMAIN),
    (DomainError, EXIT_DOMAIN),
    (GridError, EXIT_DOMAIN),
    (TailError, EXIT_DOMAIN),
    (SizeError, EXIT_DOMAIN),
    (LatticeSeverityError, EXIT_DOMAIN),
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


@dataclass(frozen=True)
class ModelSpec:
    system: RiskSystem
    controls: Controls


_TOP_KEYS = {
    "lambda",
    "premium_rate",
    "initial_capital",
    "span",
    "n_out",
    "mc_seed",
    "mc_paths",
    "mc_horizon",
}
_SEVERITY_KEYS = {"kind", "rate", "shape", "location", "weights", "rates", "span", "file"}


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"key '{key}': expected a number, got '{raw}'") from exc


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"key '{key}': expected an integer, got '{raw}'") from exc


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ParseError(f"key '{key}': expected comma-separated numbers, got '{raw}'") from exc


def _severity_from_block(block: dict[str, str], base_dir: Path) -> SeverityModel:
    kind = block.get("kind")
    if kind is None:
        raise ParseError("severity block needs a 'kind' key")

    def require(*keys: str) -> None:
        missing = [k for k in keys if k not in block]
        if missing:
            raise ParseError(f"severity kind '{kind}' needs keys: {', '.join(missing)}")
        extra = set(block) - {"kind", *keys}
        if extra:
            raise ParseError(
                f"severity kind '{kind}' does not accept keys: {', '.join(sorted(extra))}"
            )

    try:
        if kind == "exponential":
            require("rate")
            return Exponential(_parse_float("rate", block["rate"]))
        if kind == "gamma":
            require("shape")
            return Gamma(_parse_float("shape", block["shape"]))
        if kind == "point":
            require("location")
            return PointMass(_parse_float("location", block["location"]))
        if kind == "mixture":
            require("weights", "rates")
            return MixtureOfExponentials(
                _parse_float_list("weights", block["weights"]),
                _parse_float_list("rates", block["rates"]),
            )
        if kind == "lattice":
            require("span", "file")
            return _lattice_from_file(
                base_dir / block["file"], _parse_float("span", block["span"])
            )
    except DomainError as exc:
        raise ParseError(f"invalid severity parameters: {exc}") from exc
    raise ParseError(f"unknown severity kind '{kind}'")


def _lattice_from_file(path: Path, span: float) -> Lattice:
    if not path.exists():
        raise ParseError(f"lattice file not found: {path}")
    masses: dict[int, float] = {}
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{line_no}: expected two columns")
        point, mass = _parse_float("point", parts[0]), _parse_float("mass", parts[1])
        idx = round(point / span)
        if idx < 1 or abs(point - idx * span) > 1e-9 * max(1.0, point):
            raise ParseError(
                f"{path}:{line_no}: point {point} is not a positive multiple of span {span}"
            )
        if idx in masses:
            raise ParseError(f"{path}:{line_no}: duplicate point {point}")
        masses[idx] = mass
    if not masses:
        raise ParseError(f"{path}: no mass rows")
    arr = np.zeros(max(masses))
    for idx, mass in masses.items():
        arr[idx - 1] = mass
    total = arr.sum()
    if abs(total - 1.0) > 1e-9:
        raise ParseError(f"{path}: masses sum to {total!r}, not 1")
    if abs(total - 1.0) > 1e-12:
        logger.warning("lattice file %s: masses sum to %.17g, renormalizing", path, total)
        arr = arr / total
    return Lattice(span, tuple(arr))


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

    severity = _severity_from_block(sev_block, base_dir)
    try:
        system = RiskSystem(
            CompoundModel(_parse_float("lambda", top["lambda"]), severity),
            _parse_float("premium_rate", top["premium_rate"]),
            _parse_float("initial_capital", top.get("initial_capital", "0")),
        )
    except DomainError as exc:
        raise ParseError(f"invalid model parameters: {exc}") from exc

    controls = Controls(
        span=_parse_float("span", top["span"]) if "span" in top else Controls.span,
        n_out=_parse_int("n_out", top["n_out"]) if "n_out" in top else None,
        mc_seed=_parse_int("mc_seed", top["mc_seed"]) if "mc_seed" in top else Controls.mc_seed,
        mc_paths=(
            _parse_int("mc_paths", top["mc_paths"]) if "mc_paths" in top else Controls.mc_paths
        ),
        mc_horizon=(
            _parse_float("mc_horizon", top["mc_horizon"]) if "mc_horizon" in top else None
        ),
    )
    if controls.span <= 0:
        raise ParseError(f"span must be positive, got {controls.span}")
    return ModelSpec(system, controls)


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


def _apply_overrides(spec: ModelSpec, args: argparse.Namespace) -> ModelSpec:
    controls = spec.controls
    if getattr(args, "span", None) is not None:
        controls = replace(controls, span=args.span)
    if getattr(args, "seed", None) is not None:
        controls = replace(controls, mc_seed=args.seed)
    if getattr(args, "paths", None) is not None:
        controls = replace(controls, mc_paths=args.paths)
    if getattr(args, "horizon", None) is not None:
        controls = replace(controls, mc_horizon=args.horizon)
    return ModelSpec(spec.system, controls)


def _check_lattice_budget(controls: Controls, needed: int) -> None:
    # n_out caps how many lattice steps a command may compute
    if controls.n_out is not None and needed > controls.n_out:
        raise GridError(
            f"command needs {needed} lattice steps but n_out caps it at {controls.n_out}; "
            f"raise n_out or coarsen the span"
        )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_tail(spec: ModelSpec, args: argparse.Namespace, out) -> int:
    spec = _apply_overrides(spec, args)
    system, controls = spec.system, spec.controls
    model = system.model
    t, x = args.t, args.x
    rows: list[tuple] = []

    bound = chernoff_bound(model, t, x)
    rows.append(("chernoff", t, x, bound.bound, None, bound.side))

    mean_rate = model.mean_rate
    if abs(x - mean_rate) <= 1e-12 * max(1.0, mean_rate):
        rows.append(("esscher", t, x, None, None, "mean-rate: no positive tilt"))
    elif x < mean_rate:
        rows.append(("esscher", t, x, None, None, "below the mean rate"))
    elif model.severity.lattice_span is not None:
        tail = esscher_tail_lattice(model, t, x)
        note = "degenerate: a*sigma < 1" if tail.degenerate else "span-corrected"
        rows.append(("esscher", t, x, tail.value, None, note))
        rows.append(("esscher-explicit", t, x, tail.value_explicit, None, "modified prefactor"))
    else:
        tail = esscher_tail(model, t, x)
        note = "degenerate: a*sigma < 1" if tail.degenerate else "continuous"
        rows.append(("esscher", t, x, tail.value, None, note))
        rows.append(("esscher-explicit", t, x, tail.value_explicit, None, "expanded prefactor"))

    span = model.severity.lattice_span
    note = "exact"
    if span is None:
        span = controls.span
        note = f"discretized (d={span:g})"
    _check_lattice_budget(controls, int(math.ceil(t * x / span)))
    # P(S(t) >= t*x) is the tail above the last cell below t*x
    m_star = int(math.ceil(t * x / span - 1e-9))
    agg = panjer(model.rate * t, discretize(model.severity, span), max(m_star, 1))
    rows.append(("panjer", t, x, agg.tail(m_star - 1), None, note))

    if args.mc:
        plan = montecarlo.SimulationPlan(
            system=system,
            horizon=t,
            n_paths=controls.mc_paths,
            seed=controls.mc_seed,
            tail_probes=((t, x),),
            workers=args.workers,
        )
        result = montecarlo.simulate(plan)
        est = result.estimates[f"tail(t={t:g};x={x:g})"]
        rows.append(("monte-carlo", t, x, est.value, est.std_error, f"n={est.n_effective}"))

    out.write(_render(["method", "t", "x", "value", "std_error", "note"], rows, args.format))
    return 0


@dataclass(frozen=True)
class RuinEstimate:
    """One ruin-probability figure with its provenance."""

    method: str
    u: float
    t: float | None
    value: float
    error: float | None = None


@dataclass
class RuinReport:
    """Adjustment-coefficient constants plus per-method ruin estimates."""

    solution: LundbergSolution | None
    entries: list[RuinEstimate]


def ruin_report_record(report: RuinReport) -> str:
    """Flat key-value serialization of a ruin report."""
    lines = []
    if report.solution is not None:
        sol = report.solution
        lines.append(f"R = {sol.R:.12g}")
        lines.append(f"C = {sol.constant:.12g}")
        lines.append(f"tbar = {sol.time_scale:.12g}")
        lines.append(f"sigma_sq = {sol.sigma_sq:.12g}")
    for entry in report.entries:
        key = f"r(u={entry.u:.12g}"
        if entry.t is not None:
            key += f"; t={entry.t:.12g}"
        key += f"; method={entry.method})"
        value = f"{entry.value:.12g}"
        if entry.error is not None:
            value += f" +- {entry.error:.12g}"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def ruin_report_rows(report: RuinReport) -> list[tuple]:
    """The (method, u, t, value, error) row view of a ruin report."""
    return [(e.method, e.u, e.t, e.value, e.error) for e in report.entries]


def build_ruin_report(
    system: RiskSystem,
    controls: Controls,
    u_list: list[float],
    mc: bool = False,
    workers: int = 1,
) -> RuinReport:
    entries: list[RuinEstimate] = []
    span = controls.span
    _check_lattice_budget(controls, int(math.ceil(max(u_list) / span)) + 1)
    curve = ruin_panjer(system, span, max(u_list))
    for u in u_list:
        entries.append(RuinEstimate("panjer-recursion", u, None, curve.value(u)))

    sol = lundberg(system)
    for u in u_list:
        cl = cramer_lundberg_approx(system, u)
        entries.append(RuinEstimate("cramer-lundberg", u, None, cl.value))
        entries.append(RuinEstimate("lundberg-bound", u, None, cl.bound))

    if system.model.severity.as_mixture() is not None:
        for u in u_list:
            entries.append(
                RuinEstimate("mixture-exact", u, None, mixture_exact(system, u).value)
            )

    if mc:
        horizon = controls.mc_horizon
        if horizon is None:
            horizon = 5.0 * max(u_list) * sol.time_scale
        plan = montecarlo.SimulationPlan(
            system=system,
            horizon=horizon,
            n_paths=controls.mc_paths,
            seed=controls.mc_seed,
            ruin_levels=tuple(u_list),
            workers=workers,
        )
        result = montecarlo.simulate(plan)
        for u in u_list:
            est = result.estimates[f"ruin(u={u:g})"]
            entries.append(
                RuinEstimate("monte-carlo", u, horizon, est.value, est.std_error)
            )
    return RuinReport(sol, entries)


def cmd_ruin(spec: ModelSpec, args: argparse.Namespace, out) -> int:
    spec = _apply_overrides(spec, args)
    system, controls = spec.system, spec.controls
    u_list = args.u
    header = ["method", "u", "t", "value", "error"]

    if system.loading <= 0.0:
        if args.record:
            out.write(ruin_report_record(RuinReport(None, [RuinEstimate("certain", min(u_list), None, 1.0)])))
        else:
            out.write(_render(header, [("certain", None, None, 1.0, None)], args.format))
        return 0

    report = build_ruin_report(system, controls, u_list, mc=args.mc, workers=args.workers)
    if args.record:
        out.write(ruin_report_record(report))
    else:
        out.write(_render(header, ruin_report_rows(report), args.format))
    return 0


def cmd_ruin_time(spec: ModelSpec, args: argparse.Namespace, out) -> int:
    spec = _apply_overrides(spec, args)
    system, controls = spec.system, spec.controls
    u = args.u
    sol = lundberg(system)
    ratios = args.t if args.t else [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
    header = ["quantity", "u", "t", "value", "error"]
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
            horizon = 5.0 * u * sol.time_scale
        plan = montecarlo.SimulationPlan(
            system=system,
            horizon=horizon,
            n_paths=controls.mc_paths,
            seed=controls.mc_seed,
            collect_ruin_times=u,
            workers=args.workers,
        )
        study = montecarlo.ruin_time_samples(plan)
        if args.dump is not None:
            Path(args.dump).write_text(montecarlo.ruin_times_text(study.times))
        rows.append(("mc-ruin-frequency", u, horizon, study.ruin_frequency.value,
                     study.ruin_frequency.std_error))
        rows.append(("mc-ruin-time-mean", u, horizon, study.mean, study.mean_se))
        rows.append(("mc-ruin-time-variance", u, horizon, study.variance, None))
        if study.pre_asymptotic:
            rows.append(("mc-flag", u, horizon, None, None))

    out.write(_render(header, rows, args.format))
    return 0


def cmd_seal(spec: ModelSpec, args: argparse.Namespace, out) -> int:
    spec = _apply_overrides(spec, args)
    controls = spec.controls
    system = RiskSystem(spec.system.model, spec.system.premium_rate, args.u)
    t = args.t
    sev = system.model.severity
    # a true lattice severity fixes the span; point masses discretize exactly
    span = None if sev.as_distribution() is not None else controls.span
    effective = sev.lattice_span if span is None else span
    _check_lattice_budget(
        controls, int(math.ceil((args.u + system.premium_rate * t) / effective))
    )
    result = seal(system, t, d=span)
    header = ["method", "u", "t", "value", "error"]
    rows: list[tuple] = [
        ("seal", args.u, t, result.value, None),
        ("seal-beyond-horizon", args.u, t, result.beyond, None),
        ("seal-crossings", args.u, t, result.crossings, None),
    ]
    if args.u == 0.0:
        d = result.span
        # cover c*t even when it falls between lattice points
        n_top = int(math.ceil(system.premium_rate * t / d - 1e-9))
        agg = panjer(system.model.rate * t, discretize(sev, d), max(n_top, 1))
        check = 1.0 - non_ruin_zero(system, t, agg)
        rows.append(("one-minus-non-ruin-zero", 0.0, t, check, None))

    if args.mc:
        plan = montecarlo.SimulationPlan(
            system=system,
            horizon=t,
            n_paths=controls.mc_paths,
            seed=controls.mc_seed,
            ruin_levels=(args.u,),
            workers=args.workers,
        )
        est = montecarlo.simulate(plan).estimates[f"ruin(u={args.u:g})"]
        rows.append(("monte-carlo", args.u, t, est.value, est.std_error))

    out.write(_render(header, rows, args.format))
    return 0


def _parse_policies(path: Path) -> Portfolio:
    if not path.exists():
        raise ParseError(f"policy file not found: {path}")
    policies = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{line_no}: expected 'sum_at_risk, probability'")
        try:
            policies.append(Policy(float(parts[0]), float(parts[1])))
        except (ValueError, DomainError) as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
    if not policies:
        raise ParseError(f"{path}: no policy rows")
    return Portfolio(tuple(policies))


def cmd_portfolio(args: argparse.Namespace, out) -> int:
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
    for idx, mass in enumerate(severity.masses, start=1):
        if mass > 0.0:
            rows.append(("atom", idx * severity.span, mass))

    xs = args.x if args.x else []
    if xs:
        lattice = severity.as_distribution()
        n_out = max(int(math.ceil(max(xs) / severity.span)) + 1, 1)
        agg = panjer(model.rate, lattice, n_out)
        for x in xs:
            exact = portfolio_exact_tail(portfolio, x)
            m = int(math.floor(x / severity.span + 1e-9))
            rows.append(("tail", x, exact, agg.tail(m)))

    out.write(_render(["section", "key", "value", "extra"],
                      [row + ("",) * (4 - len(row)) for row in rows], args.format))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, mc: bool = True) -> None:
    parser.add_argument("--format", choices=["table", "csv"], default="table",
                        help="output format (csv is headerless, documented column order)")
    parser.add_argument("--span", type=float, default=None,
                        help="override the discretization span from the model file")
    if mc:
        parser.add_argument("--mc", action="store_true", help="add Monte Carlo estimates")
        parser.add_argument("--paths", type=int, default=None, help="override mc_paths")
        parser.add_argument("--seed", type=int, default=None, help="override mc_seed")
        parser.add_argument("--horizon", type=float, default=None, help="override mc_horizon")
        parser.add_argument("--workers", type=int, default=1, help="simulation worker threads")


def _float_list(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got '{raw}'") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collrisk",
        description="Compound Poisson tails and ruin probabilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tail", help="approximations of P(S(t) >= t*x)")
    p.add_argument("model", help="model file")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("ruin", help="ruin probability r(u) by all applicable methods")
    p.add_argument("model", help="model file")
    p.add_argument("--u", type=_float_list, required=True, help="comma-separated capitals")
    p.add_argument("--record", action="store_true",
                   help="emit a flat key-value record instead of a table")
    _add_common(p)

    p = sub.add_parser("ruin-time", help="ruin-time scale, bounds and normal limit")
    p.add_argument("model", help="model file")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--t", type=_float_list, default=None,
                   help="time ratios (default: multiples of tbar)")
    p.add_argument("--absolute", dest="relative", action="store_false",
                   help="treat --t values as absolute ratios, not multiples of tbar")
    p.add_argument("--dump", default=None, metavar="FILE",
                   help="with --mc, write raw ruin-time samples to FILE, one per line")
    _add_common(p)

    p = sub.add_parser("seal", help="finite-time ruin probability r(u, t)")
    p.add_argument("model", help="model file")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("portfolio", help="compound model from a policy file")
    p.add_argument("policies", help="two-column CSV: sum at risk, loss probability")
    p.add_argument("--x", type=_float_list, default=None, help="tail evaluation points")
    _add_common(p, mc=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "portfolio":
            return cmd_portfolio(args, out)
        spec = parse_model_file(args.model)
        if args.command == "tail":
            return cmd_tail(spec, args, out)
        if args.command == "ruin":
            return cmd_ruin(spec, args, out)
        if args.command == "ruin-time":
            return cmd_ruin_time(spec, args, out)
        if args.command == "seal":
            return cmd_seal(spec, args, out)
        raise ParseError(f"unknown command {args.command}")
    except CollRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
