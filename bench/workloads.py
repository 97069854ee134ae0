"""The benchmark's workloads: model files, query lists and answer checks.

The benchmark runs two workloads, each made of two parts that send their
queries one after the other in every pass (see ``WORKLOADS``):
``lattice-ruin`` is LatticeDeep then FiniteTime, ``mc-analytic`` is
MonteCarloOracle then AnalyticGrid.

A part writes its model files when it is built and then builds one
pass of queries at a time. The parameters of pass ``p`` come from a
generator keyed by (workload seed, part number, p), so they change from pass to pass
while each pass keeps the same make-up: the same query kinds in the same
order, at the same cost within a few percent. The known-fault queries are
fixed and run in every pass.

Each answer is checked against ``oracles`` (closed forms and series that
do not touch collrisk) or against a property the method must have; never
against recorded output.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# Model constants shared by the CLI model files and the checks.
LAM, RATE, PREMIUM = 1.0, 1.0, 1.25  # Poisson rate, Exp claim rate, premium
SPAN = 0.01
GAMMA_SHAPE, GAMMA_PREMIUM = 2.5, 3.0
TAIL_TOL = 1e-10  # discretize's default truncation tolerance
MC_SIGMAS = 5.0


@dataclass(frozen=True)
class Fault:
    """A program fault that a fixed query shows in every pass.

    ``checks`` names the sub-checks the fault makes fail. Any other
    problem of the query's answer, an exception or an exit code
    included, is a wrong answer like on any other query.
    """

    cause: str
    checks: tuple[str, ...]

    def explains(self, problem: str) -> bool:
        return problem.partition(":")[0] in self.checks


@dataclass
class Query:
    """One closed-loop request: ``run`` is timed, ``check`` is not."""

    qid: str
    via: str  # "cli" for collrisk.cli.main calls, "library" for direct calls
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    fault: Fault | None = None  # the program fault this fixed query shows


class Checks:
    """Collects the problems found in one answer."""

    def __init__(self):
        self.problems: list[str] = []

    def true(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)

    def close(self, what: str, got, want: float, rtol: float, atol: float = 0.0) -> None:
        if got is None or not abs(got - want) <= rtol * abs(want) + atol:
            self.problems.append(f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})")

    def within(self, what: str, got, lo: float, hi: float) -> None:
        if got is None or not lo <= got <= hi:
            self.problems.append(f"{what}: got {got!r}, want within [{lo!r}, {hi!r}]")

    def sampled(self, what: str, got, want: float, n: int) -> None:
        """A Monte Carlo frequency within MC_SIGMAS standard errors of want."""
        se = math.sqrt(want * (1.0 - want) / n)
        self.within(what, got, want - MC_SIGMAS * se, want + MC_SIGMAS * se)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def cli_query(lib, qid: str, argv: list[str], check, fault: Fault | None = None) -> Query:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return Query(qid, "cli", run, check, fault)


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def csv_rows(answer, chk: Checks) -> dict[str, list[list]]:
    """CSV rows grouped by their first column, in output order."""
    code, out, err = answer
    chk.true(code == 0, f"exit code {code}: {err.strip()}")
    rows: dict[str, list[list]] = {}
    for line in out.splitlines():
        cells = [_cell(c) for c in line.split(",")]
        rows.setdefault(cells[0], []).append(cells)
    return rows


def take(rows: dict, key: str, count: int, chk: Checks) -> list[list]:
    got = rows.get(key, [])
    chk.true(len(got) == count, f"expected {count} '{key}' rows, got {len(got)}")
    return got if len(got) == count else []


def write_model(path: Path, severity: str, premium: float) -> Path:
    path.write_text(
        f"lambda = {LAM}\npremium_rate = {premium}\nseverity {{\n{severity}}}\nspan = {SPAN}\n"
    )
    return path


def _grid(rng, lo: float, hi: float, step: float) -> str:
    """A value on the decimal grid lo, lo+step, ..., hi, as the CLI will read it."""
    k = int(rng.integers(0, round((hi - lo) / step) + 1))
    decimals = len(f"{step:g}".partition(".")[2])
    return f"{lo + k * step:.{decimals}f}"


# ---------------------------------------------------------------------------
# Checks shared by the CLI workloads (Exp(1) claims, lambda = 1, c = 1.25)
# ---------------------------------------------------------------------------

RUIN_RTOL = 1e-5  # lattice ruin curve vs its geometric closed form, u <= 120
TAIL_RTOL = 1e-6  # lattice tails keep six digits of relative accuracy


def check_ruin(capitals, horizon=None, paths=None):
    def check(answer):
        chk = Checks()
        rows = csv_rows(answer, chk)
        r_adj = RATE - LAM / PREMIUM
        for row, u in zip(take(rows, "panjer-recursion", len(capitals), chk), capitals):
            want = oracles.lattice_exponential_ruin(LAM, RATE, PREMIUM, SPAN, u)
            chk.close(f"panjer-recursion r({u})", row[3], want, RUIN_RTOL)
        for row, u in zip(take(rows, "cramer-lundberg", len(capitals), chk), capitals):
            chk.close(f"cramer-lundberg r({u})", row[3],
                      oracles.exponential_ruin(LAM, RATE, PREMIUM, u), 1e-10)
        for row, u in zip(take(rows, "lundberg-bound", len(capitals), chk), capitals):
            chk.close(f"lundberg-bound r({u})", row[3], math.exp(-r_adj * u), 1e-10)
        for row, u in zip(take(rows, "mixture-exact", len(capitals), chk), capitals):
            chk.close(f"mixture-exact r({u})", row[3],
                      oracles.exponential_ruin(LAM, RATE, PREMIUM, u), 1e-10)
        if horizon is not None:
            for row, u in zip(take(rows, "monte-carlo", len(capitals), chk), capitals):
                want = oracles.prabhu_ruin(LAM, RATE, PREMIUM, u, horizon)
                chk.sampled(f"monte-carlo r({u}, {horizon})", row[3], want, paths)
        return chk.problems

    return check


def _check_chernoff_esscher(rows, chk: Checks, t: float, h: float) -> None:
    chernoff = math.exp(-t * h)
    for row in take(rows, "chernoff", 1, chk):
        chk.close("chernoff", row[3], chernoff, 1e-9)
    ess = take(rows, "esscher", 1, chk)
    explicit = take(rows, "esscher-explicit", 1, chk)
    if ess and explicit:
        value = ess[0][3]
        chk.within("esscher", value, 1e-300, explicit[0][3] * (1.0 + 1e-9))
        if ess[0][5] == "continuous":  # E(s) <= 1/2 for the continuous prefactor
            chk.within("esscher", value, 1e-300, 0.5 * chernoff * (1.0 + 1e-9))


def check_tail_exponential(t: float, x: float):
    def check(answer):
        chk = Checks()
        rows = csv_rows(answer, chk)
        _check_chernoff_esscher(rows, chk, t, oracles.entropy_exponential(LAM, RATE, x)[0])
        m = math.ceil(t * x / SPAN - 1e-9)
        exact = oracles.polya_aeppli_tail(LAM * t, RATE, SPAN, m)
        # truncating the severity at TAIL_TOL can only lower the tail, by at most E[N]*TAIL_TOL
        lower = (exact - LAM * t * TAIL_TOL) * (1.0 - TAIL_RTOL)
        for row in take(rows, "panjer", 1, chk):
            chk.within("panjer tail", row[3], lower, exact * (1.0 + TAIL_RTOL))
            chk.within("panjer tail vs discrete Chernoff", row[3], 0.0,
                       oracles.chernoff_geometric(LAM, RATE, SPAN, t, x) * (1.0 + 1e-9))
        return chk.problems

    return check


def check_tail_point(t: float, x: float):
    def check(answer):
        chk = Checks()
        rows = csv_rows(answer, chk)
        _check_chernoff_esscher(rows, chk, t, oracles.entropy_point(LAM, 1.0, x)[0])
        want = oracles.poisson_tail(LAM * t, math.ceil(t * x - 1e-9))
        for row in take(rows, "panjer", 1, chk):
            chk.close("panjer tail vs Poisson", row[3], want, TAIL_RTOL)
        return chk.problems

    return check


def check_tail_gamma(t: float, x: float, paths: int):
    def check(answer):
        chk = Checks()
        rows = csv_rows(answer, chk)
        _check_chernoff_esscher(rows, chk, t, oracles.entropy_gamma(LAM, GAMMA_SHAPE, x)[0])
        target = t * x
        m = math.ceil(target / SPAN - 1e-9)
        # rounded claims lie in [X, X + d]: bracket the lattice tail at m*d
        lo = oracles.compound_gamma_tail(LAM * t, GAMMA_SHAPE, m * SPAN)
        hi = oracles.compound_gamma_tail(LAM * t, GAMMA_SHAPE, m * SPAN, shift=SPAN)
        for row in take(rows, "panjer", 1, chk):
            chk.within("panjer tail", row[3], (lo - LAM * t * TAIL_TOL) * (1.0 - TAIL_RTOL),
                       hi * (1.0 + TAIL_RTOL))
        exact = oracles.compound_gamma_tail(LAM * t, GAMMA_SHAPE, target)
        for row in take(rows, "monte-carlo", 1, chk):
            chk.sampled("monte-carlo tail", row[3], exact, paths)
        return chk.problems

    return check


# ---------------------------------------------------------------------------
# lattice-deep
# ---------------------------------------------------------------------------

POLICY_FILES = 4
POLICIES = 20


class LatticeDeep:
    """Long lattice recursions through `ruin` and `tail`, plus short
    point-mass `tail` and 20-policy `portfolio` queries.

    Per pass: 28 long queries (compound_geometric to 10-25k cells, panjer
    to 4.5-20k cells over the 2,304-cell Exp(1) severity), 20 portfolio
    queries and 26 point-mass tails. With FiniteTime's four dearer queries
    after them, the counts put the median query of a pass inside the
    portfolio class, away from both class edges.
    """

    long_ruin, long_tail, portfolios, point_tails = 13, 13, 20, 25

    def __init__(self, lib, workdir: Path, seed: tuple[int, int]):
        self.lib, self.seed = lib, seed
        self.exp_model = str(write_model(
            workdir / "exp.model", f"kind = exponential\nrate = {RATE}\n", PREMIUM))
        self.point_model = str(write_model(
            workdir / "point.model", "kind = point\nlocation = 1.0\n", PREMIUM))
        rng = np.random.default_rng([*seed, 1 << 20])
        self.policy_files = []
        for i in range(POLICY_FILES):
            units = [int(k) for k in rng.integers(1, 11, POLICIES)]  # sums at risk 0.5..5
            probs = [f"{p:.6f}" for p in rng.uniform(0.001, 0.05, POLICIES)]
            path = workdir / f"policies-{i}.csv"
            path.write_text("".join(f"{0.5 * k:g}, {p}\n" for k, p in zip(units, probs)))
            self.policy_files.append((str(path), units, [float(p) for p in probs]))

    def queries(self, index: int) -> list[Query]:
        lib, rng = self.lib, np.random.default_rng([*self.seed, index])
        qs = [
            cli_query(lib, "ruin-deep", ["ruin", self.exp_model, "--u", "200,250",
                                         "--format", "csv"], check_ruin([200.0, 250.0]),
                      fault=Fault("compound_geometric's upper tail is 1 - sum(masses): "
                                  "r(200), r(250) print 0",
                                  ("panjer-recursion r(200.0)", "panjer-recursion r(250.0)"))),
            cli_query(lib, "tail-deep", ["tail", self.exp_model, "--t", "50", "--x", "4",
                                         "--format", "csv"], check_tail_exponential(50.0, 4.0),
                      fault=Fault("_tails_from_masses' running subtraction: P(S(50) >= 200) "
                                  "prints 3.1e-15, above its Chernoff bound",
                                  ("panjer tail", "panjer tail vs discrete Chernoff"))),
            cli_query(lib, "tail-point-deep", ["tail", self.point_model, "--t", "30", "--x", "3",
                                               "--format", "csv"], check_tail_point(30.0, 3.0),
                      fault=Fault("_tails_from_masses' running subtraction: P(N >= 90) prints "
                                  "4.9e-16 against 8.2e-19", ("panjer tail vs Poisson",))),
        ]
        for _ in range(self.long_ruin):
            top = _grid(rng, 100.0, 120.0, 0.01)
            caps = [_grid(rng, 1.0, 99.0, 0.01), _grid(rng, 1.0, 99.0, 0.01), top]
            qs.append(cli_query(lib, "ruin", ["ruin", self.exp_model, "--u", ",".join(caps),
                                              "--format", "csv"],
                                check_ruin([float(c) for c in caps])))
        for _ in range(self.long_tail):
            t, x = _grid(rng, 30.0, 50.0, 0.1), _grid(rng, 1.5, 2.0, 0.01)
            qs.append(cli_query(lib, "tail", ["tail", self.exp_model, "--t", t, "--x", x,
                                              "--format", "csv"],
                                check_tail_exponential(float(t), float(x))))
        for _ in range(self.portfolios):
            path, units, probs = self.policy_files[int(rng.integers(0, POLICY_FILES))]
            xs = sorted({_grid(rng, 0.25, 4.0, 0.05) for _ in range(3)}, key=float)
            qs.append(cli_query(lib, "portfolio", ["portfolio", path, "--x", ",".join(xs),
                                                   "--span", str(SPAN), "--format", "csv"],
                                check_portfolio(units, probs, [float(x) for x in xs])))
        for _ in range(self.point_tails):
            t, x = _grid(rng, 10.0, 30.0, 0.1), _grid(rng, 1.1, 1.8, 0.01)
            qs.append(cli_query(lib, "tail-point", ["tail", self.point_model, "--t", t,
                                                    "--x", x, "--format", "csv"],
                                check_tail_point(float(t), float(x))))
        return qs


def check_portfolio(units: list[int], probs: list[float], xs: list[float]):
    def check(answer):
        chk = Checks()
        rows = csv_rows(answer, chk)
        rates = [-math.log1p(-p) for p in probs]
        summary = {row[1]: row[2] for row in rows.get("summary", [])}
        chk.close("lambda", summary.get("lambda"), math.fsum(rates), 1e-10)
        chk.close("sum-p-squared", summary.get("sum-p-squared"),
                  math.fsum(p * p for p in probs), 1e-10)
        chk.close("policies", summary.get("policies"), float(len(probs)), 0.0)
        atoms: dict[float, float] = {}
        for k, rate in zip(units, rates):
            atoms[0.5 * k] = atoms.get(0.5 * k, 0.0) + rate / math.fsum(rates)
        got = {row[1]: row[2] for row in rows.get("atom", [])}
        chk.true(sorted(got) == sorted(atoms), f"atoms at {sorted(got)}, want {sorted(atoms)}")
        for at, mass in atoms.items():
            chk.close(f"atom {at}", got.get(at), mass, 1e-10)
        # the printed approximation-bound row is not checked; see bench/README.md
        gap = oracles.poisson_approximation_gap(probs)
        want = oracles.portfolio_tails(units, probs, 0.5, xs)
        for row, x in zip(take(rows, "tail", len(xs), chk), xs):
            exact, compound = want[x]
            chk.close(f"exact P(L > {x})", row[2], exact, 1e-9, 1e-15)
            chk.close(f"compound P(S > {x})", row[3], compound, TAIL_RTOL)
            chk.true(abs(row[2] - row[3]) <= gap + 1e-12,
                     f"|exact - compound| at {x} exceeds the Poisson approximation gap {gap}")
        return chk.problems

    return check


# ---------------------------------------------------------------------------
# finite-time
# ---------------------------------------------------------------------------

FINITE_TIME_RTOL = 0.02  # lattice rounding moves seal and hitting by under 1% at d <= 0.02
HIT_PREMIUM = 0.8


class FiniteTime:
    """`seal` and `hitting_below` at the four fixed points, jittered per pass.

    Per pass, once each: seal (u=2, t=4, d=0.01), seal (u=0, t=8,
    d=0.02), and hitting_below (c=0.8) at (u=2, t=6, d=0.01) and (u=1,
    t=10, d=0.02).
    """

    def __init__(self, lib, workdir: Path, seed: tuple[int, int]):
        self.lib, self.seed = lib, seed
        self.exp_model = str(write_model(
            workdir / "exp.model", f"kind = exponential\nrate = {RATE}\n", PREMIUM))

    def _seal(self, u: str, t: str, d: str) -> Query:
        argv = ["seal", self.exp_model, "--u", u, "--t", t, "--span", d, "--format", "csv"]
        return cli_query(self.lib, f"seal-d{d}", argv, check_seal(float(u), float(t)))

    def _hitting(self, u: str, t: str, d: str) -> Query:
        lib, u_, t_, d_ = self.lib, float(u), float(t), float(d)

        def run():
            model = lib.cumulant.CompoundModel(LAM, lib.severity.Exponential(RATE))
            system = lib.ruin.RiskSystem(model, HIT_PREMIUM, 0.0)
            return lib.ruin.hitting_below(system, u_, t=t_, d=d_)

        return Query(f"hitting-d{d}", "library", run, check_hitting(u_, t_))

    def queries(self, index: int) -> list[Query]:
        rng = np.random.default_rng([*self.seed, index])
        return [
            self._seal(_grid(rng, 1.95, 2.05, 0.01), _grid(rng, 3.95, 4.05, 0.01), "0.01"),
            # c*t on the span's lattice: `seal --u 0` fails otherwise (see README)
            self._seal("0", _grid(rng, 7.904, 8.096, 0.016), "0.02"),
            self._hitting(_grid(rng, 1.95, 2.05, 0.01), _grid(rng, 5.95, 6.05, 0.01), "0.01"),
            self._hitting(_grid(rng, 0.95, 1.05, 0.01), _grid(rng, 9.9, 10.1, 0.02), "0.02"),
        ]


def check_seal(u: float, t: float):
    def check(answer):
        chk = Checks()
        rows = csv_rows(answer, chk)
        prabhu = oracles.prabhu_ruin(LAM, RATE, PREMIUM, u, t)
        value = [r[3] for r in take(rows, "seal", 1, chk)]
        beyond = [r[3] for r in take(rows, "seal-beyond-horizon", 1, chk)]
        crossings = [r[3] for r in take(rows, "seal-crossings", 1, chk)]
        if value and beyond and crossings:
            # right-endpoint rounding enlarges claims, so seal lies above psi(u, t)
            chk.within(f"seal psi({u}, {t})", value[0], prabhu,
                       prabhu * (1.0 + FINITE_TIME_RTOL))
            chk.close("seal = beyond + crossings", value[0], beyond[0] + crossings[0], 1e-10)
            if u == 0.0:
                for row in take(rows, "one-minus-non-ruin-zero", 1, chk):
                    chk.close("1 - non-ruin at zero", row[3], value[0], 1e-9)
        return chk.problems

    return check


def check_hitting(u: float, t: float):
    def check(result):
        chk = Checks()
        root = RATE - LAM / HIT_PREMIUM
        chk.close("negative adjustment coefficient", result.root, root, 1e-12)
        chk.close("hitting probability", result.value,
                  oracles.exponential_hitting_limit(LAM, RATE, HIT_PREMIUM, u), 1e-12)
        kendall = oracles.kendall_hitting(LAM, RATE, HIT_PREMIUM, u, t)
        # rounded-up claims make the downward passage harder, so the lattice value lies below
        chk.within(f"hitting by {t} vs Kendall", result.value_by_t,
                   kendall * (1.0 - FINITE_TIME_RTOL), kendall)
        return chk.problems

    return check


# ---------------------------------------------------------------------------
# mc-oracle
# ---------------------------------------------------------------------------

RUIN_PATHS, RUIN_HORIZON = 100_000, 100.0
TIME_PATHS, TIME_U, TIME_HORIZON = 40_000, 20.0, 320.0
GAMMA_PATHS, GAMMA_T = 200_000, 10.0


class MonteCarloOracle:
    """`ruin --mc`, `ruin-time --mc` and Gamma(2.5) `tail --mc`, one worker each.

    About 1e7, 1.3e7 and 2e6 simulated claims per query. The Exp(1)
    queries spend their time in the path scan, the Gamma query in the
    inversion sampler.
    """

    def __init__(self, lib, workdir: Path, seed: tuple[int, int]):
        self.lib, self.seed = lib, seed
        self.exp_model = str(write_model(
            workdir / "exp.model", f"kind = exponential\nrate = {RATE}\n", PREMIUM))
        self.gamma_model = str(write_model(
            workdir / "gamma.model", f"kind = gamma\nshape = {GAMMA_SHAPE}\n", GAMMA_PREMIUM))
        self._time_mean = None

    def time_mean(self) -> float:
        if self._time_mean is None:
            self._time_mean = oracles.conditional_mean_ruin_time(
                LAM, RATE, PREMIUM, TIME_U, TIME_HORIZON)
        return self._time_mean

    def queries(self, index: int) -> list[Query]:
        lib, rng = self.lib, np.random.default_rng([*self.seed, index])
        seeds = [str(int(s)) for s in rng.integers(1, 2**31, 3)]
        caps = [_grid(rng, 2.0, 8.0, 0.01) for _ in range(2)]
        x = _grid(rng, 3.5, 4.5, 0.01)
        common = ["--workers", "1", "--format", "csv"]
        return [
            cli_query(lib, "ruin-mc", ["ruin", self.exp_model, "--u", ",".join(caps), "--mc",
                                       "--horizon", f"{RUIN_HORIZON:g}", "--paths",
                                       str(RUIN_PATHS), "--seed", seeds[0], *common],
                      check_ruin([float(c) for c in caps], RUIN_HORIZON, RUIN_PATHS)),
            cli_query(lib, "ruin-time-mc", ["ruin-time", self.exp_model, "--u", f"{TIME_U:g}",
                                            "--mc", "--horizon", f"{TIME_HORIZON:g}", "--paths",
                                            str(TIME_PATHS), "--seed", seeds[1], *common],
                      check_ruin_time(self.time_mean)),
            cli_query(lib, "tail-gamma-mc", ["tail", self.gamma_model, "--t", f"{GAMMA_T:g}",
                                             "--x", x, "--mc", "--paths", str(GAMMA_PATHS),
                                             "--seed", seeds[2], *common],
                      check_tail_gamma(GAMMA_T, float(x), GAMMA_PATHS)),
        ]


def check_ruin_time(time_mean: Callable[[], float]):
    def check(answer):
        chk = Checks()
        rows = csv_rows(answer, chk)
        cu = oracles.Cumulant(LAM, "exponential", (RATE,))
        r_adj = RATE - LAM / PREMIUM
        tbar = 1.0 / (cu.g1(r_adj) - PREMIUM)
        sigma_sq = cu.g2(r_adj)
        want = {"R": r_adj, "C": LAM / (RATE * PREMIUM), "tbar": tbar, "sigma-sq": sigma_sq,
                "clt-mean": TIME_U * tbar, "clt-variance": TIME_U * tbar**3 * sigma_sq}
        for key, value in want.items():
            for row in take(rows, key, 1, chk):
                chk.close(key, row[3], value, 1e-10)
        for side in ("early", "late"):
            for h_row, b_row in zip(rows.get(f"H-{side}", []), rows.get(f"bound-{side}", [])):
                t = h_row[2]
                chk.true((t <= tbar) == (side == "early"), f"H-{side} at t={t}, tbar={tbar}")
                h = t * oracles.entropy_exponential(LAM, RATE, PREMIUM + 1.0 / t)[0]
                chk.close(f"H({t})", h_row[3], h, 1e-9)
                chk.close(f"bound({t})", b_row[3], math.exp(-TIME_U * h), 1e-9)
        chk.true(len(rows.get("H-early", [])) + len(rows.get("H-late", [])) == 6,
                 "expected six finite-time bound rows")
        psi = oracles.prabhu_ruin(LAM, RATE, PREMIUM, TIME_U, TIME_HORIZON)
        for row in take(rows, "mc-ruin-frequency", 1, chk):
            chk.sampled("ruin frequency by the horizon", row[3], psi, TIME_PATHS)
        for row in take(rows, "mc-ruin-time-mean", 1, chk):
            mean = time_mean()
            chk.true(row[4] is not None and row[4] > 0.0, "ruin-time mean has no error")
            if row[4]:
                chk.within("E[T | T <= horizon]", row[3], mean - MC_SIGMAS * row[4],
                           mean + MC_SIGMAS * row[4])
        return chk.problems

    return check


# ---------------------------------------------------------------------------
# analytic-grid
# ---------------------------------------------------------------------------

# Bundles per group of ten, by claim kind. Exponential, Gamma and point-mass
# bundles cost 0.15-0.25 ms and make up 80% of the queries, so the median
# query sits inside that class; mixture and lattice bundles cost 2-3 ms.
KIND_MIX = ("exponential",) * 3 + ("gamma",) * 3 + ("point",) * 2 + ("mixture", "lattice")
GROUPS_PER_PASS = 200
LATTICE_CELLS, LATTICE_SPAN = 40, 0.25


def _claim_mean(kind: str, params: tuple) -> float:
    """Mean claim size, from the drawn parameters (Gamma claims have unit scale)."""
    if kind == "exponential":
        return 1.0 / params[0]
    if kind in ("gamma", "point"):
        return params[0]
    if kind == "mixture":
        return math.fsum(w / b for w, b in zip(*params))
    span, masses = params
    return span * math.fsum(n * m for n, m in enumerate(masses, start=1))


def _make_severity(sev, kind: str, params: tuple):
    if kind == "exponential":
        return sev.Exponential(*params)
    if kind == "gamma":
        return sev.Gamma(*params)
    if kind == "point":
        return sev.PointMass(*params)
    if kind == "mixture":
        return sev.MixtureOfExponentials(*params)
    return sev.Lattice(*params)


class AnalyticGrid:
    """Library bundles over five claim kinds: entropy, Chernoff, Esscher,
    Lundberg, the mixture solution, the finite-time bound and the
    ruin-time normal limit at one drawn parameter point each."""

    def __init__(self, lib, workdir: Path, seed: tuple[int, int]):
        self.lib, self.seed = lib, seed

    def queries(self, index: int) -> list[Query]:
        rng = np.random.default_rng([*self.seed, index])
        n = GROUPS_PER_PASS * len(KIND_MIX)

        def draw(lo: float, hi: float) -> list[float]:
            return rng.uniform(lo, hi, n).tolist()

        scale, shape = draw(0.5, 2.0), draw(1.5, 4.0)  # exponential rate or point; Gamma
        weight, rate1, rate2 = draw(0.2, 0.8), draw(0.5, 1.0), draw(2.0, 4.0)  # mixture
        lattices = iter(rng.dirichlet(np.ones(LATTICE_CELLS), GROUPS_PER_PASS).tolist())
        lam, c_f, x_f = draw(0.5, 2.0), draw(1.1, 1.6), draw(1.2, 2.5)
        t, u_f, ratio = draw(5.0, 40.0), draw(1.0, 20.0), draw(0.5, 6.0)
        qs = []
        for i in range(n):
            kind = KIND_MIX[i % len(KIND_MIX)]
            if kind in ("exponential", "point"):
                params = (scale[i],)
            elif kind == "gamma":
                params = (shape[i],)
            elif kind == "mixture":
                params = ((weight[i], 1.0 - weight[i]), (rate1[i], rate2[i]))
            else:
                params = (LATTICE_SPAN, tuple(next(lattices)))
            mean_rate = lam[i] * _claim_mean(kind, params)
            point = dict(lam=lam[i], c=mean_rate * c_f[i], x=mean_rate * x_f[i], t=t[i],
                         u=u_f[i] * mean_rate / lam[i], ratio=ratio[i])
            qs.append(self._bundle(kind, params, point))
        return qs

    def _bundle(self, kind: str, params: tuple, p: dict) -> Query:
        lib = self.lib
        lam, c, x, t, u, ratio = (p[k] for k in ("lam", "c", "x", "t", "u", "ratio"))
        on_lattice = kind in ("point", "lattice")

        def run():
            cum, ruin = lib.cumulant, lib.ruin
            model = cum.CompoundModel(lam, _make_severity(lib.severity, kind, params))
            system = ruin.RiskSystem(model, c, 0.0)
            esscher = cum.esscher_tail_lattice if on_lattice else cum.esscher_tail
            out = {
                "entropy": cum.entropy(model, x),
                "chernoff": cum.chernoff_bound(model, t, x),
                "esscher": esscher(model, t, x),
                "lundberg": ruin.lundberg(system),
                "bound": ruin.finite_time_bound(system, u, ratio),
                "clt": ruin.ruin_time_clt(system, u, 0.0),
            }
            if kind in ("exponential", "mixture"):
                out["mixture"] = ruin.mixture_exact(system, u)
            return out

        return Query(f"grid-{kind}", "library", run, check_bundle(kind, params, p))


def check_bundle(kind: str, params: tuple, p: dict):
    def check(out):
        chk = Checks()
        lam, c, x, t, u, ratio = (p[k] for k in ("lam", "c", "x", "t", "u", "ratio"))
        cu = oracles.Cumulant(lam, kind, params)
        _check_entropy(chk, cu, out["entropy"], x)
        h = out["entropy"].h
        chk.close("chernoff", out["chernoff"].bound, math.exp(-t * h), 1e-9)
        ess = out["esscher"]
        chk.close("esscher sigma", ess.sigma, math.sqrt(t * cu.g2(ess.tilt)), 1e-9)
        chk.within("esscher", ess.value, 1e-300, ess.value_explicit * (1.0 + 1e-9))
        if kind not in ("point", "lattice"):
            chk.within("esscher vs Chernoff", ess.value, 0.0, 0.5 * math.exp(-t * h) * (1 + 1e-9))

        sol = out["lundberg"]
        big_r = sol.R
        chk.true(big_r > 0.0, f"adjustment coefficient {big_r} not positive")
        chk.close("g(R) - cR", cu.g(big_r), c * big_r, 1e-10)
        slope = cu.g1(big_r) - c
        chk.close("tbar", sol.time_scale, 1.0 / slope, 1e-9)
        chk.close("sigma_sq", sol.sigma_sq, cu.g2(big_r), 1e-9)
        chk.close("C", sol.constant, (c - cu.mean_rate) / slope, 1e-9)
        if kind == "exponential":
            chk.close("R = b - lambda/c", big_r, params[0] - lam / c, 1e-12)

        bound = out["bound"]
        # H(t) = t h(c + 1/t) is convex with minimum R at tbar
        chk.within("H(t) >= R", bound.exponent, big_r * (1.0 - 1e-9), math.inf)
        closed = cu.entropy(c + 1.0 / ratio)
        if closed is not None:
            chk.close("H(t)", bound.exponent, ratio * closed, 1e-9)
        chk.close("finite-time bound", bound.bound, math.exp(-u * bound.exponent), 1e-9)
        chk.true((bound.side == "early") == (ratio <= sol.time_scale), "finite-time bound side")

        clt = out["clt"]
        chk.close("clt mean", clt.mean, u * sol.time_scale, 1e-12)
        chk.close("clt variance", clt.variance, u * sol.time_scale**3 * sol.sigma_sq, 1e-12)
        chk.close("clt probability", clt.probability,
                  0.5 * sol.constant * math.exp(-big_r * u), 1e-12)

        if "mixture" in out:
            _check_mixture(chk, cu, out["mixture"], big_r, c, u)
        return chk.problems

    return check


def _check_entropy(chk: Checks, cu, point, x: float) -> None:
    theta, h = point.tilt, point.h
    chk.close("g'(tilt) = x", cu.g1(theta), x, 1e-9)
    chk.close("h = x tilt - g(tilt)", h, x * theta - cu.g(theta), 1e-9, 1e-15)
    closed = cu.entropy(x)
    if closed is not None:
        chk.close("h closed form", h, closed, 1e-9, 1e-15)
    # Legendre: h(x) is the supremum of x*th - g(th)
    for th in (0.0, 0.5 * theta, 0.9 * theta, min(1.1 * theta, 0.5 * (theta + cu.abscissa))):
        lower = x * th - cu.g(th)
        chk.true(h >= lower - 1e-12 * abs(lower) - 1e-15,
                 f"Legendre: h({x}) = {h} below {lower} at theta {th}")


def _check_mixture(chk: Checks, cu, mix, big_r: float, c: float, u: float) -> None:
    weights, rates = (cu.params if cu.kind == "mixture" else ((1.0,), cu.params))
    roots = mix.decay_rates
    interlaced = [0.0]
    for root, rate in zip(roots, rates):
        interlaced += [root, rate]
    chk.true(all(a < b for a, b in zip(interlaced, interlaced[1:])),
             f"decay rates {roots} do not interlace the claim rates {rates}")
    chk.close("R_1 = R", roots[0], big_r, 1e-10)
    for root in roots:
        chk.close(f"root {root}", cu.lam * sum(w / (b - root) for w, b in zip(weights, rates)),
                  c, 1e-10)
    chk.close("psi(0) = lambda mu / c", math.fsum(mix.constants), cu.mean_rate / c, 1e-10)
    chk.close("mixture value", mix.value,
              math.fsum(k * math.exp(-r * u) for k, r in zip(mix.constants, roots)), 1e-12)
    if cu.kind == "exponential":
        chk.close("exponential ruin", mix.value,
                  oracles.exponential_ruin(cu.lam, rates[0], c, u), 1e-10)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def combined(*parts):
    """A workload whose passes send each part's queries in turn."""

    class Combined:
        def __init__(self, lib, workdir: Path, seed: int):
            self.parts = [part(lib, workdir, (seed, k)) for k, part in enumerate(parts)]

        def queries(self, index: int) -> list[Query]:
            return [query for part in self.parts for query in part.queries(index)]

    return Combined


WORKLOADS = {
    "lattice-ruin": combined(LatticeDeep, FiniteTime),
    "mc-analytic": combined(MonteCarloOracle, AnalyticGrid),
}
