"""Command-line front end: parsing, dispatch, formats, exit codes."""

import ast
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from collrisk import Exponential, Lattice, MixtureOfExponentials, ParseError, errors
from collrisk import chernoff_bound, panjer
from collrisk import cli, cumulant, ruin, severity
from collrisk.cli import main, parse_model_file, parse_model_text

EXP_MODEL_TEXT = """\
# worked example system
lambda = 1.0
premium_rate = 1.25
initial_capital = 5
severity {
    kind = exponential
    rate = 1.0
}
span = 0.01
mc_seed = 42
mc_paths = 5000
"""

UNIT_MODEL_TEXT = """\
lambda = 1.0
premium_rate = 2.0
severity {
    kind = point
    location = 1.0
}
span = 0.25
mc_seed = 7
mc_paths = 5000
"""


@pytest.fixture
def exp_model(tmp_path):
    path = tmp_path / "exp.model"
    path.write_text(EXP_MODEL_TEXT)
    return str(path)


@pytest.fixture
def unit_model(tmp_path):
    path = tmp_path / "unit.model"
    path.write_text(UNIT_MODEL_TEXT)
    return str(path)


def run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def csv_rows(text):
    return [line.split(",") for line in text.strip().splitlines()]


# ---------------------------------------------------------------------------
# model file parsing
# ---------------------------------------------------------------------------


def test_parse_valid_model(tmp_path):
    spec = parse_model_text(EXP_MODEL_TEXT, tmp_path)
    assert spec.system.model.rate == 1.0
    assert isinstance(spec.system.model.severity, Exponential)
    assert spec.system.premium_rate == 1.25
    assert spec.system.initial_capital == 5.0
    assert spec.controls.span == 0.01
    assert spec.controls.mc_seed == 42
    assert spec.controls.mc_paths == 5000
    assert spec.controls.mc_horizon is None


def test_parse_defaults(tmp_path):
    text = "lambda = 2\npremium_rate = 3\nseverity {\nkind = point\nlocation = 1\n}\n"
    spec = parse_model_text(text, tmp_path)
    assert spec.system.initial_capital == 0.0
    assert spec.controls.span == 0.01
    assert spec.controls.mc_paths == 100_000


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("span = 0.01", "spam = 0.01"),  # unknown key
        lambda t: t.replace("kind = exponential", "kind = exponential\n    rate = 2.0"),
        lambda t: t.replace("premium_rate = 1.25\n", ""),  # missing required
        lambda t: t.replace("rate = 1.0", "rate = fast"),  # not a number
        lambda t: t.replace("rate = 1.0", "shape = 1.0"),  # wrong parameter
        lambda t: t.replace("}", ""),  # unterminated block
        lambda t: t.replace("lambda = 1.0", "lambda = 1.0\nlambda = 2.0"),
        lambda t: t.replace("rate = 1.0", "rate = -1.0"),  # invalid domain
        lambda t: t + "time_step = 0.1\n",  # removed key
    ],
)
def test_parse_errors(tmp_path, mutation):
    with pytest.raises(ParseError):
        parse_model_text(mutation(EXP_MODEL_TEXT), tmp_path)


def test_parse_mixture(tmp_path):
    text = (
        "lambda = 1\npremium_rate = 2\nseverity {\nkind = mixture\n"
        "weights = 0.5, 0.5\nrates = 1, 2\n}\n"
    )
    spec = parse_model_text(text, tmp_path)
    assert isinstance(spec.system.model.severity, MixtureOfExponentials)
    assert spec.system.model.severity.rates == (1.0, 2.0)


def test_parse_lattice_file(tmp_path):
    (tmp_path / "sev.txt").write_text("# point mass\n0.5 0.25\n1.0 0.75\n")
    text = (
        "lambda = 1\npremium_rate = 2\nseverity {\nkind = lattice\n"
        "span = 0.5\nfile = sev.txt\n}\n"
    )
    spec = parse_model_text(text, tmp_path)
    severity = spec.system.model.severity
    assert isinstance(severity, Lattice)
    assert severity.masses == (0.25, 0.75)


def test_parse_lattice_file_errors(tmp_path):
    (tmp_path / "bad.txt").write_text("0.3 1.0\n")  # off-lattice point
    text = (
        "lambda = 1\npremium_rate = 2\nseverity {\nkind = lattice\n"
        "span = 0.5\nfile = bad.txt\n}\n"
    )
    with pytest.raises(ParseError):
        parse_model_text(text, tmp_path)
    (tmp_path / "short.txt").write_text("0.5 0.9\n")  # not normalized
    with pytest.raises(ParseError):
        parse_model_text(text.replace("bad.txt", "short.txt"), tmp_path)


@pytest.mark.parametrize("span", ["0", "-0.5"])
def test_nonpositive_lattice_span_is_a_parse_error(tmp_path, capsys, span):
    (tmp_path / "lat.txt").write_text("1.0 1.0\n")
    model = tmp_path / "z.model"
    model.write_text(
        "lambda = 1\npremium_rate = 2\nseverity {\nkind = lattice\n"
        f"span = {span}\nfile = lat.txt\n}}\n"
    )
    assert run(["ruin", str(model), "--u", "1"]) == (2, "")
    assert f"span must be positive and finite, got {float(span)}" in capsys.readouterr().err


def test_parse_model_file_missing():
    with pytest.raises(ParseError):
        parse_model_file("/no/such/file.model")


def _model_with_severity(block):
    lines = "".join(f"    {key} = {value}\n" for key, value in block.items())
    return f"lambda = 1\npremium_rate = 3\nseverity {{\n{lines}}}\n"


_SEVERITY_BLOCKS = {  # kind -> (its keys in order, a severity key it does not take)
    "exponential": ({"rate": "1.0"}, "shape"),
    "gamma": ({"shape": "2.5"}, "rate"),
    "point": ({"location": "1.0"}, "rate"),
    "mixture": ({"weights": "0.5, 0.5", "rates": "1, 2"}, "rate"),
    "lattice": ({"span": "0.5", "file": "sev.txt"}, "rate"),
}


@pytest.mark.parametrize("kind", list(_SEVERITY_BLOCKS))
def test_severity_block_messages(tmp_path, kind):
    (tmp_path / "sev.txt").write_text("0.5 1.0\n")
    keys, foreign = _SEVERITY_BLOCKS[kind]
    block = {"kind": kind, **keys}
    parse_model_text(_model_with_severity(block), tmp_path)

    def message(changed):
        with pytest.raises(ParseError) as exc:
            parse_model_text(_model_with_severity(changed), tmp_path)
        return str(exc.value)

    last = list(keys)[-1]
    assert message({k: v for k, v in block.items() if k != last}) == (
        f"severity kind '{kind}' needs keys: {last}")
    assert message({"kind": kind}) == f"severity kind '{kind}' needs keys: {', '.join(keys)}"
    assert message({**block, foreign: "1"}) == (
        f"severity kind '{kind}' does not accept keys: {foreign}")
    assert message({**block, "kind": kind + "s"}) == f"unknown severity kind '{kind}s'"
    assert message(keys) == "severity block needs a 'kind' key"


def _read_two_column(which, path):
    """The lattice severity (span 0.5) or the portfolio read from ``path``."""
    if which == "policy":
        return cli._parse_policies(path)
    block = {"kind": "lattice", "span": "0.5", "file": path.name}
    return parse_model_text(_model_with_severity(block), path.parent).system.model.severity


@pytest.mark.parametrize(
    "which, missing, three_columns, no_rows",
    [
        ("lattice", "lattice file not found: {path}", "{path}:2: expected two columns",
         "{path}: no mass rows"),
        ("policy", "policy file not found: {path}",
         "{path}:2: expected 'sum_at_risk, probability'", "{path}: no policy rows"),
    ],
)
def test_two_column_file_messages(tmp_path, which, missing, three_columns, no_rows):
    path = tmp_path / "rows.txt"

    def message():
        with pytest.raises(ParseError) as exc:
            _read_two_column(which, path)
        return str(exc.value)

    assert message() == missing.format(path=path)
    path.write_text("0.5 0.5\n1.0 0.25 0.25\n")
    assert message() == three_columns.format(path=path)
    path.write_text("# comments only\n\n   # and blank lines\n")
    assert message() == no_rows.format(path=path)


@pytest.mark.parametrize("which", ["lattice", "policy"])
def test_two_column_file_skips_blank_and_comment_lines(tmp_path, which):
    path = tmp_path / "rows.txt"
    path.write_text("# header\n\n0.5, 0.25\n   \n  # note\n1.0 0.75\n")
    read = _read_two_column(which, path)
    if which == "policy":
        assert read == cumulant.Portfolio((cumulant.Policy(0.5, 0.25), cumulant.Policy(1.0, 0.75)))
    else:
        assert read.masses == (0.25, 0.75)


# ---------------------------------------------------------------------------
# tail command
# ---------------------------------------------------------------------------


def test_tail_point_mass_rows(unit_model):
    code, out = run(["tail", unit_model, "--t", "20", "--x", "1.5", "--format", "csv", "--mc"])
    assert code == 0
    rows = csv_rows(out)
    methods = [row[0] for row in rows]
    assert methods == ["chernoff", "esscher", "esscher-explicit", "panjer", "monte-carlo"]
    by_method = {row[0]: row for row in rows}
    assert float(by_method["panjer"][3]) == pytest.approx(
        float(stats.poisson.sf(29, 20)), rel=1e-10
    )
    assert by_method["panjer"][5] == "exact"
    assert float(by_method["chernoff"][3]) == pytest.approx(
        math.exp(-20 * (1.5 * math.log(1.5) - 0.5)), rel=1e-10
    )
    mc = by_method["monte-carlo"]
    assert abs(float(mc[3]) - float(by_method["panjer"][3])) <= 3 * float(mc[4])


# the severity block of each claim law; "lattice" reads five.lat
TAIL_LAWS = {
    "exponential": "kind = exponential\n    rate = 1.0\n",
    "gamma": "kind = gamma\n    shape = 2.5\n",
    "mixture": "kind = mixture\n    weights = 0.4,0.6\n    rates = 0.5,2\n",
    "point": "kind = point\n    location = 1.0\n",
    "lattice": "kind = lattice\n    span = 0.5\n    file = five.lat\n",
}


def tail_rows(tmp_path, law, factor):
    """The rows of ``tail --t 20`` at x = factor * mean rate, by method."""
    (tmp_path / "five.lat").write_text("0.5 0.1\n1.0 0.3\n1.5 0.2\n2.0 0.25\n2.5 0.15\n")
    path = tmp_path / f"{law}.model"
    path.write_text(
        f"lambda = 1.0\npremium_rate = 5\nseverity {{\n    {TAIL_LAWS[law]}}}\nspan = 0.01\n")
    x = factor * parse_model_file(str(path)).system.model.mean_rate
    code, out = run(["tail", str(path), "--t", "20", "--x", repr(x), "--format", "csv"])
    assert code == 0
    return {row[0]: row for row in csv_rows(out)}


@pytest.mark.parametrize("factor", [1.0 - 1e-13, 1.0, 1.0 + 1e-13], ids=["below", "at", "above"])
@pytest.mark.parametrize("law", TAIL_LAWS)
def test_tail_at_mean_rate(tmp_path, law, factor):
    by_method = tail_rows(tmp_path, law, factor)
    assert float(by_method["chernoff"][3]) == 1.0
    assert by_method["esscher"][3] == ""  # flagged, no value
    assert "mean-rate" in by_method["esscher"][5]
    assert "esscher-explicit" not in by_method


@pytest.mark.parametrize("law", TAIL_LAWS)
def test_tail_below_the_mean_rate(tmp_path, law):
    by_method = tail_rows(tmp_path, law, 0.5)
    assert by_method["esscher"][3:] == ["", "", "below the mean rate"]
    assert "esscher-explicit" not in by_method


@pytest.mark.parametrize("law", TAIL_LAWS)
def test_tail_esscher_form_follows_the_claim_law(tmp_path, law):
    by_method = tail_rows(tmp_path, law, 1.5)
    lattice = law in ("point", "lattice")
    assert by_method["esscher"][5] in (
        "span-corrected" if lattice else "continuous", "degenerate: a*sigma < 1")
    assert float(by_method["esscher"][3]) > 0.0
    explicit = by_method["esscher-explicit"]
    assert explicit[5] == ("modified prefactor" if lattice else "expanded prefactor")


def test_tail_continuous_is_labeled_discretized(exp_model):
    code, out = run(["tail", exp_model, "--t", "10", "--x", "1.5", "--format", "csv"])
    assert code == 0
    by_method = {row[0]: row for row in csv_rows(out)}
    assert by_method["panjer"][5] == "discretized (d=0.01)"
    assert by_method["esscher"][5] in ("continuous", "degenerate: a*sigma < 1")


# ---------------------------------------------------------------------------
# ruin command
# ---------------------------------------------------------------------------


def test_ruin_worked_example(exp_model):
    code, out = run(["ruin", exp_model, "--u", "1,5,10", "--format", "csv"])
    assert code == 0
    rows = csv_rows(out)
    recursion = {float(r[1]): float(r[3]) for r in rows if r[0] == "panjer-recursion"}
    for u in (1.0, 5.0, 10.0):
        assert recursion[u] == pytest.approx(0.8 * math.exp(-0.2 * u), rel=0.01)
    exact = {float(r[1]): float(r[3]) for r in rows if r[0] == "mixture-exact"}
    assert exact[5.0] == pytest.approx(0.8 * math.exp(-1.0), rel=1e-10)
    bounds = {float(r[1]): float(r[3]) for r in rows if r[0] == "lundberg-bound"}
    assert bounds[10.0] == pytest.approx(math.exp(-2.0), rel=1e-10)


# ---------------------------------------------------------------------------
# deep tails: values a running 1 - sum printed as 0 or as negative
# ---------------------------------------------------------------------------


def deep_model(tmp_path, block):
    """A lambda = 1, c = 1.25, span 0.01 model file with the given severity block."""
    path = tmp_path / "deep.model"
    path.write_text(
        f"lambda = 1.0\npremium_rate = 1.25\nseverity {{\n    {block}}}\nspan = 0.01\n")
    return str(path)


def rows_by_method(argv):
    code, out = run([*argv, "--format", "csv"])
    assert code == 0
    rows = {}
    for row in csv_rows(out):
        rows.setdefault(row[0], []).append(row)
    return rows


def test_deep_ruin_matches_the_lattice_closed_form(tmp_path):
    # Exp(1) claims discretized on d give a geometric ladder, so the lattice maximum
    # has the tail r*(1 - (1 - r)*(1 - e^-d))^floor(u/d) with r = lambda/(b*c) = 0.8
    model = deep_model(tmp_path, "kind = exponential\n    rate = 1.0\n")
    rows = rows_by_method(["ruin", model, "--u", "200,250"])["panjer-recursion"]
    r, d = 0.8, 0.01
    for row in rows:
        u = float(row[1])
        want = r * (1.0 - (1.0 - r) * (1.0 - math.exp(-d))) ** math.floor(u / d + 1e-9)
        assert float(row[3]) == pytest.approx(want, rel=1e-5, abs=0.0)
    assert [float(row[1]) for row in rows] == [200.0, 250.0]


@pytest.mark.parametrize("t,x", [(30.0, 3.0), (100.0, 2.0)])
def test_deep_point_mass_tail_is_the_poisson_tail(tmp_path, t, x):
    model = deep_model(tmp_path, "kind = point\n    location = 1.0\n")
    (row,) = rows_by_method(["tail", model, "--t", repr(t), "--x", repr(x)])["panjer"]
    # P(S(t) >= t*x) = P(N >= t*x) for unit claims
    assert float(row[3]) == pytest.approx(stats.poisson.sf(t * x - 1, t), rel=1e-10, abs=0.0)


def test_deep_two_atom_tail_is_positive_and_below_chernoff(tmp_path):
    (tmp_path / "atoms.lat").write_text("2 0.5\n4 0.5\n")
    model = deep_model(tmp_path, "kind = lattice\n    span = 1\n    file = atoms.lat\n")
    rows = rows_by_method(["tail", model, "--t", "400", "--x", "4.5"])
    value, chernoff = float(rows["panjer"][0][3]), float(rows["chernoff"][0][3])
    assert 0.0 < value <= chernoff
    # S/2 = A + 2B with A, B independent Poisson(200): P(S >= 1800) summed over B
    b = np.arange(0, 451)
    exact = math.fsum(stats.poisson.pmf(b, 200.0) * stats.poisson.sf(900 - 2 * b - 1, 200.0))
    assert value == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_deep_exponential_tail_is_positive_and_below_chernoff(tmp_path):
    model = deep_model(tmp_path, "kind = exponential\n    rate = 1.0\n")
    rows = rows_by_method(["tail", model, "--t", "80", "--x", "3"])
    value, chernoff = float(rows["panjer"][0][3]), float(rows["chernoff"][0][3])
    assert 0.0 < value <= chernoff


@settings(max_examples=60, deadline=None)
@example(n_cells=1, lam=2.0, factor=2.5, sparsity=0.0, seed=0)
@example(n_cells=12, lam=0.3, factor=0.5, sparsity=0.0, seed=1)
@example(n_cells=12, lam=2.0, factor=2.5, sparsity=0.8, seed=2)
@given(
    n_cells=st.integers(1, 12),
    lam=st.floats(0.3, 2.0),
    factor=st.floats(0.5, 2.5),
    sparsity=st.floats(0.0, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_printed_tail_of_a_random_lattice_law(
    tmp_path_factory, n_cells, lam, factor, sparsity, seed
):
    rng = np.random.default_rng(seed)
    f = rng.random(n_cells) * (rng.random(n_cells) >= sparsity)
    f[-1] += f.sum() == 0.0
    f /= f.sum()
    folder = tmp_path_factory.mktemp("law")
    lines = [f"{j + 1} {float(p)!r}\n" for j, p in enumerate(f) if p]
    (folder / "law.lat").write_text("".join(lines))
    path = folder / "law.model"
    path.write_text(f"lambda = {lam!r}\npremium_rate = 100\nseverity {{\n    kind = lattice\n"
                    f"    span = 1\n    file = law.lat\n}}\n")
    t = 30.0
    model = parse_model_file(str(path)).system.model
    x = float(factor * model.mean_rate)
    rows = rows_by_method(["tail", str(path), "--t", repr(t), "--x", repr(x)])
    value, chernoff = float(rows["panjer"][0][3]), float(rows["chernoff"][0][3])
    assert 0.0 <= value <= 1.0
    if rows["chernoff"][0][5] == "upper-tail":
        assert value <= chernoff * (1.0 + 1e-9)
    # P(S >= m) from masses summed in reverse, up to a top past which the Chernoff
    # bound leaves at most 1e-12 of the sum
    m = math.ceil(t * x - 1e-9)
    top = 2 * m + 10
    while True:
        g = panjer(lam * t, model.severity.as_distribution(), top).masses
        total = math.fsum(g[m:][::-1])
        beyond = chernoff_bound(model, t, (top + 1) / t).bound
        if beyond <= 1e-12 * total:
            break
        top *= 2
    if total > 1e-250:
        assert value == pytest.approx(total, rel=1e-10, abs=0.0)


def test_ruin_negative_loading_is_informative(tmp_path):
    path = tmp_path / "under.model"
    path.write_text(EXP_MODEL_TEXT.replace("premium_rate = 1.25", "premium_rate = 0.9"))
    code, out = run(["ruin", str(path), "--u", "1", "--format", "csv"])
    assert code == 0
    rows = csv_rows(out)
    assert rows[0][0] == "certain"
    assert float(rows[0][3]) == 1.0


def test_ruin_record_negative_loading(tmp_path):
    path = tmp_path / "under.model"
    path.write_text(EXP_MODEL_TEXT.replace("premium_rate = 1.25", "premium_rate = 0.9"))
    assert run(["ruin", str(path), "--u", "2,1", "--record"]) == (
        0, "r(u=1; method=certain) = 1\n"
    )


def test_ruin_record_format(exp_model):
    code, out = run(["ruin", exp_model, "--u", "5", "--record"])
    assert code == 0
    lines = dict(
        line.split(" = ") for line in out.strip().splitlines()
    )
    assert float(lines["R"]) == pytest.approx(0.2, rel=1e-10)
    assert float(lines["C"]) == pytest.approx(0.8, rel=1e-10)
    assert float(lines["tbar"]) == pytest.approx(3.2, rel=1e-10)
    assert float(lines["sigma_sq"]) == pytest.approx(3.90625, rel=1e-10)
    assert float(lines["r(u=5; method=mixture-exact)"]) == pytest.approx(
        0.8 * math.exp(-1.0), rel=1e-10
    )


# ---------------------------------------------------------------------------
# ruin-time command
# ---------------------------------------------------------------------------


def test_ruin_time_exponent_at_time_scale(exp_model):
    code, out = run(["ruin-time", exp_model, "--u", "10", "--t", "1.0", "--format", "csv"])
    assert code == 0
    rows = {row[0]: row for row in csv_rows(out)}
    assert float(rows["tbar"][3]) == pytest.approx(3.2, rel=1e-10)
    assert float(rows["H-early"][2]) == pytest.approx(3.2, rel=1e-10)
    assert float(rows["H-early"][3]) == pytest.approx(float(rows["R"][3]), rel=1e-9)
    assert float(rows["clt-mean"][3]) == pytest.approx(32.0, rel=1e-10)
    assert float(rows["clt-variance"][3]) == pytest.approx(1280.0, rel=1e-10)


def test_ruin_time_golden_csv(exp_model):
    code, out = run(["ruin-time", exp_model, "--u", "10", "--t", "1.0", "--format", "csv"])
    assert code == 0
    assert out == (
        "R,10,,0.2,\n"
        "C,10,,0.8,\n"
        "tbar,10,,3.2,\n"
        "sigma-sq,10,,3.90625,\n"
        "clt-mean,10,,32,\n"
        "clt-variance,10,,1280,\n"
        "H-early,10,3.2,0.2,\n"
        "bound-early,10,3.2,0.135335283237,\n"
    )


# ---------------------------------------------------------------------------
# seal command
# ---------------------------------------------------------------------------


def test_seal_zero_capital_cross_check(unit_model, exp_model):
    # the second case puts c*t = 10.075 between lattice points of span 0.02
    for argv in ([unit_model, "--t", "2"], [exp_model, "--t", "8.06", "--span", "0.02"]):
        code, out = run(["seal", *argv, "--u", "0", "--format", "csv"])
        assert code == 0
        rows = {row[0]: row for row in csv_rows(out)}
        assert float(rows["seal"][3]) == pytest.approx(
            float(rows["one-minus-non-ruin-zero"][3]), abs=1e-9
        )


def test_seal_lattice_severity_ignores_span(tmp_path):
    (tmp_path / "sev.txt").write_text("0.5 0.2\n1.0 0.5\n1.5 0.3\n")
    model = tmp_path / "lat.model"
    model.write_text(
        "lambda = 1\npremium_rate = 1.25\nseverity {\nkind = lattice\n"
        "span = 0.5\nfile = sev.txt\n}\n"
    )
    base = run(["seal", str(model), "--u", "1", "--t", "4", "--format", "csv"])
    assert base[0] == 0
    for span in ("0.05", "0.3"):
        assert run(["seal", str(model), "--u", "1", "--t", "4", "--span", span,
                    "--format", "csv"]) == base


def test_seal_capital_off_grid_is_domain_error(unit_model):
    code, out = run(["seal", unit_model, "--u", "0.13", "--t", "2"])
    assert code == 3
    assert out == ""  # no partial output


# ---------------------------------------------------------------------------
# portfolio command
# ---------------------------------------------------------------------------


def test_portfolio_report(tmp_path):
    policy_file = tmp_path / "policies.csv"
    policy_file.write_text("".join("1.0,0.1\n" for _ in range(10)))
    code, out = run(["portfolio", str(policy_file), "--x", "0.5,2.5", "--format", "csv"])
    assert code == 0
    rows = csv_rows(out)
    summary = {row[1]: float(row[2]) for row in rows if row[0] == "summary"}
    assert summary["lambda"] == pytest.approx(-10 * math.log(0.9), rel=1e-10)
    assert summary["sum-p-squared"] == pytest.approx(0.1, rel=1e-12)
    atoms = [row for row in rows if row[0] == "atom"]
    assert len(atoms) == 1 and float(atoms[0][1]) == 1.0 and float(atoms[0][2]) == 1.0
    tails = {float(row[1]): (float(row[2]), float(row[3])) for row in rows if row[0] == "tail"}
    assert tails[2.5][0] == pytest.approx(float(stats.binom.sf(2, 10, 0.1)), rel=1e-10)
    # compound approximation within the advertised bound
    assert abs(tails[2.5][0] - tails[2.5][1]) <= 0.05 + 1e-9
    assert abs(tails[0.5][0] - tails[0.5][1]) <= 1e-12  # matched by construction


def test_portfolio_bound_covers_one_policy_gap(tmp_path):
    policy_file = tmp_path / "one.csv"
    policy_file.write_text("1, 0.5\n")
    code, out = run(["portfolio", str(policy_file), "--x", "1.5", "--format", "csv"])
    assert code == 0
    rows = csv_rows(out)
    bound = {row[1]: float(row[2]) for row in rows if row[0] == "summary"}["approximation-bound"]
    (tail,) = [row for row in rows if row[0] == "tail"]
    gap = abs(float(tail[2]) - float(tail[3]))
    # exact P(L > 1.5) = 0 against compound P(N >= 2) with N ~ Poisson(log 2)
    assert gap == pytest.approx(0.5 + 0.5 * math.log(0.5), rel=1e-9)
    assert bound >= gap - 1e-12


def test_portfolio_bad_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n")
    code, out = run(["portfolio", str(bad)])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("span_args", [[], ["--span", "0.5"]], ids=["inferred", "given"])
def test_portfolio_infinite_sum_at_risk_is_a_parse_error(tmp_path, capsys, span_args):
    policies = tmp_path / "pol.csv"
    policies.write_text("inf, 0.1\n")
    code, out = run(["portfolio", str(policies), "--x", "1", *span_args])
    assert (code, out) == (2, "")
    assert "sum at risk must be positive and finite, got inf" in capsys.readouterr().err


def test_portfolio_sums_with_no_common_span_print_a_bracket(tmp_path, capsys):
    policies = tmp_path / "pol.csv"
    policies.write_text(f"1, 0.3\n{math.pi!r}, 0.2\n")
    assert run(["portfolio", str(policies), "--x", "1"]) == (3, "")  # no span to infer
    assert "share no usable common span" in capsys.readouterr().err
    levels = [0.5, 1.0, 2.0, 3.0, 3.2, 4.0, 4.5]
    code, out = run(["portfolio", str(policies), "--span", "0.5", "--x",
                     ",".join(map(str, levels)), "--format", "csv"])
    assert code == 0
    rows = [row for row in csv_rows(out) if row[0].startswith("tail")]
    assert [row[0] for row in rows] == ["tail-lower", "tail-upper"] * len(levels)
    for x, (lower, upper) in zip(levels, zip(rows[::2], rows[1::2])):
        # L takes 0, 1, pi and 1 + pi with probabilities 0.56, 0.24, 0.14 and 0.06
        exact = sum(w for v, w in ((1.0, 0.24), (math.pi, 0.14), (1.0 + math.pi, 0.06)) if v > x)
        assert float(lower[1]) == float(upper[1]) == x and lower[3] == upper[3]
        assert float(lower[2]) <= exact + 1e-12 and exact <= float(upper[2]) + 1e-12
    # pi rounds down onto 3 and up onto 3.5, on either side of x = 3
    assert [float(row[2]) for row in rows[6:8]] == pytest.approx([0.06, 0.2], rel=1e-12)


def test_portfolio_of_a_thousand_policies(tmp_path):
    rng = np.random.default_rng(11)
    policies = tmp_path / "pol.csv"
    policies.write_text("".join(f"{0.5 * k:g}, {p:.6f}\n" for k, p in
                                zip(rng.integers(1, 201, 1000), rng.uniform(0.001, 0.05, 1000))))
    code, out = run(["portfolio", str(policies), "--x", "100,500,2000", "--format", "csv"])
    assert code == 0
    rows = csv_rows(out)
    bound = {row[1]: float(row[2]) for row in rows if row[0] == "summary"}["approximation-bound"]
    tails = [row for row in rows if row[0] == "tail"]
    assert [float(row[1]) for row in tails] == [100.0, 500.0, 2000.0]
    for row in tails:
        assert 0.0 <= float(row[2]) <= 1.0
        assert abs(float(row[2]) - float(row[3])) <= bound + 1e-12


def test_portfolio_level_below_the_smallest_atom(tmp_path):
    # on --span 0.01 the atoms sit at cells 50 and 100: the compound column's
    # recursion runs on span 0.5, and x = 0.25 (26 cells) is below its first step
    policies = tmp_path / "pol.csv"
    policies.write_text("0.5, 0.1\n1, 0.2\n")
    code, out = run(["portfolio", str(policies), "--span", "0.01", "--x", "0.25",
                     "--format", "csv"])
    assert code == 0
    rows = csv_rows(out)
    lam = {row[1]: float(row[2]) for row in rows if row[0] == "summary"}["lambda"]
    assert [(float(row[1]), float(row[2])) for row in rows if row[0] == "atom"] == [
        (0.5, pytest.approx(math.log(0.9) / (math.log(0.9) + math.log(0.8)), rel=1e-12)),
        (1.0, pytest.approx(math.log(0.8) / (math.log(0.9) + math.log(0.8)), rel=1e-12)),
    ]
    (tail,) = [row for row in rows if row[0] == "tail"]
    assert float(tail[1]) == 0.25
    assert float(tail[2]) == pytest.approx(1 - 0.9 * 0.8, rel=1e-12)
    assert float(tail[3]) == pytest.approx(-math.expm1(-lam), rel=1e-12)


def test_portfolio_refuses_a_recursion_past_the_work_budget(tmp_path, capsys):
    # sums 20000.01, 0.01 and 2.5 share only the span 0.01, so the compound
    # column would take 2e6 cells x 2e6 coefficient cells, about 4e12 multiply-adds
    policies = tmp_path / "pol.csv"
    policies.write_text("20000.01, 0.1\n0.01, 0.2\n2.5, 0.05\n")
    code, out = run(["portfolio", str(policies), "--span", "0.01", "--x", "20000"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: 2000001 cells x 2000001 coefficient cells = 4e+12 multiply-adds exceed "
        "the recursion budget of 2e+11\n"
    )


# ---------------------------------------------------------------------------
# output discipline
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(exp_model):
    argv = ["ruin", exp_model, "--u", "2,5", "--mc", "--format", "csv"]
    assert run(argv) == run(argv)


def run_all(argv):
    """(exit code, stdout, stderr) of one ``main`` call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_answers_like_a_fresh_one(exp_model, tmp_path):
    policies = tmp_path / "policies.csv"
    policies.write_text("1, 0.1\n2, 0.05\n")
    calls = [
        ["tail", exp_model, "--t", "10", "--x", "1.5"],
        ["ruin", exp_model, "--u", "1,5", "--record"],
        ["ruin", exp_model],  # argparse error: --u is required
        ["ruin-time", exp_model, "--u", "5", "--t", "1,2"],
        ["seal", "--help"],
        ["seal", exp_model, "--u", "1", "--t", "4", "--format", "csv"],
        ["portfolio", str(policies), "--x", "1,2.5"],
        ["tail", exp_model, "--t", "10", "--x", "0.5", "--span", "0.02"],
    ]
    cached = [run_all(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_all(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 0, 0, 0]
    assert all(out for _, out, _ in cached[3:])


def test_worker_count_invariance(exp_model):
    base = ["ruin", exp_model, "--u", "2", "--mc", "--format", "csv", "--horizon", "60"]
    _, out1 = run(base + ["--workers", "1"])
    _, out8 = run(base + ["--workers", "8"])
    assert out1 == out8


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_seed_outside_the_key_range_is_a_parse_error(exp_model, tmp_path, capsys, seed):
    line = f"error: mc_seed must lie in [0, 2**64), got {seed}\n"
    code, out = run(["ruin", exp_model, "--u", "1", "--mc", "--seed", seed])
    assert (code, out, capsys.readouterr().err) == (2, "", line)
    model = tmp_path / "seed.model"
    model.write_text(EXP_MODEL_TEXT.replace("mc_seed = 42", f"mc_seed = {seed}"))
    code, out = run(["ruin", str(model), "--u", "1", "--mc"])
    assert (code, out, capsys.readouterr().err) == (2, "", line)


def test_seeds_past_2_to_the_63_run_their_own_streams(exp_model):
    argv = ["ruin", exp_model, "--u", "1", "--mc", "--paths", "2000", "--format", "csv"]
    outputs = [run([*argv, "--seed", seed]) for seed in ("9223372036854775808",
                                                        "9223372036854775813", "0")]
    assert all(code == 0 for code, _ in outputs)
    assert len({out for _, out in outputs}) == 3


def test_flag_overrides_file(exp_model):
    _, coarse = run(["ruin", exp_model, "--u", "5", "--format", "csv"])
    _, fine = run(["ruin", exp_model, "--u", "5", "--format", "csv", "--span", "0.005"])
    assert coarse != fine  # the span override changes the recursion grid
    value = float(csv_rows(fine)[0][3])
    assert value == pytest.approx(0.8 * math.exp(-1.0), rel=0.005)


_MODEL_SPAN_ARGV = [
    ["tail", "--t", "2", "--x", "1.5"], ["ruin", "--u", "1"], ["seal", "--u", "1", "--t", "4"]
]
_SPAN_COMMANDS = pytest.mark.parametrize("argv", _MODEL_SPAN_ARGV, ids=lambda argv: argv[0])


@pytest.mark.parametrize("span", ["0", "-0.01"])
@pytest.mark.parametrize(
    "argv", [*_MODEL_SPAN_ARGV, ["portfolio", "--x", "1,3"]], ids=lambda argv: argv[0]
)
def test_nonpositive_span_flag_is_a_parse_error(exp_model, tmp_path, capsys, argv, span):
    policies = tmp_path / "pol.csv"
    policies.write_text("1.0, 0.1\n2.5, 0.2\n")
    path = policies if argv[0] == "portfolio" else exp_model
    code, out = run([argv[0], str(path), *argv[1:], "--span", span])
    assert (code, out) == (2, "")
    assert f"span must be positive, got {float(span)}" in capsys.readouterr().err


@_SPAN_COMMANDS
def test_span_beyond_the_cell_cap_is_one_error_line(exp_model, capsys, argv):
    code, out = run([argv[0], exp_model, *argv[1:], "--span", "1e-300"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["tail", "--t", "10", "--x", "1e8"], ["ruin", "--u", "1e12"],
     ["seal", "--u", "0", "--t", "1e12"]],
    ids=lambda argv: argv[0],
)
def test_lattice_past_the_cell_cap_is_one_error_line(exp_model, capsys, argv):
    # far above the cap: the recursion refuses before it allocates anything
    code, out = run([argv[0], exp_model, *argv[1:]])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lattice cells exceed the cap" in err


def test_lattice_file_atom_past_the_cell_cap_is_one_error_line(tmp_path, capsys):
    # far above the cap: refused before the mass array is allocated (7.28 TiB)
    (tmp_path / "far.lat").write_text("1 0.5\n1e12 0.5\n")
    model = tmp_path / "far.model"
    model.write_text(EXP_MODEL_TEXT.replace("kind = exponential\n    rate = 1.0",
                                            "kind = lattice\n    span = 1\n    file = far.lat"))
    code, out = run(["tail", str(model), "--t", "1", "--x", "1"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: 1000000000000 lattice cells exceed the cap of 10000000 cells\n")


def test_portfolio_atom_past_the_cell_cap_is_one_error_line(tmp_path, capsys):
    # far above the cap: refused before the mass array is allocated (7.11 PiB)
    policies = tmp_path / "pol.csv"
    policies.write_text("1000000,0.01\n500000,0.02\n")
    code, out = run(["portfolio", str(policies), "--span", "1e-9", "--x", "1"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: 1000000000000000 lattice cells exceed the cap of 10000000 cells\n")


def test_tail_past_the_gamma_abscissa_names_the_level(tmp_path, capsys):
    model = tmp_path / "gamma.model"
    model.write_text(EXP_MODEL_TEXT.replace("kind = exponential\n    rate = 1.0",
                                            "kind = gamma\n    shape = 2.5"))
    code, out = run(["tail", str(model), "--t", "10", "--x", "1e300"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: g' never reaches 1e+300 below the abscissa 1.0\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["tail", "--t", "inf", "--x", "1.5"], "--t"),
        (["tail", "--t", "2", "--x", "nan"], "--x"),
        (["seal", "--u", "1", "--t", "inf"], "--t"),
        (["seal", "--u", "nan", "--t", "4"], "--u"),
        (["ruin", "--u", "inf"], "--u"),
        (["ruin", "--u", "1,nan"], "--u"),
        (["ruin", "--u", "1", "--mc", "--horizon", "inf"], "--horizon"),
        (["ruin-time", "--u", "inf"], "--u"),
        (["ruin-time", "--u", "2", "--t", "1,-inf"], "--t"),
        (["portfolio", "--x", "inf"], "--x"),
        (["tail", "--t", "2", "--x", "1.5", "--span", "inf"], "--span"),
        (["ruin", "--u", "1", "--span", "inf"], "--span"),
        (["ruin", "--u", "1", "--span", "nan"], "--span"),
        (["seal", "--u", "1", "--t", "4", "--span", "inf"], "--span"),
        (["portfolio", "--x", "1,3", "--span", "inf"], "--span"),
        (["portfolio", "--x", "1,3", "--span", "nan"], "--span"),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else v,
)
def test_non_finite_flag_is_a_usage_error(exp_model, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run([argv[0], exp_model, *argv[1:]])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [(["ruin", "--u", ","], "--u"), (["ruin-time", "--u", "2", "--t", ","], "--t"),
     (["portfolio", "--x", ","], "--x")],
    ids=lambda v: "-".join(v) if isinstance(v, list) else v,
)
def test_empty_number_list_is_a_usage_error(exp_model, capsys, argv, flag):
    # `ruin --u ,` crashed in max(); `ruin-time --t ,` and `portfolio --x ,`
    # silently used the default ratios and printed no tails
    with pytest.raises(SystemExit) as exc:
        run([argv[0], exp_model, *argv[1:]])
    assert exc.value.code == 2
    assert f"argument {flag}: expected at least one number, got ','" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("key", ["lambda", "premium_rate", "rate", "span", "initial_capital"])
@pytest.mark.parametrize("argv", [["ruin", "--u", "1"], ["tail", "--t", "1", "--x", "1"]],
                         ids=lambda argv: argv[0])
def test_non_finite_model_number_is_a_parse_error(tmp_path, capsys, argv, key, value):
    model = tmp_path / "bad.model"
    model.write_text(re.sub(rf"^(\s*{key} =).*$", rf"\1 {value}", EXP_MODEL_TEXT, flags=re.M))
    code, out = run([argv[0], str(model), *argv[1:]])
    assert (code, out) == (2, "")
    assert f"key '{key}': expected a finite number, got '{value}'" in capsys.readouterr().err


def test_non_finite_list_entry_is_a_parse_error(tmp_path, capsys):
    model = tmp_path / "bad.model"
    model.write_text(EXP_MODEL_TEXT.replace(
        "kind = exponential\n    rate = 1.0", "kind = mixture\n    weights = 0.5, 0.5\n"
        "    rates = 1.0, inf"))
    code, out = run(["ruin", str(model), "--u", "1"])
    assert (code, out) == (2, "")
    assert "key 'rates': expected a finite number, got 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, flags, key",
    [
        ("n_out = -5", [], "n_out"),
        ("mc_paths = 0", [], "mc_paths"),
        ("mc_paths = 5000", ["--paths", "0"], "mc_paths"),
    ],
    ids=["n_out-key", "mc_paths-key", "paths-flag"],
)
def test_nonpositive_count_is_a_parse_error(tmp_path, capsys, line, flags, key):
    # rejected at parse time, also where the command never simulates
    model = tmp_path / "counts.model"
    model.write_text(EXP_MODEL_TEXT.replace("mc_paths = 5000", line))
    code, out = run(["ruin", str(model), "--u", "1", *flags])
    assert (code, out) == (2, "")
    assert f"{key} must be positive" in capsys.readouterr().err


def test_seal_discretizes_the_severity_once(exp_model, monkeypatch):
    original, spans = severity.discretize, []

    def counted(model, d, *args, **kwargs):
        spans.append(d)
        return original(model, d, *args, **kwargs)

    for module in (cli, ruin, severity):  # count calls through every binding of the name
        if hasattr(module, "discretize"):
            monkeypatch.setattr(module, "discretize", counted)
    code, _ = run(["seal", exp_model, "--u", "2", "--t", "4", "--span", "0.01"])
    assert (code, spans) == (0, [0.01])
    # at u = 0 the one-minus-non-ruin-zero row reuses the lattice seal built
    code, _ = run(["seal", exp_model, "--u", "0", "--t", "8", "--span", "0.02"])
    assert (code, spans) == (0, [0.01, 0.02])


def test_exit_codes(exp_model, tmp_path):
    assert run(["ruin", "/missing.model", "--u", "1"])[0] == 2
    assert run(["tail", exp_model, "--t", "10", "--x", "-1"])[0] == 3
    broken = tmp_path / "broken.model"
    broken.write_text("nonsense\n")
    code, out = run(["ruin", str(broken), "--u", "1"])
    assert code == 2
    assert out == ""


_ERROR_CLASSES = sorted(
    (k for k in vars(errors).values()
     if isinstance(k, type) and issubclass(k, errors.CollRiskError)),
    key=lambda k: k.__name__,
)
_NONDEFAULT_EXIT = {
    "ParseError": 2,
    "ConvergenceError": 4,
    "NoRootError": 4,
    "RootBracketError": 4,
    "BudgetError": 5,
    "InsufficientRuinsError": 5,
}


@pytest.mark.parametrize("klass", _ERROR_CLASSES, ids=lambda k: k.__name__)
def test_every_error_class_exit_code(monkeypatch, klass, capsys):
    def fail(path):
        raise klass("injected")

    monkeypatch.setattr("collrisk.cli.parse_model_file", fail)
    code, out = run(["ruin", "any.model", "--u", "1"])
    assert code == _NONDEFAULT_EXIT.get(klass.__name__, 3)
    assert out == ""
    assert capsys.readouterr().err == "error: injected\n"


def test_every_error_class_has_a_raise_site():
    src = Path(__file__).resolve().parents[1] / "src" / "collrisk"
    raised = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(getattr(func, "id", getattr(func, "attr", None)))
    classes = {k.__name__ for k in _ERROR_CLASSES if k is not errors.CollRiskError}
    assert classes - raised == set()


def test_n_out_caps_lattice_work(tmp_path):
    capped = tmp_path / "capped.model"
    capped.write_text(EXP_MODEL_TEXT + "n_out = 100\n")
    code, out = run(["ruin", str(capped), "--u", "5"])  # needs 501 steps
    assert code == 3
    assert out == ""
    code, _ = run(["ruin", str(capped), "--u", "0.5"])  # needs 51 steps
    assert code == 0


def test_n_out_counts_the_steps_the_recursion_computes(tmp_path):
    capped = tmp_path / "capped.model"
    capped.write_text(EXP_MODEL_TEXT + "n_out = 30\n")
    # t*x = 0.30000000000000004 spans 30 cells of 0.01 up to rounding
    code, out = run(["tail", str(capped), "--t", "3", "--x", "0.1", "--format", "csv"])
    assert code == 0
    assert [row[0] for row in csv_rows(out)][-1] == "panjer"


def test_ruin_time_dump_writes_samples(exp_model, tmp_path):
    dump = tmp_path / "times.txt"
    code, _ = run(
        ["ruin-time", exp_model, "--u", "1", "--t", "1.0", "--mc",
         "--paths", "4000", "--horizon", "40", "--dump", str(dump)]
    )
    assert code == 0
    values = [float(line) for line in dump.read_text().split()]
    assert len(values) > 100
    assert all(0.0 < v <= 40.0 for v in values)


def test_table_format_has_header(exp_model):
    code, out = run(["ruin", exp_model, "--u", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["method", "u", "t"]
    assert set(lines[1]) <= {"-", " "}


# ---------------------------------------------------------------------------
# each root is solved once per model
# ---------------------------------------------------------------------------


@pytest.fixture
def solves(monkeypatch):
    """Counts root computations (the memoized ``_entropy``, ``_lundberg`` and
    ``_mixture_roots`` calls) and safeguarded_newton calls, at the names the
    cumulant and ruin layers call."""
    counts = {"roots": 0, "newton": 0}

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((cumulant, "_entropy"), (ruin, "_lundberg"), (ruin, "_mixture_roots")):
        count(module, name, "roots")
    for module in (cumulant, ruin):
        count(module, "safeguarded_newton", "newton")
    return counts


@pytest.mark.parametrize(
    "severity, argv, roots, newton",
    [
        # the adjustment coefficient and the mixture root, both in closed form
        ("kind = exponential\n    rate = 1.0", ["ruin", "--u", "5,10,20"], 2, 0),
        # the adjustment coefficient and two interlaced mixture roots, by Newton
        ("kind = mixture\n    weights = 0.4, 0.6\n    rates = 0.5, 2.0",
         ["ruin", "--u", "5,10,20"], 2, 3),
        # the adjustment coefficient and six entropy levels; ratio 1 is the time scale
        ("kind = exponential\n    rate = 1.0", ["ruin-time", "--u", "20"], 7, 0),
        # chernoff and esscher share one tilt
        ("kind = exponential\n    rate = 1.0", ["tail", "--t", "10", "--x", "1.5"], 1, 0),
        ("kind = gamma\n    shape = 2.5", ["tail", "--t", "10", "--x", "4"], 1, 0),
        # Gamma's adjustment coefficient has no closed form (mean 0.8 keeps c above it)
        ("kind = gamma\n    shape = 0.8", ["ruin", "--u", "5,10,20"], 1, 1),
    ],
    ids=["ruin-exponential", "ruin-mixture", "ruin-time", "tail-exponential", "tail-gamma",
         "ruin-gamma"],
)
def test_each_root_is_solved_once_per_command(tmp_path, solves, severity, argv, roots, newton):
    model = tmp_path / "m.model"
    model.write_text(EXP_MODEL_TEXT.replace("kind = exponential\n    rate = 1.0", severity))
    code, _ = run([argv[0], str(model), *argv[1:]])
    assert code == 0
    assert solves == {"roots": roots, "newton": newton}


# ---------------------------------------------------------------------------
# zero capital and nonpositive time ratios
# ---------------------------------------------------------------------------


def test_ruin_at_zero_capital_alone(exp_model):
    code, alone = run(["ruin", exp_model, "--u", "0", "--format", "csv"])
    assert code == 0
    code, both = run(["ruin", exp_model, "--u", "0,5", "--format", "csv"])
    assert code == 0
    at_zero = [row for row in csv_rows(both) if row[1] == "0"]
    assert csv_rows(alone) == at_zero
    assert [row[0] for row in at_zero] == [
        "panjer-recursion", "cramer-lundberg", "lundberg-bound", "mixture-exact"]
    assert float(at_zero[0][3]) == pytest.approx(0.8, abs=1e-12)  # r = lambda*mu/c


def test_ruin_negative_capital_is_a_domain_error(exp_model, capsys):
    code, out = run(["ruin", exp_model, "--u", "-1"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: capital must be nonnegative, got -1.0\n"


def test_ruin_mc_at_zero_capital_needs_a_horizon(exp_model, capsys):
    code, out = run(["ruin", exp_model, "--u", "0", "--mc"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--horizon" in err
    code, out = run(["ruin", exp_model, "--u", "0", "--mc", "--horizon", "5", "--paths", "500",
                     "--format", "csv"])
    assert code == 0
    assert csv_rows(out)[-1][:3] == ["monte-carlo", "0", "5"]


def test_zero_horizon_flag_is_not_replaced_by_the_default(exp_model, capsys):
    code, out = run(["ruin", exp_model, "--u", "1", "--mc", "--horizon", "0"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: horizon must be positive, got 0.0\n"


@pytest.mark.parametrize(
    "argv, u", [(["ruin", "--u", "0,2"], 2.0), (["ruin-time", "--u", "5"], 5.0)],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_default_horizon_is_five_mean_ruin_times(exp_model, argv, u):
    # ruin-time exits 0 only when ruin_time_samples accepts the horizon
    horizon = 5.0 * u * ruin.lundberg(parse_model_file(exp_model).system).time_scale
    call = [argv[0], exp_model, *argv[1:], "--mc", "--format", "csv"]
    code, out = run(call)
    assert code == 0
    mc_rows = [row for row in csv_rows(out) if row[0].startswith(("mc-", "monte-carlo"))]
    assert mc_rows and all(row[2] == f"{horizon:.12g}" for row in mc_rows)
    assert run([*call, "--horizon", repr(horizon)]) == (0, out)


@pytest.mark.parametrize("extra", [[], ["--absolute"]])
@pytest.mark.parametrize("ratios, typed", [("0.5,-1", "-1"), ("0", "0"), ("1,-0.25", "-0.25")])
def test_ruin_time_nonpositive_ratio_names_the_flag(exp_model, capsys, extra, ratios, typed):
    code, out = run(["ruin-time", exp_model, "--u", "20", "--t", ratios, *extra])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"error: --t values must be positive, got {typed}\n"
