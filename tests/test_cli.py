"""Command-line front end: parsing, dispatch, formats, exit codes."""

import io
import math
from contextlib import redirect_stdout

import pytest
from scipy import stats

from collrisk import Exponential, Lattice, MixtureOfExponentials, ParseError, errors
from collrisk import cli, ruin, severity
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


def test_parse_model_file_missing():
    with pytest.raises(ParseError):
        parse_model_file("/no/such/file.model")


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


def test_tail_at_mean_rate(unit_model):
    code, out = run(["tail", unit_model, "--t", "20", "--x", "1.0", "--format", "csv"])
    assert code == 0
    by_method = {row[0]: row for row in csv_rows(out)}
    assert float(by_method["chernoff"][3]) == 1.0
    assert by_method["esscher"][3] == ""  # flagged, no value
    assert "mean-rate" in by_method["esscher"][5]


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


# ---------------------------------------------------------------------------
# output discipline
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(exp_model):
    argv = ["ruin", exp_model, "--u", "2,5", "--mc", "--format", "csv"]
    assert run(argv) == run(argv)


def test_worker_count_invariance(exp_model):
    base = ["ruin", exp_model, "--u", "2", "--mc", "--format", "csv", "--horizon", "60"]
    _, out1 = run(base + ["--workers", "1"])
    _, out8 = run(base + ["--workers", "8"])
    assert out1 == out8


def test_flag_overrides_file(exp_model):
    _, coarse = run(["ruin", exp_model, "--u", "5", "--format", "csv"])
    _, fine = run(["ruin", exp_model, "--u", "5", "--format", "csv", "--span", "0.005"])
    assert coarse != fine  # the span override changes the recursion grid
    value = float(csv_rows(fine)[0][3])
    assert value == pytest.approx(0.8 * math.exp(-1.0), rel=0.005)


_SPAN_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["tail", "--t", "2", "--x", "1.5"], ["ruin", "--u", "1"], ["seal", "--u", "1", "--t", "4"]],
    ids=lambda argv: argv[0],
)


@pytest.mark.parametrize("span", ["0", "-0.01", "inf"])
@_SPAN_COMMANDS
def test_nonpositive_span_flag_is_a_parse_error(exp_model, capsys, argv, span):
    code, out = run([argv[0], exp_model, *argv[1:], "--span", span])
    assert (code, out) == (2, "")
    problem = "finite" if span == "inf" else "positive"
    assert f"span must be {problem}, got {float(span)}" in capsys.readouterr().err


@_SPAN_COMMANDS
def test_span_beyond_the_cell_cap_is_one_error_line(exp_model, capsys, argv):
    code, out = run([argv[0], exp_model, *argv[1:], "--span", "1e-300"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
