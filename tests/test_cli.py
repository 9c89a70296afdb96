import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwpva as g
from gwpva.cli import build_parser, main
from gwpva import spectral
from gwpva.datasets import bear_cap, bear_life_table, synthetic_life_table


@pytest.fixture(scope="module")
def synthetic_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("synthetic")
    table = d / "table.csv"
    table.write_text(g.format_life_table(synthetic_life_table()))
    prior = d / "prior.json"
    prior.write_text(json.dumps({
        "format_version": 1, "K": 1,
        "pairs": [{"i": 1, "j": 1, "kappa": 4, "prior": {"rule": "flat"}}],
    }))
    posterior = d / "posterior.json"
    assert main(["fit", "--table", str(table), "--prior", str(prior),
                 "--out", str(posterior)]) == 0
    return {"dir": d, "table": table, "prior": prior, "posterior": posterior}


def test_version_matches_pyproject():
    # __version__ is the tool_version of every --out provenance; tomllib
    # needs Python 3.11, so the version line is read by a regex
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert found is not None
    assert g.__version__ == found.group(1)


def test_nprec_default_is_the_library_default():
    parser = build_parser()
    for argv in (["viability"], ["extinction", "--pop", "1"], ["time-bounds", "--pop", "1"],
                 ["reintroduce", "--type", "1"], ["predict", "--pop", "1", "--horizon", "1"]):
        args = parser.parse_args(argv + ["--posterior", "posterior.json", "--seed", "1"])
        assert args.nprec == g.montecarlo.DEFAULT_N_PREC, argv[0]


_COMMANDS = ["fit", "viability", "extinction", "time-bounds", "reintroduce", "predict",
             "simulate", "baseline", "scenarios"]
_MC_ARGS = ["viability", "--posterior", "p.json", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], *([cmd, "--help"] for cmd in _COMMANDS), ["nope"],
    ["viability"], [*_MC_ARGS, "--bogus"], [*_MC_ARGS, "--nprec", "ten"]])
def test_main_parses_as_the_full_parser(argv, capsys, monkeypatch):
    # main builds one subcommand's parser when argv[0] names it, the full one
    # otherwise; exit code, stdout and stderr must be the full parser's
    def run(parse):
        with pytest.raises(SystemExit) as e:
            parse(argv)
        return (e.value.code, *capsys.readouterr())

    want = run(lambda a: build_parser().parse_args(a))
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    assert run(main) == want
    assert built == (argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)


def test_fit_writes_expected_posterior(synthetic_files):
    doc = json.loads(synthetic_files["posterior"].read_text())
    assert doc["format_version"] == 1
    (pair,) = doc["pairs"]
    assert pair["alpha"] == [145.0, 128.0, 20.0, 14.0, 8.0]
    assert doc["mean_matrix"][0][0] == pytest.approx(242 / 315)
    assert "table_sha256" in doc["meta"]


def test_fit_rejects_invalid_table(tmp_path, synthetic_files, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("i,j,k,t,count\n1,1,9,0,2\n")  # k exceeds kappa = 4
    code = main(["fit", "--table", str(bad), "--prior",
                 str(synthetic_files["prior"]), "--out", str(tmp_path / "p.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    assert "offspring-exceeds-cap" in err["error"]


@pytest.mark.parametrize("pop, message", [
    ("2.5", "--pop must be comma-separated integers, got '2.5'"),
    ("22,3", "--pop needs 1 entries, got 2"),
    ("-1", "abundances must be nonnegative integers"),
])
def test_pop_rejections(synthetic_files, capsys, pop, message):
    assert main(["extinction", "--posterior", str(synthetic_files["posterior"]),
                 f"--pop={pop}", "--seed", "1", "--nprec", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": message, "kind": "error"}


def test_missing_file_is_io_error(capsys):
    assert main(["viability", "--posterior", "/nonexistent.json",
                 "--seed", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "io"


def test_malformed_posterior_is_parse_error(tmp_path, capsys):
    # two entries for one pair, a categorical pair outside 1..K, and
    # alphas too short to make kappa >= 1
    short = "pair (1,1): alpha needs at least 2 entries (kappa >= 1)"
    for pairs, why in (([{"i": 1, "j": 1, "alpha": [1.0, 2.0]}] * 2, "duplicate pair (1,1)"),
                       ([{"i": 1, "j": 2, "alpha": [1.0, 2.0]}], "(1,2) outside 1..1"),
                       ([{"i": 1, "j": 1, "alpha": [5.0]}], short),
                       ([{"i": 1, "j": 1, "alpha": []}], short)):
        posterior = tmp_path / "posterior.json"
        posterior.write_text(json.dumps({"format_version": 1, "K": 1, "pairs": pairs}))
        assert main(["viability", "--posterior", str(posterior), "--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "parse" and why in err["error"], err
    # a document with no pairs: every Monte Carlo subcommand names it
    posterior.write_text(json.dumps({"format_version": 1, "K": 1, "pairs": []}))
    for argv in (["viability"], ["extinction", "--pop", "1"], ["time-bounds", "--pop", "1"]):
        assert main([*argv, "--posterior", str(posterior), "--seed", "1"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"{posterior}: pairs must be a nonempty list", "kind": "parse"}


def test_fit_refuses_a_non_integer_pair_index(synthetic_files, tmp_path, capsys):
    # "i": 1.9 was fitted as pair (1, 1), read by truncation
    for entry in ({"i": 1.9, "j": 1, "kappa": 4}, {"i": 1, "j": 1, "kappa": True}):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"format_version": 1, "K": 1, "pairs": [entry]}))
        out = tmp_path / "posterior.json"
        assert main(["fit", "--table", str(synthetic_files["table"]), "--prior", str(prior),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "parse" and err["error"].startswith(f"{prior}: pairs[0]: "), err
        assert not out.exists()


def test_parse_errors_name_their_file(synthetic_files, tmp_path, capsys):
    # a malformed life table or series names the file it came from, as a
    # prior config and a posterior document do
    table = tmp_path / "table.csv"
    table.write_text("i,j,k,t,count\n1,1,0,0,2.5\n")
    series = tmp_path / "series.csv"
    series.write_text("t,N\n0,many\n")
    for argv, path, why in (
            (["fit", "--table", str(table), "--prior", str(synthetic_files["prior"])],
             table, "line 2: all fields must be integers"),
            (["baseline", "--table", str(table)], table, "line 2: all fields must be integers"),
            (["baseline", "--series", "--table", str(series)], series,
             "line 2: fields must be numeric")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": f"{path}: {why}", "kind": "parse"}


def test_viability_and_extinction(synthetic_files, tmp_path, capsys):
    out = tmp_path / "via.json"
    assert main(["viability", "--posterior", str(synthetic_files["posterior"]),
                 "--seed", "2024", "--nprec", "500", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] <= 0.01  # the decline is all but certainly subcritical
    assert doc["error_bound"] == pytest.approx(1 / (4 * np.sqrt(500)))
    assert doc["provenance"]["seed"] == 2024

    out2 = tmp_path / "ext.json"
    assert main(["extinction", "--posterior", str(synthetic_files["posterior"]),
                 "--pop", "22", "--seed", "2024", "--nprec", "500",
                 "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["value"] >= 0.95
    capsys.readouterr()


def test_time_bounds_and_curves(synthetic_files, tmp_path, capsys):
    out = tmp_path / "tb.json"
    curves = tmp_path / "curves.csv"
    assert main(["time-bounds", "--posterior", str(synthetic_files["posterior"]),
                 "--pop", "22", "--seed", "2024", "--nprec", "500",
                 "--out", str(out), "--curves", str(curves)]) == 0
    doc = json.loads(out.read_text())
    assert doc["t_minus"] >= 0
    assert doc["t_plus"] is None or doc["t_plus"] > doc["t_minus"]
    header, *rows = curves.read_text().splitlines()
    assert header == "t,upper,lower"
    assert len(rows) >= doc["t_plus"]
    # each end states its own one-sided guarantee
    printed = capsys.readouterr().out
    assert "P(T > t_plus) <= 0.05 under the averaged expected abundance" in printed
    assert "P(T <= t_minus) <= 0.05 under the averaged exact survival" in printed
    assert "no guarantee" not in printed and "probability >=" not in printed
    # the lower column is the exact survival, below the upper bound
    assert all(float(lo) <= float(u) + 1e-12
               for _, u, lo in (row.split(",") for row in rows))


def test_time_bounds_refuse_an_extinct_population(synthetic_files, tmp_path, capsys):
    out, curves = tmp_path / "tb.json", tmp_path / "curves.csv"
    assert main(["time-bounds", "--posterior", str(synthetic_files["posterior"]),
                 "--pop", "0", "--seed", "2024", "--nprec", "200",
                 "--out", str(out), "--curves", str(curves)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)
    assert err["kind"] == "error" and "extinct" in err["error"]
    assert not out.exists() and not curves.exists()


def test_time_bounds_curves_cells_are_plain_floats(synthetic_files, tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    assert main(["time-bounds", "--posterior", str(synthetic_files["posterior"]),
                 "--pop", "22", "--seed", "3", "--nprec", "300",
                 "--curves", str(curves)]) == 0
    post, _ = g.posterior_from_document(
        json.loads(synthetic_files["posterior"].read_text()))
    res = g.mc_time_bounds(post, (22,), n_prec=300, master_seed=3)
    _, *rows = curves.read_text().splitlines()
    assert len(rows) == len(res.times)
    for row, t, u, lo in zip(rows, res.times, res.upper_curve, res.lower_curve):
        cells = row.split(",")
        assert [float(c) for c in cells] == [t, u, lo]  # round-trips exactly
    capsys.readouterr()


def test_time_bounds_answer_does_not_depend_on_curves(synthetic_files, tmp_path, capsys):
    # the curves are computed only under --curves; the bracket, the --out
    # document and stdout must be the same either way
    runs = []
    for curves in ((), ("--curves", str(tmp_path / "curves.csv"))):
        out = tmp_path / f"tb{len(runs)}.json"
        assert main(["time-bounds", "--posterior", str(synthetic_files["posterior"]),
                     "--pop", "22", "--seed", "2024", "--nprec", "1000",
                     "--out", str(out), *curves]) == 0
        runs.append((out.read_text(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert len((tmp_path / "curves.csv").read_text().splitlines()) \
        == json.loads(runs[0][0])["t_plus"] + 2


def test_predict_matches_library(synthetic_files, tmp_path, capsys):
    out = tmp_path / "pred.json"
    assert main(["predict", "--posterior", str(synthetic_files["posterior"]),
                 "--pop", "22", "--horizon", "2", "--seed", "7",
                 "--nprec", "400", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    post, _ = g.posterior_from_document(
        json.loads(synthetic_files["posterior"].read_text()))
    curve = g.mc_short_time_abundance(post, (22,), horizon=2, n_prec=400,
                                      master_seed=7)
    assert doc["curve"][0]["mean"] == [22.0]
    assert doc["curve"][1]["mean"][0] == curve[1].value[0]
    capsys.readouterr()


def test_reintroduce(synthetic_files, tmp_path, capsys):
    out = tmp_path / "re.json"
    hist = tmp_path / "hist.csv"
    assert main(["reintroduce", "--posterior", str(synthetic_files["posterior"]),
                 "--type", "1", "--threshold", "0.5", "--seed", "3",
                 "--nprec", "300", "--out", str(out), "--hist", str(hist)]) == 0
    doc = json.loads(out.read_text())
    # subcritical decline: per-founder extinction is near-certain, so no
    # founder count can push risk below 0.5
    assert doc["mean_extinction_by_type"][0] > 0.95
    assert doc["effective_population_size"] is None
    header, *rows = hist.read_text().splitlines()
    assert header == "bin_lo,bin_hi,type_1"
    assert len(rows) == 100
    capsys.readouterr()


def test_reintroduce_checks_arguments_before_fixed_point(synthetic_files, monkeypatch,
                                                        capsys):
    # a bad --threshold or --type fails before any draw's fixed point is
    # solved, with the messages of effective_population_size
    def no_fixed_point(*args, **kwargs):
        raise AssertionError("fixed point solved before the arguments were checked")

    monkeypatch.setattr("gwpva.montecarlo._fixed_point_rows", no_fixed_point)
    for flags, message in ((["--type", "1", "--threshold", "0"], "threshold must be in (0,1)"),
                           (["--type", "1", "--threshold", "1"], "threshold must be in (0,1)"),
                           (["--type", "2"], "type_index outside 1..1"),
                           (["--type", "0"], "type_index outside 1..1")):
        assert main(["reintroduce", "--posterior", str(synthetic_files["posterior"]),
                     "--seed", "3", "--nprec", "300"] + flags) == 2
        assert json.loads(capsys.readouterr().err) == {"error": message, "kind": "error"}


def test_simulate_is_byte_reproducible(synthetic_files, tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["simulate", "--posterior", str(synthetic_files["posterior"]),
                     "--pop", "22", "--horizon", "6", "--seed", "11",
                     "--reps", "3", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "rep,t,N_1"
    capsys.readouterr()


def test_simulate_fixed_draw_and_table_out(synthetic_files, tmp_path, capsys):
    draw = tmp_path / "draw.json"
    draw.write_text(json.dumps({
        "format_version": 1, "K": 1,
        "pairs": [{"i": 1, "j": 1, "law": "categorical",
                   "alpha": [0.48, 0.38, 0.07, 0.05, 0.02]}],
    }))
    table_out = tmp_path / "sim_table.csv"
    assert main(["simulate", "--draw", str(draw), "--pop", "50", "--horizon", "4",
                 "--seed", "5", "--table-out", str(table_out)]) == 0
    # the emitted life table parses and replays to the simulated abundances
    parsed = g.parse_life_table(table_out.read_text())
    states = g.abundances_from_table(parsed)
    assert states[0].total == 50
    # requires exactly one parameter source
    assert main(["simulate", "--pop", "50", "--horizon", "1", "--seed", "1"]) == 2
    assert main(["simulate", "--draw", str(draw), "--posterior",
                 str(synthetic_files["posterior"]), "--pop", "50",
                 "--horizon", "1", "--seed", "1"]) == 2
    capsys.readouterr()


def test_simulate_draw_is_read_as_a_posterior_document(synthetic_files, tmp_path, capsys):
    # --draw goes through the posterior reader: the same parse and Poisson
    # errors as --posterior
    draw = tmp_path / "draw.json"
    draw.write_text("{not json")
    assert main(["simulate", "--draw", str(draw), "--pop", "3", "--horizon", "2",
                 "--seed", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "parse" and err["error"].startswith(f"{draw}: invalid JSON: ")
    draw.write_text(json.dumps({
        "format_version": 1, "K": 1,
        "pairs": [{"i": 1, "j": 1, "law": "poisson", "shape": 2.0, "rate": 3.0}]}))
    for source in ("--draw", "--posterior"):
        assert main(["simulate", source, str(draw), "--pop", "3", "--horizon", "2",
                     "--seed", "1"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "posterior contains Poisson-rate pairs; Monte Carlo subcommands "
                     "support categorical posteriors only", "kind": "unsupported"}


def test_simulate_rejects_reps_below_one(synthetic_files, tmp_path, capsys):
    # no path means no life table for --table-out: a one-line JSON error
    table_out = tmp_path / "sim_table.csv"
    for reps in ("0", "-2"):
        assert main(["simulate", "--posterior", str(synthetic_files["posterior"]),
                     "--pop", "22", "--horizon", "3", "--seed", "1", "--reps", reps,
                     "--table-out", str(table_out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"--reps must be >= 1, got {reps}", "kind": "error"}
        assert not table_out.exists()


def test_baseline_from_table_and_series(synthetic_files, tmp_path, capsys):
    out = tmp_path / "base.json"
    assert main(["baseline", "--table", str(synthetic_files["table"]),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["r_d"] == pytest.approx(-0.3028, abs=5e-4)
    assert doc["v_r"] == pytest.approx(0.0041, abs=5e-4)

    series = tmp_path / "series.csv"
    series.write_text("t,N\n" + "\n".join(
        f"{t},{n}" for t, n in enumerate((100, 75, 59, 43, 33, 22))) + "\n")
    out2 = tmp_path / "base2.json"
    assert main(["baseline", "--table", str(series), "--series",
                 "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["r_d"] == doc["r_d"]
    assert doc2["regression_interval"] == doc["regression_interval"]
    capsys.readouterr()


def test_baseline_rejects_growth(tmp_path, capsys):
    series = tmp_path / "up.csv"
    series.write_text("t,N\n0,10\n1,20\n2,40\n")
    assert main(["baseline", "--table", str(series), "--series"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"


def test_baseline_band_that_never_closes(tmp_path, capsys):
    series = tmp_path / "short.csv"
    series.write_text("t,N\n0,100\n1,70\n2,50\n")
    assert main(["baseline", "--table", str(series), "--series", "--level", "0.99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "the 0.99 confidence band does not reach log N = 0 within 10^6 steps "
                 "after the last observation", "kind": "validation"}


def test_baseline_drops_every_post_extinction_zero(tmp_path, capsys):
    counts = (100, 75, 59, 43, 30)
    outs = []
    for tail in ((), (0,), (0, 0)):
        series = tmp_path / "series.csv"
        series.write_text("t,N\n" + "".join(
            f"{t},{n}\n" for t, n in enumerate(counts + tail)))
        outs.append(tmp_path / f"base{len(tail)}.json")
        assert main(["baseline", "--table", str(series), "--series",
                     "--out", str(outs[-1])]) == 0
    docs = [json.loads(out.read_text()) for out in outs]
    for doc in docs[1:]:
        assert (doc["r_d"], doc["v_r"], doc["n_ratios"], doc["regression_interval"]) == (
            docs[0]["r_d"], docs[0]["v_r"], docs[0]["n_ratios"], docs[0]["regression_interval"])
    capsys.readouterr()

    # a zero followed by a positive count is not an extinction; the message
    # names the zero and its position
    series.write_text("t,N\n0,100\n1,75\n2,0\n3,30\n4,0\n")
    assert main(["baseline", "--table", str(series), "--series"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "abundances must be positive, got N = 0 at position 2 (from 0)",
        "kind": "validation"}


@pytest.mark.parametrize("level, label", [("0.29", "29%"), ("0.995", "99.5%"),
                                          ("0.9", "90%")])
def test_baseline_band_label_is_not_truncated(synthetic_files, capsys, level, label):
    # 0.29 * 100 is 28.999...: the label rounds, it does not truncate
    assert main(["baseline", "--table", str(synthetic_files["table"]),
                 "--level", level]) == 0
    assert f"naive regression extinction window ({label} band): " in capsys.readouterr().out


def test_baseline_reports_an_invalid_table_as_validation(tmp_path, capsys):
    # the bundled bear table parses, but its parent totals differ across
    # child types, so it has no abundance series
    table = tmp_path / "bear.csv"
    table.write_text(g.format_life_table(bear_life_table()))
    assert main(["baseline", "--table", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "validation"
    assert err["error"].startswith("invalid life table: row-inconsistent at (5, 0)")


def test_baseline_rejects_series_without_unit_steps(tmp_path, capsys):
    # the log-growth moments assume one step between observations, so the
    # synthetic decline observed every second step is refused, not read as
    # the t = 0..5 answer (9 to 12 steps); the regression on the stated
    # times would give (19, 24)
    N = (100, 75, 59, 43, 33, 22)
    assert g.regression_extinction_interval(N, times=range(0, 12, 2)) == (19, 24)
    for times in (range(0, 12, 2), (0, 1, 2, 4, 5, 6), (5, 4, 3, 2, 1, 0)):
        series = tmp_path / "uneven.csv"
        series.write_text("t,N\n" + "".join(f"{t},{n}\n" for t, n in zip(times, N)))
        out = tmp_path / "base.json"
        assert main(["baseline", "--table", str(series), "--series",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "--series needs consecutive times t, t + 1, ...", "kind": "validation"}
        assert not out.exists()


def test_scenarios(synthetic_files, tmp_path, capsys):
    out = tmp_path / "sc.json"
    assert main(["scenarios", "--posterior", str(synthetic_files["posterior"]),
                 "--quantiles", "0.05,0.5,0.95", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    labels = [s["label"] for s in doc["scenarios"]]
    assert labels == ["q05", "q50", "q95"]
    for s in doc["scenarios"]:
        law = s["laws"]["1,1"]
        assert sum(law) == pytest.approx(1.0)
    assert main(["scenarios", "--posterior", str(synthetic_files["posterior"]),
                 "--quantiles", "zero"]) == 2
    capsys.readouterr()


_MC_KEYS = {"quantity", "n_prec", "n_used", "warnings", "provenance"}
_ESTIMATE_KEYS = _MC_KEYS | {"value", "std_error", "error_bound"}


@pytest.mark.parametrize("command, flags, keys, prov_args", [
    ("viability", [], _ESTIMATE_KEYS, {"seed": 2024, "nprec": 300}),
    ("extinction", ["--pop", "22"], _ESTIMATE_KEYS | {"population"},
     {"seed": 2024, "nprec": 300}),
    ("time-bounds", ["--pop", "22", "--alpha", "0.1"],
     _MC_KEYS | {"population", "alpha", "t_minus", "t_plus"},
     {"seed": 2024, "nprec": 300, "alpha": 0.1}),
    ("reintroduce", ["--type", "1", "--threshold", "0.2"],
     _MC_KEYS | {"threshold", "type", "effective_population_size",
                 "mean_extinction_by_type", "std_error"},
     {"seed": 2024, "nprec": 300, "threshold": 0.2}),
    ("predict", ["--pop", "22", "--horizon", "2"],
     {"quantity", "population", "horizon", "curve", "n_prec", "provenance"},
     {"seed": 2024, "nprec": 300, "horizon": 2}),
    ("scenarios", ["--quantiles", "0.1,0.9"], {"quantity", "scenarios", "provenance"}, {}),
    ("baseline", ["--level", "0.8"],
     {"quantity", "r_d", "v_r", "n_ratios", "level", "regression_interval", "provenance"},
     {"level": 0.8}),
])
def test_out_schema_and_provenance(synthetic_files, tmp_path, capsys, command, flags, keys,
                                   prov_args):
    if command == "baseline":
        source, digest = synthetic_files["table"], "table_sha256"
        argv = [command, "--table", str(source)]
    else:
        source, digest = synthetic_files["posterior"], "posterior_sha256"
        argv = [command, "--posterior", str(source)]
        if command != "scenarios":
            argv += ["--seed", "2024", "--nprec", "300"]
    out = tmp_path / "out.json"
    assert main(argv + flags + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == keys
    assert doc["provenance"] == {
        "format_version": 1, "tool_version": g.__version__,
        digest: hashlib.sha256(source.read_text().encode()).hexdigest(), **prov_args}
    capsys.readouterr()


def test_out_writes_an_undefined_standard_error_as_null(synthetic_files, tmp_path, capsys):
    # one draw has no sample standard error: --out holds null, which strict
    # JSON parsers accept, while stdout still prints nan
    def reject(token):
        raise AssertionError(f"--out holds {token}, which is not JSON")

    for command, flags, std_error in (
            ("extinction", ["--pop", "22"], lambda doc: doc["std_error"]),
            ("predict", ["--pop", "22", "--horizon", "1"],
             lambda doc: [row["std_error"] for row in doc["curve"]]),
            ("reintroduce", ["--type", "1"], lambda doc: doc["std_error"])):
        out = tmp_path / f"{command}.json"
        assert main([command, "--posterior", str(synthetic_files["posterior"]), "--seed", "1",
                     "--nprec", "1", "--out", str(out)] + flags) == 0
        doc = json.loads(out.read_text(), parse_constant=reject)
        assert std_error(doc) == {"extinction": None, "predict": [[None], [None]],
                                  "reintroduce": [None]}[command]
        assert command == "reintroduce" or re.search(r"\bnan\b", capsys.readouterr().out)
    capsys.readouterr()


def test_bear_end_to_end(tmp_path, capsys):
    table = tmp_path / "bear.csv"
    table.write_text(g.format_life_table(bear_life_table()))
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({
        "format_version": 1, "K": 5,
        "pairs": [{"i": 1, "j": 2, "kappa": 1},
                  {"i": 2, "j": 3, "kappa": 1},
                  {"i": 3, "j": 4, "kappa": 1},
                  {"i": 4, "j": 5, "kappa": 1},
                  {"i": 5, "j": 5, "kappa": 1},
                  {"i": 5, "j": 1, "kappa": 3}],
    }))
    posterior = tmp_path / "bear_posterior.json"
    assert main(["fit", "--table", str(table), "--prior", str(prior),
                 "--out", str(posterior)]) == 0
    doc = json.loads(posterior.read_text())
    by_pair = {(p["i"], p["j"]): p for p in doc["pairs"]}
    assert by_pair[(5, 5)]["alpha"] == [4.0, 73.0]
    assert by_pair[(5, 1)]["alpha"] == [71.0, 9.0, 7.0, 1.0]
    assert main(["viability", "--posterior", str(posterior), "--seed", "2024",
                 "--nprec", "500"]) == 0
    assert "P(lambda > 1 | data)" in capsys.readouterr().out


def test_only_time_bounds_builds_dense_mean_matrices(tmp_path, monkeypatch, capsys):
    # every other answer reads the pair means alone; time-bounds builds dense
    # mean matrices for its lambda < 1 draws alone, to square them, and no
    # answer solves a Perron pair
    table = tmp_path / "bear.csv"
    table.write_text(g.format_life_table(bear_life_table()))
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"format_version": 1, "K": 5, "pairs": [
        {"i": i, "j": j, "kappa": kappa}
        for (i, j), kappa in bear_cap().kappa.items()]}))
    posterior = tmp_path / "bear_posterior.json"
    assert main(["fit", "--table", str(table), "--prior", str(prior),
                 "--out", str(posterior)]) == 0
    built = []
    scatter = spectral._scatter

    def spy(means, K, n):
        built.append(n)
        return scatter(means, K, n)

    def refuse(*args):
        raise AssertionError("a Perron pair was solved")

    for module in ("spectral", "montecarlo", "extinction"):
        monkeypatch.setattr(f"gwpva.{module}._scatter", spy)
    for name in ("spectral.perron_roots", "spectral.perron_triple", "montecarlo.perron_roots"):
        monkeypatch.setattr(f"gwpva.{name}", refuse)
    common = ["--posterior", str(posterior), "--seed", "2024", "--nprec", "2000"]
    pop = ["--pop", "2,2,2,2,10"]
    for argv in (["viability"], ["extinction"] + pop, ["reintroduce", "--type", "5"],
                 ["predict", "--horizon", "10"] + pop):
        assert main(argv + common) == 0, argv
        assert built == [], argv
    out = tmp_path / "tb.json"
    assert main(["time-bounds", "--out", str(out)] + pop + common) == 0
    n_sub = 2000 - json.loads(out.read_text())["warnings"]["supercritical-draws"]
    assert 0 < n_sub < 200
    assert built == [n_sub]
    capsys.readouterr()


def test_fit_feeds_poisson_pair_counts_to_gamma_update(synthetic_files, tmp_path, capsys):
    # the synthetic table with a Poisson law on its one pair: every record
    # updates the Gamma prior, and none is a cap violation
    prior = tmp_path / "poisson_prior.json"
    prior.write_text(json.dumps({
        "format_version": 1, "K": 1,
        "pairs": [{"i": 1, "j": 1, "law": "poisson", "prior": {"shape": 2.0, "rate": 0.5}}],
    }))
    out = tmp_path / "poisson_posterior.json"
    assert main(["fit", "--table", str(synthetic_files["table"]), "--prior", str(prior),
                 "--out", str(out)]) == 0
    counts = synthetic_life_table().counts
    doc = json.loads(out.read_text())
    (pair,) = doc["pairs"]
    assert pair["law"] == "poisson"
    assert pair["shape"] == 2.0 + sum(k * n for (_, _, k, _), n in counts.items())
    assert pair["rate"] == 0.5 + sum(counts.values())
    assert "rate[1,1] ~ Gamma(shape=234, rate=310.5)" in capsys.readouterr().out
    # a mixed table: the categorical pairs get the same posterior as in an
    # all-categorical fit, and the Poisson pair's records go to its Gamma
    table = tmp_path / "bear.csv"
    table.write_text(g.format_life_table(bear_life_table()))
    pairs = [{"i": i, "j": j, "kappa": 1} for i, j in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 5))]
    prior.write_text(json.dumps({
        "format_version": 1, "K": 5,
        "pairs": pairs + [{"i": 5, "j": 1, "law": "poisson",
                           "prior": {"shape": 1.0, "rate": 1.0}}],
    }))
    assert main(["fit", "--table", str(table), "--prior", str(prior),
                 "--out", str(out)]) == 0
    by_pair = {(p["i"], p["j"]): p for p in json.loads(out.read_text())["pairs"]}
    assert by_pair[(5, 5)]["alpha"] == [4.0, 73.0]
    fecundity = {key: n for key, n in bear_life_table().counts.items() if key[:2] == (5, 1)}
    assert by_pair[(5, 1)]["shape"] == 1.0 + sum(k * n for (_, _, k, _), n in fecundity.items())
    assert by_pair[(5, 1)]["rate"] == 1.0 + sum(fecundity.values())


def test_fit_poisson_update_sums_records_without_expanding_parents(tmp_path, capsys):
    # 10^12 parents per record: the Gamma update reads sum(k * n) and sum(n),
    # not one list entry per parent
    table = tmp_path / "many.csv"
    table.write_text("i,j,k,t,count\n1,1,0,0,1000000000000\n1,1,3,0,1000000000000\n")
    prior = tmp_path / "poisson_prior.json"
    prior.write_text(json.dumps({
        "format_version": 1, "K": 1,
        "pairs": [{"i": 1, "j": 1, "law": "poisson", "prior": {"shape": 2.0, "rate": 0.5}}],
    }))
    out = tmp_path / "poisson_posterior.json"
    assert main(["fit", "--table", str(table), "--prior", str(prior),
                 "--out", str(out)]) == 0
    (pair,) = json.loads(out.read_text())["pairs"]
    assert (pair["shape"], pair["rate"]) == (2.0 + 3 * 10 ** 12, 0.5 + 2 * 10 ** 12)
    capsys.readouterr()


def test_fit_document_mean_matrix_holds_poisson_means(synthetic_files, tmp_path):
    prior = tmp_path / "poisson_prior.json"
    prior.write_text(json.dumps({
        "format_version": 1, "K": 1,
        "pairs": [{"i": 1, "j": 1, "law": "poisson", "prior": {"shape": 2.0, "rate": 1.0}}],
    }))
    out = tmp_path / "poisson_posterior.json"
    assert main(["fit", "--table", str(synthetic_files["table"]), "--prior", str(prior),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    (pair,) = doc["pairs"]
    assert doc["mean_matrix"] == [[pair["shape"] / pair["rate"]]]
    assert doc["mean_matrix"][0][0] == pytest.approx(0.7524, abs=1e-4)


def _modules_loaded(code: str, prefix: str | tuple[str, ...]) -> list[str]:
    """Modules in sys.modules whose names start with ``prefix`` (one package
    name or a tuple of them) after running ``code`` in a fresh interpreter
    (this test session has NumPy and SciPy loaded already)."""
    src = str(Path(g.__file__).resolve().parents[1])
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_import_loads_no_scipy():
    # nor NumPy: the fit layer runs on plain floats, and the package and the
    # CLI load the Monte Carlo modules on first use
    exits = ("import gwpva.cli\ntry:\n    gwpva.cli.main([{!r}])\n"
             "except SystemExit as e:\n    assert e.code == 0\n")
    for code in ("import gwpva, gwpva.cli", exits.format("--help"), exits.format("--version")):
        assert _modules_loaded(code, ("numpy", "scipy")) == [], code


def test_mc_subcommands_on_fitted_posterior_load_no_scipy(bear_posterior, tmp_path):
    posterior = tmp_path / "bear_posterior.json"
    posterior.write_text(json.dumps(g.posterior_to_document(bear_posterior)))
    common = ["--posterior", str(posterior), "--seed", "2024"]
    mc = common + ["--nprec", "500"]
    pop = ["--pop", "2,2,2,2,10"]
    runs = [["viability"] + mc,
            ["extinction"] + mc + pop,
            ["time-bounds"] + mc + pop,
            ["reintroduce"] + mc + ["--type", "5"],
            ["predict"] + mc + pop + ["--horizon", "3"],
            ["simulate"] + common + pop + ["--horizon", "3", "--reps", "5",
                                           "--out", str(tmp_path / "paths.csv")]]
    code = "import gwpva.cli\n" + "".join(f"assert gwpva.cli.main({argv!r}) == 0\n"
                                         for argv in runs)
    assert _modules_loaded(code, "scipy") == []


def test_baseline_loads_no_scipy(synthetic_files):
    # the regression window takes its t critical value from the package's
    # Beta quantile and closes the band in closed form
    table = str(synthetic_files["table"])
    for code in ("import gwpva\nassert gwpva.regression_extinction_interval("
                 "[100, 75, 59, 43, 33, 22]) == (9, 12)",
                 "import gwpva.cli\n"
                 f"assert gwpva.cli.main(['baseline', '--table', {table!r}]) == 0"):
        assert _modules_loaded(code, "scipy") == []


def test_fit_and_scenarios_load_no_scipy(tmp_path):
    # nor NumPy: credible intervals, scenario quantiles and the binomial
    # thinning of a `thinned` prior come from the package's own incomplete
    # beta and gamma kernels and math.comb, and every prior rule, the
    # conjugate updates and the posterior document run on plain floats
    cap = bear_cap()
    table = tmp_path / "bear.csv"
    table.write_text(g.format_life_table(bear_life_table()))
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"format_version": 1, "K": cap.K, "pairs": [
        {"i": i, "j": j, "kappa": cap.cap_of(i, j), "prior": {"rule": "flat"}}
        for i, j in cap.pairs()]}))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"format_version": 1, "K": cap.K, "pairs": [
        *({"i": i, "j": j, "kappa": 1} for i, j in ((1, 2), (2, 3), (3, 4), (5, 5))),
        {"i": 4, "j": 5, "law": "poisson", "prior": {"shape": 2.0, "rate": 1.0}},
        {"i": 5, "j": 1, "law": "thinned",
         "prior": {"litter": [0.3, 0.3, 0.3, 0.1], "sex_ratio": [3.0, 2.0], "weight": 4.0}}]}))
    elicited = tmp_path / "elicited.json"
    elicited.write_text(json.dumps({"format_version": 1, "K": cap.K, "pairs": [
        {"i": 1, "j": 2, "kappa": 1, "prior": {"rule": "alpha", "alpha": [1.5, 2.5]}},
        {"i": 2, "j": 3, "kappa": 1,
         "prior": {"rule": "moments", "means": [0.3, 0.7], "variances": [0.02, 1.5]}},
        {"i": 3, "j": 4, "kappa": 1,
         "prior": {"rule": "expert", "weight": 3.0, "guess": [0.25, 0.75]}},
        *({"i": i, "j": j, "kappa": cap.cap_of(i, j)} for i, j in ((4, 5), (5, 1), (5, 5)))]}))
    runs = [["fit", "--table", str(table), "--prior", str(prior),
             "--out", str(tmp_path / f"{prior.stem}_posterior.json")]
            for prior in (flat, mixed, elicited)]
    runs += [["scenarios", "--posterior", str(tmp_path / f"{name}_posterior.json"),
              "--quantiles", "0.05,0.5,0.95", "--out", str(tmp_path / f"{name}_scenarios.json")]
             for name in ("flat", "elicited")]
    for argv in runs:
        code = f"import gwpva.cli\nassert gwpva.cli.main({argv!r}) == 0\n"
        assert _modules_loaded(code, ("numpy", "scipy")) == [], argv
    alpha = {(p["i"], p["j"]): p["alpha"]
             for p in json.loads((tmp_path / "elicited_posterior.json").read_text())["pairs"]}
    # prior plus counts: (1, 2) alpha, (2, 3) moments (1 - 0.02) 0.3 / 0.02
    # and the flat fallback, (3, 4) expert 3 (0.25, 0.75)
    assert alpha[(1, 2)] == [4.5, 19.5] and alpha[(3, 4)] == [2.75, 14.25]
    assert alpha[(2, 3)] == pytest.approx([14.7, 17.0], rel=1e-15)
    pairs = json.loads((tmp_path / "mixed_posterior.json").read_text())["pairs"]
    assert sorted(p["law"] for p in pairs if (p["i"], p["j"]) in ((4, 5), (5, 1))) == [
        "categorical", "poisson"]
