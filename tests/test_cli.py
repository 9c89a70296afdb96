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
from gwpva.cli import main
from gwpva.datasets import bear_life_table, synthetic_life_table


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
    # two entries for one pair, and a categorical pair outside 1..K
    for pairs in ([{"i": 1, "j": 1, "alpha": [1.0, 2.0]}] * 2,
                  [{"i": 1, "j": 2, "alpha": [1.0, 2.0]}]):
        posterior = tmp_path / "posterior.json"
        posterior.write_text(json.dumps({"format_version": 1, "K": 1, "pairs": pairs}))
        assert main(["viability", "--posterior", str(posterior), "--seed", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "parse"


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
    # only the upper end rests on a bound, so no two-sided level is claimed
    printed = capsys.readouterr().out
    assert "P(T > t_plus) <= 0.05" in printed and "t_minus carries no guarantee" in printed
    assert "probability >=" not in printed


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


def _scipy_modules_loaded(code: str) -> list[str]:
    """SciPy modules in sys.modules after running ``code`` in a fresh interpreter
    (this test session has SciPy loaded already)."""
    src = str(Path(g.__file__).resolve().parents[1])
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_import_loads_no_scipy():
    assert _scipy_modules_loaded("import gwpva, gwpva.cli") == []


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
    assert _scipy_modules_loaded(code) == []


def test_baseline_loads_scipy_special_only(synthetic_files):
    # the regression window takes its t critical value from scipy.special and
    # closes the band in closed form: no root finder, no scipy.stats or linalg
    table = str(synthetic_files["table"])
    for code in ("import gwpva\nassert gwpva.regression_extinction_interval("
                 "[100, 75, 59, 43, 33, 22]) == (9, 12)",
                 "import gwpva.cli\n"
                 f"assert gwpva.cli.main(['baseline', '--table', {table!r}]) == 0"):
        loaded = _scipy_modules_loaded(code)
        assert "scipy.special" in loaded
        for absent in ("scipy.optimize", "scipy.stats", "scipy.linalg"):
            assert not any(m == absent or m.startswith(absent + ".") for m in loaded)
