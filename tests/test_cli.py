import json

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


def test_missing_file_is_io_error(capsys):
    assert main(["viability", "--posterior", "/nonexistent.json",
                 "--seed", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "io"


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
    capsys.readouterr()


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
