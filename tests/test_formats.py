import json

import numpy as np
import pytest

import gwpva as g
from gwpva.datasets import bear_life_table, synthetic_life_table
from gwpva.formats import ParseError


def test_life_table_roundtrip():
    for table in (synthetic_life_table(), bear_life_table()):
        again = g.parse_life_table(g.format_life_table(table), K=table.K)
        assert again.counts == table.counts
        assert again.K == table.K


def test_parse_life_table_basics():
    text = "i,j,k,t,count\n# a comment\n1,2,0,0,3\n\n1,2,1,0,17\n"
    table = g.parse_life_table(text)
    assert table.K == 2
    assert table.count(1, 2, 1, 0) == 17
    empty = g.parse_life_table("i,j,k,t,count\n")
    assert empty.counts == {}


def test_parse_life_table_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1: expected header"):
        g.parse_life_table("a,b,c\n1,1,0,0,1\n")
    with pytest.raises(ParseError, match="line 3: duplicate .*first at line 2"):
        g.parse_life_table("i,j,k,t,count\n1,1,0,0,1\n1,1,0,0,2\n")
    with pytest.raises(ParseError, match="line 2: negative count"):
        g.parse_life_table("i,j,k,t,count\n1,1,0,0,-1\n")
    with pytest.raises(ParseError, match="line 2: all fields must be integers"):
        g.parse_life_table("i,j,k,t,count\n1,1,0,0,x\n")
    with pytest.raises(ParseError, match="expected 5 fields"):
        g.parse_life_table("i,j,k,t,count\n1,1,0,0\n")
    with pytest.raises(ParseError, match="missing header"):
        g.parse_life_table("# only comments\n")


def test_parse_abundance_series():
    ts, Ns = g.parse_abundance_series("t,N\n0,100\n1,75\n")
    assert ts.tolist() == [0.0, 1.0]
    assert Ns.tolist() == [100.0, 75.0]
    with pytest.raises(ParseError):
        g.parse_abundance_series("t,N\n")


def _config(pairs):
    return json.dumps({"format_version": 1, "K": 2, "pairs": pairs})


def test_parse_prior_config_rules():
    cfg = g.parse_prior_config(_config([
        {"i": 1, "j": 1, "kappa": 2, "prior": {"rule": "flat"}},
        {"i": 1, "j": 2, "kappa": 1,
         "prior": {"rule": "alpha", "alpha": [2.0, 5.0]}},
        {"i": 2, "j": 1, "kappa": 1,
         "prior": {"rule": "expert", "weight": 4.0, "guess": [0.25, 0.75]}},
        {"i": 2, "j": 2, "kappa": 1,
         "prior": {"rule": "moments", "means": [0.4, 0.6], "variances": [0.1, 0.1]}},
    ]))
    assert np.array_equal(cfg.hyper.alpha[(1, 1)], np.ones(3))
    assert np.array_equal(cfg.hyper.alpha[(1, 2)], [2.0, 5.0])
    assert np.array_equal(cfg.hyper.alpha[(2, 1)], [1.0, 3.0])
    assert cfg.hyper.alpha[(2, 2)] == pytest.approx([3.6, 5.4])
    assert cfg.warnings == ()


def test_parse_prior_config_moments_fallback_warns():
    cfg = g.parse_prior_config(_config([
        {"i": 1, "j": 1, "kappa": 1,
         "prior": {"rule": "moments", "means": [0.4, 0.6], "variances": [1.5, 0.1]}},
    ]))
    assert cfg.hyper.alpha[(1, 1)][0] == 1.0
    assert len(cfg.warnings) == 1 and "variance" in cfg.warnings[0]


def test_parse_prior_config_thinned_and_poisson():
    cfg = g.parse_prior_config(_config([
        {"i": 1, "j": 1, "law": "thinned",
         "prior": {"litter": [0.0, 0.0, 1.0], "sex_ratio": [1.0, 1.0], "weight": 8.0}},
        {"i": 2, "j": 2, "law": "poisson", "prior": {"shape": 2.0, "rate": 3.0}},
    ]))
    # point mass at litter 2, Beta(1,1) mean 1/2 -> Binomial(2, 1/2) guess
    assert cfg.hyper.alpha[(1, 1)] == pytest.approx([2.0, 4.0, 2.0])
    assert cfg.poisson[(2, 2)] == g.GammaParams(2.0, 3.0)
    assert cfg.cap.is_forbidden(1, 2)


def test_parse_prior_config_rejections():
    with pytest.raises(ParseError, match="format_version"):
        g.parse_prior_config(json.dumps({"format_version": 2, "K": 1, "pairs": []}))
    with pytest.raises(ParseError, match="invalid JSON"):
        g.parse_prior_config("{")
    with pytest.raises(ParseError, match="unknown prior rule"):
        g.parse_prior_config(_config([
            {"i": 1, "j": 1, "kappa": 1, "prior": {"rule": "magic"}}]))
    with pytest.raises(ParseError, match="unexpected keys"):
        g.parse_prior_config(_config([
            {"i": 1, "j": 1, "kappa": 1, "prior": {"rule": "flat", "alpha": [1]}}]))
    with pytest.raises(ParseError, match="duplicate pair"):
        g.parse_prior_config(_config([
            {"i": 1, "j": 1, "kappa": 1}, {"i": 1, "j": 1, "kappa": 2}]))
    with pytest.raises(ParseError, match="outside"):
        g.parse_prior_config(_config([{"i": 3, "j": 1, "kappa": 1}]))
    with pytest.raises(ParseError, match="unknown law"):
        g.parse_prior_config(_config([{"i": 1, "j": 1, "law": "zeta"}]))


def test_parse_prior_config_rejects_nonfinite():
    # JSON's NaN and Infinity literals reach the parser as floats
    for bad in (float("nan"), float("inf")):
        for entry in ({"i": 2, "j": 1, "kappa": 2, "prior": {"rule": "alpha",
                                                             "alpha": [1.0, bad, 1.0]}},
                      {"i": 2, "j": 1, "kappa": 1, "prior": {"rule": "expert", "weight": bad,
                                                             "guess": [0.5, 0.5]}}):
            with pytest.raises(ParseError, match=r"\(2, 1\) must be finite"):
                g.parse_prior_config(_config([{"i": 1, "j": 1, "kappa": 1}, entry]))
        with pytest.raises(ParseError, match=r"pairs\[1\].*finite"):
            g.parse_prior_config(_config([
                {"i": 1, "j": 1, "kappa": 1},
                {"i": 2, "j": 2, "law": "poisson", "prior": {"shape": bad, "rate": 1.0}}]))


def test_posterior_document_roundtrip(bear_posterior):
    doc = g.posterior_to_document(
        bear_posterior, poisson={(1, 1): g.GammaParams(4.0, 4.0)},
        meta={"source": "unit test"})
    text = json.dumps(doc)  # must be JSON-serializable
    post, poisson = g.posterior_from_document(json.loads(text))
    for pair, a in bear_posterior.alpha.items():
        assert np.array_equal(post.alpha[pair], a)
    assert poisson[(1, 1)] == g.GammaParams(4.0, 4.0)
    assert doc["meta"] == {"source": "unit test"}
    cat = next(p for p in doc["pairs"] if (p["i"], p["j"]) == (1, 2))
    assert cat["alpha"] == [4.0, 18.0]
    assert cat["mean"] == pytest.approx([4 / 22, 18 / 22])


def test_posterior_from_document_rejections():
    with pytest.raises(ParseError):
        g.posterior_from_document({"format_version": 0})
    with pytest.raises(ParseError):
        g.posterior_from_document({"format_version": 1, "K": 1,
                                   "pairs": [{"i": 1, "j": 1, "law": "zeta"}]})
