import json
import re

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
    # keys the table itself rejects name their record's line too
    with pytest.raises(ParseError, match=r"^line 3: bad key \(i=1, j=1, k=-1, t=0\)$"):
        g.parse_life_table("i,j,k,t,count\n1,1,0,0,3\n1,1,-1,0,3\n", K=5)
    with pytest.raises(ParseError, match=r"^line 3: type pair \(1,6\) outside 1\.\.5$"):
        g.parse_life_table("i,j,k,t,count\n1,1,0,0,3\n1,6,1,0,3\n", K=5)


def test_parse_abundance_series():
    ts, Ns = g.parse_abundance_series("t,N\n0,100\n1,75\n")
    assert ts == (0.0, 1.0)
    assert Ns == (100.0, 75.0)
    with pytest.raises(ParseError):
        g.parse_abundance_series("t,N\n")


def test_abundance_series_reads_lines_as_life_tables_do():
    # one line reader: comments, blank lines, a case-insensitive header,
    # and the line named in every error
    ts, Ns = g.parse_abundance_series("# counts\nT,n\n\n0,100  # spring\n1, 75\n")
    assert (ts, Ns) == ((0.0, 1.0), (100.0, 75.0))
    for text, message in (("t,count\n0,1\n", "line 1: expected header t,N"),
                          ("t,N\n0,1\n1,2,3\n", "line 3: expected 2 fields, got 3"),
                          ("t,N\n0,x\n", "line 2: fields must be numeric"),
                          ("# only comments\n", "empty input: missing header")):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            g.parse_abundance_series(text)


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


def test_posterior_document_credible_intervals_match_scipy_stats(bear_posterior,
                                                                  synthetic_posterior):
    from scipy import stats

    # the Gamma pairs are free pairs of the bear pattern; the K = 1
    # synthetic posterior has no free pair, so only its categorical pair
    # is checked
    gammas = {(1, 1): g.GammaParams(4.0, 4.0), (2, 2): g.GammaParams(0.5, 17.0),
              (3, 3): g.GammaParams(140.5, 0.25)}
    lo = (1 - 0.90) / 2  # the document's default level, as the library rounds it
    for post, poisson in ((bear_posterior, gammas), (synthetic_posterior, {})):
        doc = g.posterior_to_document(post, poisson=poisson)
        entry = {(p["law"], p["i"], p["j"]): p["credible_90"] for p in doc["pairs"]}
        for pair, a in post.alpha.items():
            want = [[stats.beta(ak, sum(a) - ak).ppf(q) for q in (lo, 1 - lo)] for ak in a]
            assert np.array(entry[("categorical", *pair)]) == pytest.approx(
                np.array(want), rel=1e-13, abs=0)
        for pair, gp in poisson.items():
            d = stats.gamma(gp.shape, scale=1.0 / gp.rate)
            assert entry[("poisson", *pair)] == pytest.approx([d.ppf(lo), d.ppf(1 - lo)],
                                                              rel=1e-13, abs=0)


def test_posterior_document_poisson_pairs(bear_posterior, synthetic_posterior):
    # a Poisson pair's Gamma mean goes into the mean matrix
    gammas = {(1, 1): g.GammaParams(4.0, 5.0), (2, 2): g.GammaParams(3.0, 4.0)}
    doc = g.posterior_to_document(bear_posterior, poisson=gammas)
    want = np.array(g.posterior_mean_matrix(bear_posterior))
    want[0, 0], want[1, 1] = 0.8, 0.75
    assert np.array_equal(doc["mean_matrix"], want)
    # a Poisson pair outside 1..K, or on a categorical pair, is rejected
    # when the document is written and when it is read
    for post, pair in ((bear_posterior, (6, 1)), (bear_posterior, (1, 0)),
                       (synthetic_posterior, (1, 1)), (bear_posterior, (1, 2))):
        with pytest.raises(ValueError, match=rf"\({pair[0]},{pair[1]}\)"):
            g.posterior_to_document(post, poisson={pair: g.GammaParams(1.0, 1.0)})
        doc = g.posterior_to_document(post)
        doc["pairs"].append({"i": pair[0], "j": pair[1], "law": "poisson",
                             "shape": 1.0, "rate": 1.0})
        with pytest.raises(ParseError, match=rf"\({pair[0]},{pair[1]}\)"):
            g.posterior_from_document(doc)


def test_integer_fields_must_be_json_integers():
    # int() read "i": 1.9 as 1, "i": "1" as 1 and true as 1: K, i, j and
    # kappa must be ints, and not bools
    def prior(K=2, **second):
        return json.dumps({"format_version": 1, "K": K, "pairs": [
            {"i": 1, "j": 1, "kappa": 1}, {"i": 1, "j": 2, "kappa": 1, **second}]})

    def posterior(K=2, **second):
        return {"format_version": 1, "K": K, "pairs": [
            {"i": 1, "j": 1, "alpha": [1.0, 2.0]}, {"i": 1, "j": 2, "alpha": [1.0, 2.0], **second}]}

    pair = r"^pairs\[1\]: needs integer i and j$"
    for bad in (1.9, 2.7, 1.0, True, "1", None):
        with pytest.raises(ParseError, match=pair):
            g.parse_prior_config(prior(i=bad))
        with pytest.raises(ParseError, match=pair):
            g.parse_prior_config(prior(j=bad))
        with pytest.raises(ParseError, match=r"^pairs\[1\]: kappa must be an integer >= 1$"):
            g.parse_prior_config(prior(kappa=bad))
        with pytest.raises(ParseError, match=pair):
            g.posterior_from_document(posterior(i=bad))
        with pytest.raises(ParseError, match=pair):
            g.posterior_from_document(posterior(j=bad))
        with pytest.raises(ParseError, match=r"^K must be a positive integer$"):
            g.parse_prior_config(prior(K=bad))
        with pytest.raises(ParseError, match=r"^K must be a positive integer$"):
            g.posterior_from_document(posterior(K=bad))
    assert g.parse_prior_config(prior()).cap.kappa == {(1, 1): 1, (1, 2): 1}
    assert g.posterior_from_document(posterior())[0].cap.kappa == {(1, 1): 1, (1, 2): 1}


def test_parse_errors_name_the_rule_broken():
    # a one-entry litter makes kappa = 0, which the cap read as a forbidden
    # pair; a pair that is not an object failed on string indexing
    with pytest.raises(ParseError, match=r"^pairs\[0\]: litter needs at least 2 entries "
                       r"\(kappa >= 1\)$"):
        g.parse_prior_config(_config([{"i": 1, "j": 1, "law": "thinned",
                                       "prior": {"litter": [1.0], "sex_ratio": [1.0, 1.0]}}]))
    for entry in ("x", 3, None, [1, 1]):
        with pytest.raises(ParseError, match=r"^pairs\[1\]: must be an object$"):
            g.posterior_from_document({"format_version": 1, "K": 1, "pairs": [
                {"i": 1, "j": 1, "alpha": [1.0, 2.0]}, entry]})


def test_posterior_from_document_rejections():
    with pytest.raises(ParseError):
        g.posterior_from_document({"format_version": 0})
    # no pair at all is a parse error, not a NumPy one from the sampler
    for pairs in ({}, {"pairs": None}, {"pairs": {}}, {"pairs": []}):
        with pytest.raises(ParseError, match=r"^pairs must be a nonempty list$"):
            g.posterior_from_document({"format_version": 1, "K": 1, **pairs})
    with pytest.raises(ParseError):
        g.posterior_from_document({"format_version": 1, "K": 1,
                                   "pairs": [{"i": 1, "j": 1, "law": "zeta"}]})


def test_posterior_from_document_needs_two_alpha_entries():
    # kappa = len(alpha) - 1 must be >= 1: a one-entry or empty alpha names
    # that rule and its pair, not a forbidden pair or a negative cap
    for a in ([5.0], []):
        pairs = [{"i": 1, "j": 1, "alpha": [1.0, 2.0]}, {"i": 1, "j": 2, "alpha": a}]
        with pytest.raises(ParseError, match=rf"^pairs\[1\]: pair \(1,2\): alpha needs at "
                           rf"least 2 entries \(kappa >= 1\)$"):
            g.posterior_from_document({"format_version": 1, "K": 2, "pairs": pairs})


def test_posterior_from_document_names_the_bad_entry_once(bear_posterior):
    # a pair given twice with the same law is an error, not a silent overwrite
    for law, entry in (("categorical", {"alpha": [1.0, 2.0]}),
                       ("poisson", {"shape": 1.0, "rate": 1.0})):
        one = {"i": 1, "j": 1, "law": law, **entry}
        with pytest.raises(ParseError, match=r"^pairs\[1\]: duplicate pair \(1,1\)$"):
            g.posterior_from_document({"format_version": 1, "K": 1, "pairs": [one, one]})
    doc = g.posterior_to_document(bear_posterior)
    doc["pairs"].append(dict(doc["pairs"][0]))
    with pytest.raises(ParseError, match=rf"^pairs\[{len(doc['pairs']) - 1}\]: duplicate"):
        g.posterior_from_document(doc)
    with pytest.raises(ParseError, match=r"^pairs\[0\]: unknown law 'zeta'$"):
        g.posterior_from_document({"format_version": 1, "K": 1,
                                   "pairs": [{"i": 1, "j": 1, "law": "zeta"}]})
    # a categorical pair outside 1..K is a parse error too
    with pytest.raises(ParseError, match=r"^pairs\[0\]: pair \(1,2\) outside 1\.\.1$"):
        g.posterior_from_document({"format_version": 1, "K": 1,
                                   "pairs": [{"i": 1, "j": 2, "alpha": [1.0, 1.0]}]})


def test_one_pair_list_rule_for_both_documents_and_the_writer(bear_posterior):
    # the prior config, the posterior document and the writer share one
    # pair-list check: a pair may appear once whatever its law, and every
    # pair-list fault names its entry
    cat = {"i": 1, "j": 1, "alpha": [1.0, 2.0]}
    pois = {"i": 1, "j": 1, "law": "poisson", "shape": 1.0, "rate": 1.0}
    for pairs in ([cat, pois], [pois, cat]):
        with pytest.raises(ParseError, match=r"^pairs\[1\]: duplicate pair \(1,1\)$"):
            g.posterior_from_document({"format_version": 1, "K": 1, "pairs": pairs})
    with pytest.raises(ParseError, match=r"^pairs\[1\]: duplicate pair \(1,1\)$"):
        g.parse_prior_config(_config([
            {"i": 1, "j": 1, "kappa": 1},
            {"i": 1, "j": 1, "law": "poisson", "prior": {"shape": 1.0, "rate": 1.0}}]))
    with pytest.raises(ParseError, match=r"^pairs\[1\]: pair \(2,1\) outside 1\.\.1$"):
        g.posterior_from_document({"format_version": 1, "K": 1,
                                   "pairs": [cat, {**pois, "i": 2}]})
    for doc in ([], "x", 1, None):
        with pytest.raises(ParseError, match=r"^top level must be an object$"):
            g.posterior_from_document(doc)
        with pytest.raises(ParseError, match=r"^top level must be an object$"):
            g.parse_prior_config(json.dumps(doc))
    # the writer refuses what the reader would, naming the rendered entry:
    # bear's 6 categorical pairs come first
    with pytest.raises(ParseError, match=r"^pairs\[6\]: pair \(6,1\) outside 1\.\.5$"):
        g.posterior_to_document(bear_posterior, poisson={(6, 1): g.GammaParams(1.0, 1.0)})
    with pytest.raises(ParseError, match=r"^pairs\[6\]: duplicate pair \(1,2\)$"):
        g.posterior_to_document(bear_posterior, poisson={(1, 2): g.GammaParams(1.0, 1.0)})
