"""On-disk formats: life-table CSV, prior-config JSON, posterior JSON.

Life tables are CSV with header ``i,j,k,t,count``; ``#`` starts a comment
and blank lines are ignored. Counts are exact integers; a repeated
(i, j, k, t) key is an error, not a merge.

Prior configs and fitted posteriors are JSON documents (schemas in the
README); unknown keys are rejected so that typos fail loudly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .extensions import BetaParams, GammaParams, thinned_offspring_law
from .inference import (HyperParams, PosteriorParams, credible_interval,
                        posterior_mean_matrix, prior_expert, prior_from_moments)
from .model import LifeTable, OffspringCap, Pair

__all__ = [
    "ParseError",
    "PriorConfig",
    "parse_life_table",
    "format_life_table",
    "parse_abundance_series",
    "parse_prior_config",
    "posterior_to_document",
    "posterior_from_document",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1
_TABLE_HEADER = "i,j,k,t,count"


class ParseError(ValueError):
    """Malformed input file; message carries the line or field at fault."""


def _csv_rows(text: str, header: str):
    """Yield (line number, fields) for each data line of a CSV ``text``.

    ``#`` starts a comment and blank lines are skipped; the first other
    line must be ``header`` (matched case-insensitively) and every later
    one must have as many fields. Each ParseError names its line."""
    names = header.lower().split(",")
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in next(csv.reader([line]))]
        if not header_seen:
            if [f.lower() for f in fields] != names:
                raise ParseError(f"line {lineno}: expected header {header}")
            header_seen = True
        elif len(fields) != len(names):
            raise ParseError(f"line {lineno}: expected {len(names)} fields, got {len(fields)}")
        else:
            yield lineno, fields
    if not header_seen:
        raise ParseError("empty input: missing header")


def parse_life_table(text: str, K: int | None = None) -> LifeTable:
    """Parse life-table CSV; K defaults to the largest type index seen."""
    counts: dict[tuple[int, int, int, int], int] = {}
    first: dict[tuple, int] = {}
    for lineno, fields in _csv_rows(text, _TABLE_HEADER):
        try:
            i, j, k, t, n = (int(f) for f in fields)
        except ValueError:
            raise ParseError(f"line {lineno}: all fields must be integers") from None
        if n < 0:
            raise ParseError(f"line {lineno}: negative count {n}")
        key = (i, j, k, t)
        if key in counts:
            raise ParseError(
                f"line {lineno}: duplicate entry for (i={i}, j={j}, k={k}, t={t}) "
                f"(first at line {first[key]})")
        counts[key] = n
        first[key] = lineno
    inferred = max((max(i, j) for i, j, _, _ in counts), default=1)
    horizon = max((t for _, _, _, t in counts), default=0)
    try:
        return LifeTable(K if K is not None else inferred, horizon, counts)
    except ValueError as e:
        raise ParseError(str(e)) from None


def format_life_table(table: LifeTable) -> str:
    """Serialize to CSV; parse_life_table is its exact inverse."""
    out = [_TABLE_HEADER]
    for (i, j, k, t), n in sorted(table.counts.items()):
        out.append(f"{i},{j},{k},{t},{n}")
    return "\n".join(out) + "\n"


def parse_abundance_series(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an abundance series CSV with header ``t,N``."""
    ts, Ns = [], []
    for lineno, (t, N) in _csv_rows(text, "t,N"):
        try:
            ts.append(float(t))
            Ns.append(float(N))
        except ValueError:
            raise ParseError(f"line {lineno}: fields must be numeric") from None
    if not Ns:
        raise ParseError("no data rows")
    return np.asarray(ts), np.asarray(Ns)


@dataclass(frozen=True)
class PriorConfig:
    """Parsed prior specification: structure plus hyperparameters.

    Categorical pairs live in ``hyper``; Poisson-rate pairs (unbounded
    offspring) in ``poisson`` and are absent from the cap."""

    cap: OffspringCap
    hyper: HyperParams
    poisson: Mapping[Pair, GammaParams] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def _build_alpha(spec: dict, kappa: int, where: str,
                 warnings: list[str]) -> np.ndarray:
    rule = spec.get("rule")
    known = {
        "flat": {"rule"},
        "alpha": {"rule", "alpha"},
        "moments": {"rule", "means", "variances"},
        "expert": {"rule", "weight", "guess"},
    }
    if rule not in known:
        raise ParseError(f"{where}: unknown prior rule {rule!r}")
    extra = set(spec) - known[rule]
    if extra:
        raise ParseError(f"{where}: unexpected keys {sorted(extra)}")
    try:
        if rule == "flat":
            return np.ones(kappa + 1)
        if rule == "alpha":
            a = np.asarray(spec["alpha"], dtype=float)
            if len(a) != kappa + 1:
                raise ParseError(f"{where}: alpha must have kappa+1 = {kappa + 1} entries")
            return a
        if rule == "moments":
            a = prior_from_moments(spec["means"], spec["variances"])
            if len(a) != kappa + 1:
                raise ParseError(f"{where}: moments must cover kappa+1 = {kappa + 1} categories")
            if (np.asarray(spec["variances"], dtype=float) >= 1).any():
                warnings.append(f"{where}: elicited variance >= 1; "
                                "falling back to the flat prior for those categories")
            return a
        return prior_expert(spec["weight"], spec["guess"])
    except KeyError as e:
        raise ParseError(f"{where}: missing key {e}") from None
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None


def parse_prior_config(text: str) -> PriorConfig:
    """Parse a prior-config JSON document.

    Pairs omitted from the document are structurally forbidden."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"format_version must be {FORMAT_VERSION}")
    extra = set(doc) - {"format_version", "K", "pairs"}
    if extra:
        raise ParseError(f"unexpected top-level keys {sorted(extra)}")
    K = doc.get("K")
    if not isinstance(K, int) or K < 1:
        raise ParseError("K must be a positive integer")
    pairs = doc.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ParseError("pairs must be a nonempty list")
    kappa: dict[Pair, int] = {}
    alpha: dict[Pair, np.ndarray] = {}
    poisson: dict[Pair, GammaParams] = {}
    warnings: list[str] = []
    for idx, entry in enumerate(pairs):
        where = f"pairs[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        try:
            i, j = int(entry["i"]), int(entry["j"])
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{where}: needs integer i and j") from None
        if not (1 <= i <= K and 1 <= j <= K):
            raise ParseError(f"{where}: pair ({i},{j}) outside 1..{K}")
        if (i, j) in kappa or (i, j) in poisson:
            raise ParseError(f"{where}: duplicate pair ({i},{j})")
        law = entry.get("law", "categorical")
        if law == "categorical":
            extra = set(entry) - {"i", "j", "law", "kappa", "prior"}
            if extra:
                raise ParseError(f"{where}: unexpected keys {sorted(extra)}")
            kap = entry.get("kappa")
            if not isinstance(kap, int) or kap < 1:
                raise ParseError(f"{where}: kappa must be an integer >= 1")
            kappa[(i, j)] = kap
            alpha[(i, j)] = _build_alpha(entry.get("prior", {"rule": "flat"}), kap,
                                         where, warnings)
        elif law == "thinned":
            # sex-ratio-thinned litter model, materialized as an expert-rule
            # categorical prior: the induced female-offspring law at the
            # prior-mean sex ratio, carrying the stated pseudo-observation weight
            extra = set(entry) - {"i", "j", "law", "prior"}
            if extra:
                raise ParseError(f"{where}: unexpected keys {sorted(extra)}")
            spec = entry.get("prior", {})
            try:
                litter = np.asarray(spec["litter"], dtype=float)
                a, b = (float(x) for x in spec["sex_ratio"])
                weight = float(spec.get("weight", 1.0))
            except (KeyError, TypeError, ValueError) as e:
                raise ParseError(f"{where}: thinned prior needs litter, sex_ratio "
                                 f"({e})") from None
            try:
                guess = thinned_offspring_law(litter, BetaParams(a, b).mean)
                alpha[(i, j)] = prior_expert(weight, guess)
            except ValueError as e:
                raise ParseError(f"{where}: {e}") from None
            kappa[(i, j)] = len(litter) - 1
        elif law == "poisson":
            extra = set(entry) - {"i", "j", "law", "prior"}
            if extra:
                raise ParseError(f"{where}: unexpected keys {sorted(extra)}")
            prior = entry.get("prior", {})
            try:
                poisson[(i, j)] = GammaParams(float(prior["shape"]), float(prior["rate"]))
            except (KeyError, TypeError, ValueError) as e:
                raise ParseError(f"{where}: poisson prior needs positive shape and rate "
                                 f"({e})") from None
        else:
            raise ParseError(f"{where}: unknown law {law!r}")
    cap = OffspringCap(K, kappa)
    try:
        hyper = HyperParams(cap, alpha)
    except ValueError as e:
        raise ParseError(str(e)) from None
    return PriorConfig(cap=cap, hyper=hyper, poisson=poisson, warnings=tuple(warnings))


def _check_poisson_pairs(K: int, categorical, poisson) -> None:
    """ParseError, a ValueError, if a Poisson pair lies outside 1..K or is
    one of the ``categorical`` pairs too."""
    for (i, j) in sorted(poisson):
        if not (1 <= i <= K and 1 <= j <= K):
            raise ParseError(f"Poisson pair ({i},{j}) outside 1..{K}")
        if (i, j) in categorical:
            raise ParseError(f"pair ({i},{j}) is both categorical and Poisson")


def posterior_to_document(post: PosteriorParams,
                          poisson: Mapping[Pair, GammaParams] | None = None,
                          meta: dict | None = None) -> dict:
    """Render a fitted posterior as a JSON-ready document with summaries.

    ``mean_matrix`` holds the posterior mean offspring numbers of every
    pair: the Dirichlet mean of a categorical pair, the Gamma mean
    shape/rate of a Poisson pair. ValueError if a Poisson pair lies outside
    1..K or is categorical too."""
    poisson = poisson or {}
    _check_poisson_pairs(post.K, post.alpha, poisson)
    M = posterior_mean_matrix(post)
    for (i, j), g in poisson.items():
        M[i - 1, j - 1] = g.mean
    pairs = []
    for (i, j) in sorted(post.alpha):
        a = np.asarray(post.alpha[(i, j)], dtype=float)
        tot = float(a.sum())
        pairs.append({
            "i": i, "j": j, "law": "categorical",
            "alpha": [float(x) for x in a],
            "mean": [float(x / tot) for x in a],
            "credible_90": [list(credible_interval(a, k, 0.90)) for k in range(len(a))],
        })
    for (i, j) in sorted(poisson):
        g = poisson[(i, j)]
        pairs.append({
            "i": i, "j": j, "law": "poisson",
            "shape": g.shape, "rate": g.rate, "mean": g.mean,
            "credible_90": list(g.credible_interval(0.90)),
        })
    doc = {
        "format_version": FORMAT_VERSION,
        "K": post.K,
        "pairs": pairs,
        "mean_matrix": [[float(x) for x in row] for row in M],
    }
    if meta:
        doc["meta"] = meta
    return doc


def posterior_from_document(doc: dict) -> tuple[PosteriorParams, dict[Pair, GammaParams]]:
    """Rebuild posterior parameters from a fitted-posterior document.

    ParseError on a pair outside 1..K, a Poisson pair on a categorical
    pair, or a pair given twice with the same law."""
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"format_version must be {FORMAT_VERSION}")
    K = doc.get("K")
    if not isinstance(K, int) or K < 1:
        raise ParseError("K must be a positive integer")
    kappa: dict[Pair, int] = {}
    alpha: dict[Pair, np.ndarray] = {}
    poisson: dict[Pair, GammaParams] = {}
    for idx, entry in enumerate(doc.get("pairs", [])):
        try:
            i, j = int(entry["i"]), int(entry["j"])
            law = entry.get("law", "categorical")
            if (i, j) in (poisson if law == "poisson" else alpha):
                raise ValueError(f"duplicate pair ({i},{j})")
            if law == "categorical":
                a = np.asarray(entry["alpha"], dtype=float)
                kappa[(i, j)] = len(a) - 1
                alpha[(i, j)] = a
            elif law == "poisson":
                poisson[(i, j)] = GammaParams(float(entry["shape"]), float(entry["rate"]))
            else:
                raise ValueError(f"unknown law {law!r}")
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"pairs[{idx}]: {e}") from None
    _check_poisson_pairs(K, alpha, poisson)
    try:
        return PosteriorParams(OffspringCap(K, kappa), alpha), poisson
    except ValueError as e:
        raise ParseError(str(e)) from None
