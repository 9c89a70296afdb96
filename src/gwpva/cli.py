"""Command-line interface.

Every stochastic subcommand requires an explicit --seed and is
bit-reproducible from its inputs. Human-readable summaries (4 significant
digits) go to stdout; the full machine-readable record goes to --out and
is never rounded. Failures exit nonzero with a one-line JSON error on
stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import log_growth_moments, regression_extinction_interval
from .extensions import poisson_posterior
from .formats import (FORMAT_VERSION, ParseError, format_life_table,
                      parse_abundance_series, parse_life_table, parse_prior_config,
                      posterior_from_document, posterior_to_document)
from .inference import posterior_update, scenario_draws
from .model import LifeTable, ParameterDraw, PopulationState, abundances_from_table
from .montecarlo import (PosteriorEnsemble, effective_population_size,
                         mc_extinction_probability, mc_reintroduction,
                         mc_short_time_abundance, mc_time_bounds,
                         mc_viability_probability)
from .sampling import SeedSpec, sample_parameter_draw, simulate


class CliError(Exception):
    """User-facing failure with a stable machine-readable payload."""

    def __init__(self, message: str, kind: str = "error"):
        super().__init__(message)
        self.kind = kind


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}", kind="io") from None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fmt(x: float) -> str:
    return f"{float(x):.4g}"


def _write_out(path: str | None, doc: dict) -> None:
    if path is None:
        return
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(payload)


def _load_posterior(path: str):
    text = _read(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: invalid JSON: {e}", kind="parse") from None
    try:
        post, poisson = posterior_from_document(doc)
    except ParseError as e:
        raise CliError(f"{path}: {e}", kind="parse") from None
    if poisson:
        raise CliError("posterior contains Poisson-rate pairs; Monte Carlo "
                       "subcommands support categorical posteriors only",
                       kind="unsupported")
    return post, _sha256(text)


def _parse_pop(text: str, K: int) -> PopulationState:
    try:
        vals = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise CliError(f"--pop must be comma-separated integers, got {text!r}") from None
    if len(vals) != K:
        raise CliError(f"--pop needs {K} entries, got {len(vals)}")
    try:
        return PopulationState(vals)
    except ValueError as e:
        raise CliError(str(e)) from None


def _answer(args, doc: dict, lines: list[str], warnings: dict | None = None,
            **digests) -> int:
    """Finish a subcommand: write ``doc`` (plus ``warnings``, if given, and a
    provenance record of the tool, the run's arguments and the input
    ``digests``) to --out, print ``lines``, then one line per nonzero warning."""
    prov = {"format_version": FORMAT_VERSION, "tool_version": __version__, **digests}
    for name in ("seed", "nprec", "alpha", "level", "threshold", "horizon"):
        if hasattr(args, name):
            prov[name] = getattr(args, name)
    doc = {**doc, "provenance": prov}
    if warnings is not None:
        doc["warnings"] = warnings
    _write_out(args.out, doc)
    for line in lines:
        print(line)
    for k, v in sorted((warnings or {}).items()):
        if v:
            print(f"warning: {k} = {v}")
    return 0


def _estimate_doc(quantity: str, est, **extra) -> dict:
    """The ``--out`` fields of an ``MCEstimate``."""
    return {"quantity": quantity, **extra, "value": est.value, "std_error": est.std_error,
            "error_bound": est.error_bound, "n_prec": est.n_prec, "n_used": est.n_used}


# ---- subcommands -----------------------------------------------------------


def cmd_fit(args) -> int:
    table_text = _read(args.table)
    prior_text = _read(args.prior)
    try:
        config = parse_prior_config(prior_text)
        table = parse_life_table(table_text, K=config.cap.K)
    except ParseError as e:
        raise CliError(str(e), kind="parse") from None
    # a Poisson pair has no cap: its records update its Gamma prior, not the
    # Dirichlet posterior, so they are not judged against the cap
    poisson = config.poisson
    categorical, records = {}, {pair: ([], []) for pair in poisson}  # (k, parents)
    for (i, j, k, t), n in table.counts.items():
        if (i, j) in records:
            records[(i, j)][0].append(k)
            records[(i, j)][1].append(n)
        else:
            categorical[(i, j, k, t)] = n
    try:
        post = posterior_update(config.hyper, LifeTable(table.K, table.horizon, categorical))
    except ValueError as e:
        raise CliError(str(e), kind="validation") from None
    poisson_post = {pair: poisson_posterior(g, *records[pair]) for pair, g in poisson.items()}
    meta = {"table_sha256": _sha256(table_text), "prior_sha256": _sha256(prior_text),
            "table_horizon": table.horizon}
    doc = posterior_to_document(post, poisson=poisson_post, meta=meta)
    _write_out(args.out, doc)
    for w in config.warnings:
        print(f"warning: {w}")
    print(f"fitted posterior over {len(post.alpha)} transition(s), K={post.K}")
    for (i, j) in sorted(post.alpha):
        a = post.alpha[(i, j)]
        means = " ".join(_fmt(x / a.sum()) for x in a)
        print(f"  p[{i},{j}] ~ Dirichlet({', '.join(_fmt(x) for x in a)}); "
              f"mean ({means})")
    for (i, j) in sorted(poisson_post):
        g = poisson_post[(i, j)]
        print(f"  rate[{i},{j}] ~ Gamma(shape={_fmt(g.shape)}, rate={_fmt(g.rate)}); "
              f"mean {_fmt(g.mean)}")
    return 0


def cmd_viability(args) -> int:
    post, digest = _load_posterior(args.posterior)
    est = mc_viability_probability(post, n_prec=args.nprec, master_seed=args.seed)
    return _answer(args, _estimate_doc("viability_probability", est), [
        f"P(lambda > 1 | data) = {_fmt(est.value)} (std error {_fmt(est.std_error)}, "
        f"worst-case {_fmt(est.error_bound)}, n_prec {est.n_prec})"],
        est.warnings, posterior_sha256=digest)


def cmd_extinction(args) -> int:
    post, digest = _load_posterior(args.posterior)
    pop = _parse_pop(args.pop, post.K)
    est = mc_extinction_probability(post, pop, n_prec=args.nprec,
                                    master_seed=args.seed)
    doc = _estimate_doc("extinction_probability", est, population=list(pop.N))
    return _answer(args, doc, [
        f"P(extinction | data, N={list(pop.N)}) = {_fmt(est.value)} "
        f"(std error {_fmt(est.std_error)}, n_prec {est.n_prec})"],
        est.warnings, posterior_sha256=digest)


def cmd_time_bounds(args) -> int:
    post, digest = _load_posterior(args.posterior)
    pop = _parse_pop(args.pop, post.K)
    res = mc_time_bounds(post, pop, alpha=args.alpha, n_prec=args.nprec,
                         master_seed=args.seed)
    if args.curves:
        lines = ["t,upper,lower"]
        for t, u, lo in zip(res.times, res.upper_curve, res.lower_curve):
            lines.append(f"{int(t)},{float(u)!r},{float(lo)!r}")
        Path(args.curves).write_text("\n".join(lines) + "\n")
    doc = {"quantity": "extinction_time_bounds", "population": list(pop.N),
           "alpha": res.alpha, "t_minus": res.t_minus, "t_plus": res.t_plus,
           "n_prec": res.n_prec, "n_used": res.n_used}
    tp = "open-ended" if res.t_plus is None else str(res.t_plus)
    return _answer(args, doc, [
        f"extinction time in ({res.t_minus}, {tp}]: P(T > t_plus) <= {_fmt(res.alpha)} "
        "under the averaged upper bound; t_minus carries no guarantee "
        f"(subcritical draws: {res.n_used}/{res.n_prec})"],
        res.warnings, posterior_sha256=digest)


def cmd_reintroduce(args) -> int:
    post, digest = _load_posterior(args.posterior)
    ens = PosteriorEnsemble(post, n_prec=args.nprec, master_seed=args.seed)
    # first: it checks --threshold and --type before any fixed point is solved
    eff = effective_population_size(post, args.type, threshold=args.threshold,
                                    ensemble=ens)
    summary = mc_reintroduction(post, ensemble=ens)
    if args.hist:
        lines = ["bin_lo,bin_hi," + ",".join(f"type_{i+1}" for i in range(post.K))]
        for b in range(summary.histograms.shape[1]):
            row = [repr(float(summary.bin_edges[b])), repr(float(summary.bin_edges[b + 1]))]
            row += [str(int(summary.histograms[i, b])) for i in range(post.K)]
            lines.append(",".join(row))
        Path(args.hist).write_text("\n".join(lines) + "\n")
    doc = {"quantity": "reintroduction", "threshold": args.threshold, "type": args.type,
           "effective_population_size": eff,
           "mean_extinction_by_type": [float(x) for x in summary.mean],
           "std_error": [float(x) for x in summary.std_error],
           "n_prec": summary.n_prec, "n_used": summary.n_used}
    printed = ["posterior mean per-founder extinction probability by type: "
               + " ".join(_fmt(x) for x in summary.mean)]
    if eff is None:
        printed.append(f"no founder count of type {args.type} reaches extinction risk "
                       f"< {_fmt(args.threshold)}")
    else:
        printed.append(f"effective population size (type {args.type}, threshold "
                       f"{_fmt(args.threshold)}): {eff}")
    return _answer(args, doc, printed, summary.warnings, posterior_sha256=digest)


def cmd_predict(args) -> int:
    post, digest = _load_posterior(args.posterior)
    pop = _parse_pop(args.pop, post.K)
    curve = mc_short_time_abundance(post, pop, horizon=args.horizon,
                                    n_prec=args.nprec, master_seed=args.seed)
    doc = {"quantity": "abundance_forecast", "population": list(pop.N),
           "horizon": args.horizon,
           "curve": [{"t": t, "mean": [float(x) for x in est.value],
                      "std_error": [float(x) for x in est.std_error]}
                     for t, est in enumerate(curve)],
           "n_prec": curve[0].n_prec}
    lines = ["t  " + "  ".join(f"E[N_{i+1}] (se)" for i in range(post.K))]
    for t, est in enumerate(curve):
        lines.append(f"{t}  " + "  ".join(
            f"{_fmt(m)} ({_fmt(s)})" for m, s in zip(np.atleast_1d(est.value),
                                                    np.atleast_1d(est.std_error))))
    return _answer(args, doc, lines, posterior_sha256=digest)


def cmd_simulate(args) -> int:
    if (args.posterior is None) == (args.draw is None):
        raise CliError("exactly one of --posterior or --draw is required")
    if args.reps < 1:
        raise CliError(f"--reps must be >= 1, got {args.reps}")
    post, _ = _load_posterior(args.posterior or args.draw)
    draw = None
    if args.draw:  # a posterior document whose alphas, normalized, are the laws
        draw = ParameterDraw(post.cap, {pair: a / a.sum() for pair, a in post.alpha.items()})
    pop = _parse_pop(args.pop, post.K)
    traj_lines = ["rep,t," + ",".join(f"N_{i+1}" for i in range(post.K))]
    for rep in range(args.reps):
        rng = SeedSpec(args.seed, rep).rng()
        traj = simulate(draw or sample_parameter_draw(post, rng), pop, args.horizon, rng)
        for st in traj.states:
            traj_lines.append(f"{rep},{st.time}," + ",".join(str(n) for n in st.N))
        if rep == 0:
            first_table = traj.table
    if args.out:
        Path(args.out).write_text("\n".join(traj_lines) + "\n")
    if args.table_out:
        Path(args.table_out).write_text(format_life_table(first_table))
    last = traj_lines[-1].split(",")
    print(f"simulated {args.reps} path(s) of horizon {args.horizon} "
          f"(seed {args.seed}); last state of final path: t={last[1]}, "
          f"N=({', '.join(last[2:])})")
    return 0


def cmd_baseline(args) -> int:
    text = _read(args.table)
    try:
        if args.series:
            t, N = parse_abundance_series(text)
            # the log-growth moments take consecutive observations as one step apart
            if np.any(np.diff(t) != 1):
                raise CliError("--series needs consecutive times t, t + 1, ...",
                               kind="validation")
        else:
            states = abundances_from_table(parse_life_table(text))
            N = np.array([s.total for s in states], dtype=float)
    except (ParseError, ValueError) as e:
        raise CliError(str(e), kind="parse") from None
    N = np.trim_zeros(N, "b")  # observations after extinction have no log growth rate
    try:
        moments = log_growth_moments(N)
        interval = regression_extinction_interval(N, level=args.level)
    except ValueError as e:
        raise CliError(str(e), kind="validation") from None
    doc = {"quantity": "baseline", "r_d": moments.r_d, "v_r": moments.v_r,
           "n_ratios": moments.n_ratios, "level": args.level,
           "regression_interval": list(interval)}
    return _answer(args, doc, [
        f"log growth rate: mean {_fmt(moments.r_d)}, variance {_fmt(moments.v_r)}",
        f"naive regression extinction window ({args.level * 100:g}% band): "
        f"{interval[0]} to {interval[1]} steps after the last observation"],
        table_sha256=_sha256(text))


def cmd_scenarios(args) -> int:
    post, digest = _load_posterior(args.posterior)
    try:
        qs = [float(q) for q in args.quantiles.split(",")]
    except ValueError:
        raise CliError(f"--quantiles must be comma-separated reals, "
                       f"got {args.quantiles!r}") from None
    try:
        scenarios = scenario_draws(post, qs)
    except ValueError as e:
        raise CliError(str(e), kind="validation") from None
    doc = {"quantity": "scenarios",
           "scenarios": [{"label": sc.label, "quantile": sc.quantile,
                          "laws": {f"{i},{j}": [float(x) for x in v]
                                   for (i, j), v in sorted(sc.draw.p.items())}}
                         for sc in scenarios]}
    lines = []
    for sc in scenarios:
        lines.append(f"scenario {sc.label} (quantile {_fmt(sc.quantile)}):")
        lines += [f"  p[{i},{j}] = ({', '.join(_fmt(x) for x in v)})"
                  for (i, j), v in sorted(sc.draw.p.items())]
    return _answer(args, doc, lines, posterior_sha256=digest)


# ---- parser ----------------------------------------------------------------


def _add_mc_flags(p, pop: bool = True):
    p.add_argument("--posterior", required=True, help="fitted posterior JSON")
    if pop:
        p.add_argument("--pop", required=True,
                       help="comma-separated abundance per type, e.g. 2,2,2,2,10")
    p.add_argument("--nprec", type=int, default=2500, help="Monte Carlo replicates")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", help="write full machine-readable record (JSON)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gwpva",
        description="Bayesian Galton-Watson population viability analysis")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the posterior from a life table and prior")
    p.add_argument("--table", required=True, help="life-table CSV")
    p.add_argument("--prior", required=True, help="prior configuration JSON")
    p.add_argument("--out", help="write fitted posterior JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("viability", help="posterior probability of viability")
    _add_mc_flags(p, pop=False)
    p.set_defaults(func=cmd_viability)

    p = sub.add_parser("extinction", help="posterior extinction probability")
    _add_mc_flags(p)
    p.set_defaults(func=cmd_extinction)

    p = sub.add_parser("time-bounds", help="extinction-time bracket")
    _add_mc_flags(p)
    p.add_argument("--alpha", type=float, default=0.05, help="risk level per side")
    p.add_argument("--curves", help="write averaged bound curves (CSV)")
    p.set_defaults(func=cmd_time_bounds)

    p = sub.add_parser("reintroduce", help="per-type founder risk and effective size")
    _add_mc_flags(p, pop=False)
    p.add_argument("--threshold", type=float, default=0.05,
                   help="acceptable extinction probability")
    p.add_argument("--type", type=int, required=True, help="founder type index (1-based)")
    p.add_argument("--hist", help="write per-type s histograms (CSV)")
    p.set_defaults(func=cmd_reintroduce)

    p = sub.add_parser("predict", help="short-term expected abundance")
    _add_mc_flags(p)
    p.add_argument("--horizon", type=int, required=True, help="steps ahead")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="simulate trajectories")
    p.add_argument("--posterior", help="sample parameters from this posterior JSON")
    p.add_argument("--draw", help="fixed parameter JSON (posterior schema; "
                   "alpha normalized to a law)")
    p.add_argument("--pop", required=True, help="initial abundance per type")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--out", help="write trajectories CSV")
    p.add_argument("--table-out", help="write the first replicate's life table CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="classical log-growth diagnostics")
    p.add_argument("--table", required=True,
                   help="life-table CSV (or abundance series with --series)")
    p.add_argument("--series", action="store_true",
                   help="input is a t,N abundance series")
    p.add_argument("--level", type=float, default=0.90, help="confidence level")
    p.add_argument("--out", help="write machine-readable record (JSON)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("scenarios", help="posterior-quantile parameter scenarios")
    p.add_argument("--posterior", required=True)
    p.add_argument("--quantiles", required=True, help="e.g. 0.05,0.5,0.95")
    p.add_argument("--out", help="write machine-readable record (JSON)")
    p.set_defaults(func=cmd_scenarios)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(json.dumps({"error": str(e), "kind": e.kind}), file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(json.dumps({"error": str(e), "kind": "error"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
