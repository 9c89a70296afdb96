"""The benchmark's workloads: the operations one pass runs, how each is run
through the CLI or replayed with spans around its library calls, and the
checks every output must pass.

Checks are bands that hold for any seed, never bit-goldens. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gwpva import cli
from gwpva.baseline import regression_extinction_interval
from gwpva.datasets import (bear_cap, bear_life_table, synthetic_cap,
                            synthetic_life_table, synthetic_true_draw)
from gwpva.formats import (format_life_table, parse_life_table, parse_prior_config,
                           posterior_from_document)
from gwpva.inference import posterior_update
from gwpva.model import PopulationState
from gwpva.montecarlo import (PosteriorEnsemble, effective_population_size,
                              mc_extinction_probability, mc_reintroduction,
                              mc_short_time_abundance, mc_time_bounds,
                              mc_viability_probability)
from gwpva.sampling import SeedSpec, sample_parameter_draw, simulate, simulate_extinction_time

COUNTS = ("sampling.draws", "sampling.ensembles", "sampling.bytes_computed",
          "eigen.subcritical_draws", "fixed_point.failures", "time_bounds.cells",
          "simulate.generations")


@dataclass(frozen=True)
class Op:
    """One CLI subcommand call of a report pass."""

    cmd: str
    pop: str | None = None
    alpha: float | None = None
    type: int | None = None
    threshold: float | None = None
    horizon: int | None = None
    reps: int | None = None
    curves: bool = False


def _prior_json(cap) -> str:
    return json.dumps({"format_version": 1, "K": cap.K, "pairs": [
        {"i": i, "j": j, "kappa": cap.cap_of(i, j), "prior": {"rule": "flat"}}
        for (i, j) in sorted(cap.pairs())]})


def run_cli(argv: list[str]) -> tuple[int, str]:
    """gwpva.cli.main in-process with stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def fit_layer(table_path: Path, prior_path: Path, tr) -> None:
    """The fit subcommand's parsing and conjugate update, in one span."""
    table_text, prior_text = table_path.read_text(), prior_path.read_text()
    with tr.span("fit"):
        config = parse_prior_config(prior_text)
        posterior_update(config.hyper, parse_life_table(table_text, K=config.cap.K))


# ---- report workloads (bear-report, decline-report) -------------------------


class Report:
    """A fitted posterior and a fixed sequence of CLI subcommands over it."""

    nprec = 10_000

    def __init__(self, cap, table, expected_alpha, ops, checks, workdir: Path, seed: int):
        self.ops, self.checks = ops, checks
        self.expected_alpha = expected_alpha
        self.seed = seed
        self.dir = workdir
        self.table_path = workdir / "table.csv"
        self.prior_path = workdir / "prior.json"
        self.post_path = workdir / "posterior.json"
        self.table_path.write_text(format_life_table(table))
        self.prior_path.write_text(_prior_json(cap))
        self.law_width = sum(cap.cap_of(i, j) + 1 for (i, j) in cap.pairs())

    def fit_argv(self) -> list[str]:
        return ["fit", "--table", str(self.table_path), "--prior", str(self.prior_path),
                "--out", str(self.post_path)]

    def check_fit(self, doc: dict) -> list[str]:
        got = {(p["i"], p["j"]): p["alpha"] for p in doc["pairs"]}
        return [] if got == self.expected_alpha else [f"posterior alpha {got}"]

    def _out(self, op: Op, suffix: str = "json") -> Path:
        return self.dir / f"{op.cmd}.{suffix}"

    def argv(self, op: Op) -> list[str]:
        a = [op.cmd, "--posterior", str(self.post_path), "--seed", str(self.seed)]
        if op.cmd != "simulate":
            a += ["--nprec", str(self.nprec)]
        a += ["--out", str(self._out(op, "csv" if op.cmd == "simulate" else "json"))]
        for flag in ("pop", "alpha", "type", "threshold", "horizon", "reps"):
            if getattr(op, flag) is not None:
                a += [f"--{flag}", str(getattr(op, flag))]
        if op.curves:
            a += ["--curves", str(self._out(op, "curves.csv"))]
        return a

    # -- reading and checking outputs (shared by the CLI and the replay) --

    def read(self, op: Op) -> dict:
        """The op's output files as one comparable record."""
        if op.cmd == "simulate":
            paths: dict[int, list[tuple[int, int]]] = {}
            lines = self._out(op, "csv").read_text().splitlines()[1:]
            for line in lines:
                rep, t, n = (int(x) for x in line.split(","))
                paths.setdefault(rep, []).append((t, n))
            return {"paths": paths}
        doc = json.loads(self._out(op).read_text())
        doc.pop("provenance", None)
        if op.curves:
            doc["curves"] = self._out(op, "curves.csv").read_text().splitlines()
        return doc

    def counts(self, op: Op, res: dict) -> Counter:
        """Work counts derived from the op's outputs alone."""
        c = Counter()
        if op.cmd == "simulate":
            c["sampling.draws"] = len(res["paths"])
            c["simulate.generations"] = sum(len(p) - 1 for p in res["paths"].values())
        else:
            c["sampling.draws"] = res["n_prec"]
            c["sampling.ensembles"] = 1
        c["sampling.bytes_computed"] = c["sampling.draws"] * self.law_width * 8
        if op.cmd == "viability":
            c["eigen.subcritical_draws"] = _subcritical(res)
        if op.cmd in ("extinction", "reintroduce"):
            c["fixed_point.failures"] = res["warnings"]["fixed-point-failures"]
        if op.cmd == "time-bounds":
            c["eigen.subcritical_draws"] = res["n_used"]
            c["time_bounds.cells"] = res["n_used"] * (_t_plus(res) + 1)
        return c

    def check(self, op: Op, res: dict, seen: dict) -> list[str]:
        problems = []
        if op.cmd != "simulate" and res["n_prec"] != self.nprec:
            problems.append(f"n_prec {res['n_prec']} != {self.nprec}")
        if op.cmd == "time-bounds":
            # the bracket itself is only pinned where the workload defines it;
            # n_used must equal the subcritical draws of the same ensemble
            if res["t_minus"] > _t_plus(res):
                problems.append(f"bracket ({res['t_minus']}, {res['t_plus']}]")
            if "viability" in seen and res["n_used"] != _subcritical(seen["viability"]):
                problems.append(f"n_used {res['n_used']} != subcritical draws "
                                f"{_subcritical(seen['viability'])}")
        if op.cmd == "predict":
            problems += self._check_predict(op, res)
        problems += self.checks[op.cmd](res, self)
        return problems

    def check_curves(self, res: dict) -> list[str]:
        """The --curves CSV: header t,upper,lower, then one numeric row per
        t = 0..t_plus, with the upper curve nonincreasing down to alpha."""
        if res["curves"][0] != "t,upper,lower":
            return [f"curves header {res['curves'][0]!r}"]
        try:
            rows = [[float(x) for x in r.split(",")] for r in res["curves"][1:]]
        except ValueError as e:
            return [f"curves row not numeric: {e}"]
        problems = []
        if [int(t) for t, _, _ in rows] != list(range(_t_plus(res) + 1)):
            problems.append(f"{len(rows)} curve rows for t_plus {res['t_plus']}")
        upper = [u for _, u, _ in rows]
        if any(b > a for a, b in zip(upper, upper[1:])) or not 0 <= upper[-1] <= res["alpha"]:
            problems.append("upper survival curve not nonincreasing down to alpha")
        return problems

    def _check_predict(self, op: Op, res: dict) -> list[str]:
        # E[N(1)] = N(0) Mbar exactly, with Mbar the posterior mean matrix
        N0 = np.array([float(x) for x in op.pop.split(",")])
        mbar = np.array(json.loads(self.post_path.read_text())["mean_matrix"])
        c0, c1 = res["curve"][0], res["curve"][1]
        exact = N0 @ mbar
        err = np.abs(np.array(c1["mean"]) - exact)
        problems = []
        if c0["mean"] != list(N0) or any(c0["std_error"]):
            problems.append(f"t=0 row {c0}")
        if len(res["curve"]) != op.horizon + 1:
            problems.append(f"{len(res['curve'])} rows for horizon {op.horizon}")
        if not (err <= 5 * np.array(c1["std_error"]) + 1e-12).all():
            problems.append(f"E[N(1)] {c1['mean']} vs exact {exact.tolist()}")
        return problems

    # -- traced replay: the library calls each subcommand makes, in order --

    def _load(self):
        text = self.post_path.read_text()
        post, _ = posterior_from_document(json.loads(text))
        hashlib.sha256(text.encode()).hexdigest()  # the CLI digests its input too
        return post

    def _write(self, op: Op, doc: dict) -> None:
        self._out(op).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def _ensemble(self, post, tr, c: Counter) -> PosteriorEnsemble:
        with tr.span("sampling"):
            ens = PosteriorEnsemble(post, n_prec=self.nprec, master_seed=self.seed)
        c["sampling.draws"] += ens.n_prec
        c["sampling.ensembles"] += 1
        c["sampling.bytes_computed"] += sum(ens.law(p).nbytes for p in ens.pairs)
        return ens

    def _eigen(self, ens, tr, c: Counter) -> None:
        with tr.span("eigen"):
            lam = ens.lambdas
        c["eigen.subcritical_draws"] += int(np.sum(lam < 1.0))

    def _fixed_point(self, ens, tr, c: Counter) -> None:
        with tr.span("fixed_point"):
            ens.extinction_profiles
        c["fixed_point.failures"] += int(ens.fixed_point_failures.sum())

    def replay(self, op: Op, tr) -> Counter:
        """Run one subcommand as its library calls; returns the work counts.

        Layer calls are wrapped in spans; the rest (loading the posterior,
        digests, writing the output) is the subcommand's own time."""
        c = Counter()
        post = self._load()
        pop = PopulationState(tuple(int(x) for x in op.pop.split(","))) if op.pop else None
        if op.cmd == "simulate":
            self._replay_simulate(op, post, pop, tr, c)
            return c
        ens = self._ensemble(post, tr, c)
        if op.cmd == "viability":
            self._eigen(ens, tr, c)
            with tr.span("reduce"):
                est = mc_viability_probability(post, ensemble=ens)
            doc = _estimate_doc("viability_probability", est)
        elif op.cmd == "extinction":
            self._fixed_point(ens, tr, c)
            with tr.span("reduce"):
                est = mc_extinction_probability(post, pop, ensemble=ens)
            doc = _estimate_doc("extinction_probability", est, population=list(pop.N))
        elif op.cmd == "reintroduce":
            self._fixed_point(ens, tr, c)
            with tr.span("reduce"):
                summary = mc_reintroduction(post, ensemble=ens)
                eff = effective_population_size(post, op.type, threshold=op.threshold,
                                                ensemble=ens)
            doc = {"quantity": "reintroduction", "threshold": op.threshold,
                   "type": op.type, "effective_population_size": eff,
                   "mean_extinction_by_type": [float(x) for x in summary.mean],
                   "std_error": [float(x) for x in summary.std_error],
                   "n_prec": summary.n_prec, "n_used": summary.n_used,
                   "warnings": summary.warnings}
        elif op.cmd == "time-bounds":
            self._eigen(ens, tr, c)
            with tr.span("time_bounds"):
                res = mc_time_bounds(post, pop, alpha=op.alpha, ensemble=ens)
            c["time_bounds.cells"] += res.n_used * len(res.times)
            doc = {"quantity": "extinction_time_bounds", "population": list(pop.N),
                   "alpha": res.alpha, "t_minus": res.t_minus, "t_plus": res.t_plus,
                   "n_prec": res.n_prec, "n_used": res.n_used, "warnings": res.warnings}
            if op.curves:
                lines = ["t,upper,lower"] + [
                    f"{int(t)},{float(u)!r},{float(lo)!r}"
                    for t, u, lo in zip(res.times, res.upper_curve, res.lower_curve)]
                self._out(op, "curves.csv").write_text("\n".join(lines) + "\n")
        elif op.cmd == "predict":
            with tr.span("reduce"):
                curve = mc_short_time_abundance(post, pop, horizon=op.horizon, ensemble=ens)
            doc = {"quantity": "abundance_forecast", "population": list(pop.N),
                   "horizon": op.horizon, "n_prec": curve[0].n_prec,
                   "curve": [{"t": t, "mean": [float(x) for x in e.value],
                              "std_error": [float(x) for x in e.std_error]}
                             for t, e in enumerate(curve)]}
        else:
            raise ValueError(f"no replay for {op.cmd}")
        self._write(op, doc)
        return c

    def _replay_simulate(self, op: Op, post, pop, tr, c: Counter) -> None:
        lines = ["rep,t," + ",".join(f"N_{i + 1}" for i in range(post.K))]
        for rep in range(op.reps):
            with tr.span("sampling"):
                rng = SeedSpec(self.seed, rep).rng()
                draw = sample_parameter_draw(post, rng)
            with tr.span("simulate"):
                traj = simulate(draw, pop, op.horizon, rng)
            c["sampling.draws"] += 1
            c["sampling.bytes_computed"] += sum(np.asarray(p).nbytes for p in draw.p.values())
            c["simulate.generations"] += len(traj.states) - 1
            for st in traj.states:
                lines.append(f"{rep},{st.time}," + ",".join(str(n) for n in st.N))
        self._out(op, "csv").write_text("\n".join(lines) + "\n")


def _estimate_doc(quantity: str, est, **extra) -> dict:
    return {"quantity": quantity, **extra, "value": est.value,
            "std_error": est.std_error, "error_bound": est.error_bound,
            "n_prec": est.n_prec, "n_used": est.n_used, "warnings": est.warnings}


def _t_plus(res: dict) -> int:
    """t_plus, with an open-ended bracket read at the scan's horizon cap."""
    return res["t_plus"] if res["t_plus"] is not None else 10 ** 6


def _subcritical(viability: dict) -> int:
    return viability["n_prec"] - round(viability["value"] * viability["n_prec"])


def _band(name, value, lo, hi) -> list[str]:
    return [] if lo <= value <= hi else [f"{name} {value} outside [{lo}, {hi}]"]


# bear-report: criterion 4 (viability), the 2016 extinction anchor and 7c
BEAR_OPS = (
    Op("viability"),
    Op("extinction", pop="2,2,2,2,10"),
    Op("reintroduce", type=5, threshold=0.05),
    Op("time-bounds", pop="2,2,2,2,10", alpha=0.05),
    Op("predict", pop="2,2,2,2,10", horizon=10),
)
BEAR_CHECKS = {
    "viability": lambda r, w: _band("P(viable)", r["value"], 0.978, 0.998),
    "extinction": lambda r, w: _band(
        "P(extinction)", r["value"], 0.017 - r["error_bound"] - 2 * r["std_error"],
        0.017 + r["error_bound"] + 2 * r["std_error"]),
    "reintroduce": lambda r, w: [] if r["effective_population_size"] == 5 else [
        f"effective population size {r['effective_population_size']} != 5"],
    # ROADMAP item 1: the multi-type bracket is known to be wrong today, so
    # only its order and draw count are checked, never its value
    "time-bounds": lambda r, w: [],
    "predict": lambda r, w: [],
}
BEAR_ALPHA = {(1, 2): [4.0, 18.0], (2, 3): [1.0, 17.0], (3, 4): [3.0, 13.0],
              (4, 5): [1.0, 13.0], (5, 1): [71.0, 9.0, 7.0, 1.0], (5, 5): [4.0, 73.0]}

# decline-report: criteria 4 and 5 on the synthetic decline
DECLINE_OPS = (
    Op("viability"),
    Op("extinction", pop="22"),
    Op("time-bounds", pop="22", alpha=0.05, curves=True),
    Op("predict", pop="22", horizon=10),
    Op("simulate", pop="100", horizon=30, reps=2000),
)


def _check_paths(r, w) -> list[str]:
    paths = r["paths"]
    problems = [] if len(paths) == 2000 else [f"{len(paths)} paths"]
    for rep, p in paths.items():
        ts = [t for t, _ in p]
        ns = [n for _, n in p]
        if p[0] != (0, 100) or ts != list(range(len(p))) or min(ns) < 0 \
                or 0 in ns[:-1]:
            problems.append(f"path {rep} malformed: {p[:3]}...")
            break
    # E[N(1)] = 100 * posterior mean offspring count, to 5 standard errors
    n1 = np.array([p[1][1] for p in paths.values()], dtype=float)
    mbar = json.loads(w.post_path.read_text())["mean_matrix"][0][0]
    se = n1.std(ddof=1) / math.sqrt(len(n1))
    if abs(n1.mean() - 100 * mbar) > 5 * se:
        problems.append(f"mean N(1) {n1.mean()} vs {100 * mbar} (se {se})")
    return problems


DECLINE_CHECKS = {
    "viability": lambda r, w: _band("P(viable)", r["value"], 0.0, 0.001),
    "extinction": lambda r, w: _band("P(extinction)", r["value"], 0.95, 1.0),
    "time-bounds": lambda r, w: (_band("t_minus", r["t_minus"], 2, 4)
                                 + _band("t_plus", r["t_plus"], 30, 32)),
    "predict": lambda r, w: [],
    "simulate": _check_paths,
}
SYNTH_ALPHA = {(1, 1): [145.0, 128.0, 20.0, 14.0, 8.0]}


# ---- coverage-study: the criterion-6 replication loop -----------------------


class Coverage:
    """Replicate r: simulate 5 steps of the true law from 100, refit, build a
    1000-draw ensemble, bracket the extinction time and compare it with the
    simulated extinction time and the naive regression window."""

    N_PREC = 1000

    def __init__(self, prior, seed: int):
        self.prior, self.seed = prior, seed
        self.true = synthetic_true_draw()
        self.start = PopulationState((100,))

    def replicate(self, r: int, tr):
        """(outcome, counts, problems); outcome is None for a skipped replicate."""
        c = Counter()
        with tr.op("replicate"):
            with tr.span("simulate"):
                traj = simulate(self.true, self.start, 5, SeedSpec(self.seed, r))
            c["simulate.generations"] += len(traj.states) - 1
            if traj.extinct_at is not None or len(traj.states) < 6:
                return None, c, []
            with tr.span("fit"):
                post = posterior_update(self.prior, traj.table)
            with tr.span("sampling"):
                ens = PosteriorEnsemble(post, n_prec=self.N_PREC,
                                        master_seed=self.seed * 1000 + r)
            with tr.span("eigen"):
                lam = ens.lambdas
            with tr.span("time_bounds"):
                tb = mc_time_bounds(post, (traj.final.total,), alpha=0.05, ensemble=ens)
            with tr.span("simulate"):
                text = simulate_extinction_time(self.true, traj.final,
                                                SeedSpec(self.seed, 10 ** 6 + r))
            Ns = [s.total for s in traj.states]
            with tr.span("baseline"):
                try:
                    window = regression_extinction_interval(Ns, level=0.90)
                except ValueError:  # a non-declining fit has no window
                    window = None
        c["sampling.draws"] += ens.n_prec
        c["sampling.ensembles"] += 1
        c["sampling.bytes_computed"] += sum(ens.law(p).nbytes for p in ens.pairs)
        c["eigen.subcritical_draws"] += int(np.sum(lam < 1.0))
        c["time_bounds.cells"] += tb.n_used * len(tb.times)
        c["simulate.generations"] += text if text is not None else 0
        problems = []
        if tb.t_plus is not None and tb.t_minus > tb.t_plus:
            problems.append(f"replicate {r}: bracket ({tb.t_minus}, {tb.t_plus}]")
        if tb.n_used != int(np.sum(lam < 1.0)):
            problems.append(f"replicate {r}: n_used {tb.n_used} != subcritical draws")
        if text is None or text < 1:
            problems.append(f"replicate {r}: extinction time {text}")
            return None, c, problems
        upper = tb.t_plus if tb.t_plus is not None else 10 ** 9
        covered = tb.t_minus < text <= upper
        naive = None if window is None else window[0] <= text <= window[1]
        return (covered, naive, tb.t_minus, tb.t_plus, text, window), c, problems


def coverage_problems(outcomes: list) -> list[str]:
    """Criterion 6's bands, widened by 3 binomial standard errors at the
    run's replication count."""
    kept = [o for o in outcomes if o is not None]
    naive = [o[1] for o in kept if o[1] is not None]
    problems = []
    for name, hits, lo, hi in (("bracket", [o[0] for o in kept], 0.90, 0.96),
                               ("naive", naive, 0.43, 0.55)):
        n = len(hits)
        if n == 0:
            problems.append(f"no {name} replications")
            continue
        p = sum(hits) / n
        lo_w = lo - 3 * math.sqrt(lo * (1 - lo) / n)
        hi_w = hi + 3 * math.sqrt(hi * (1 - hi) / n)
        problems += _band(f"{name} coverage over {n}", p, lo_w, hi_w)
    return problems


WORKLOADS = {
    "bear-report": dict(cap=bear_cap(), table=bear_life_table(), expected_alpha=BEAR_ALPHA,
                        ops=BEAR_OPS, checks=BEAR_CHECKS),
    "decline-report": dict(cap=synthetic_cap(), table=synthetic_life_table(),
                           expected_alpha=SYNTH_ALPHA, ops=DECLINE_OPS,
                           checks=DECLINE_CHECKS),
    # the coverage loop fits from the same synthetic table and flat prior
    "coverage-study": dict(cap=synthetic_cap(), table=synthetic_life_table(),
                           expected_alpha=SYNTH_ALPHA, ops=(), checks={}),
}
