"""gwpva: Bayesian Galton-Watson population viability analysis.

Fits multi-type branching-process models to life-table data with exact
Dirichlet-multinomial conjugate updates, then answers viability questions
(growth, viability probability, extinction probability, extinction-time
bounds, reintroduction planning) through closed-form posteriors and seeded
Monte Carlo integration.

Names are exported lazily (PEP 562), each loading its home module on first
access: the fit layer (``model``, ``inference``, ``extensions``, ``formats``)
runs on plain floats without NumPy, which a Monte Carlo name loads.
"""

import importlib

_HOMES = {  # home module -> the names it exports
    "baseline": "GrowthMoments log_growth_moments regression_extinction_interval",
    "extensions": "BetaParams GammaParams convolve_survival_reproduction "
                  "poisson_extinction_fixed_point poisson_posterior sex_ratio_posterior "
                  "thinned_offspring_law",
    "extinction": "ExtinctionProfile SurvivalBounds TimeBounds extinction_probability "
                  "extinction_time_bounds generating_function minimal_fixed_point survival_bounds",
    "formats": "FORMAT_VERSION ParseError PriorConfig format_life_table parse_abundance_series "
               "parse_life_table parse_prior_config posterior_from_document posterior_to_document",
    "inference": "HyperParams PosteriorParams Scenario credible_interval marginal_mean "
                 "posterior_mean_matrix posterior_update prior_expert prior_from_moments "
                 "prior_noninformative scenario_draws",
    "model": "LifeTable OffspringCap ParameterDraw PoissonLaw PopulationState Violation "
             "abundances_from_table aggregate_counts record_violations row_violations "
             "validate_life_table",
    "montecarlo": "MCEstimate PosteriorEnsemble ReintroductionSummary TimeBoundsEstimate "
                  "effective_population_size error_bound mc_extinction_probability "
                  "mc_reintroduction mc_short_time_abundance mc_time_bounds "
                  "mc_viability_probability",
    "sampling": "SeedSpec Trajectory sample_dirichlet sample_parameter_draw simulate "
                "simulate_extinction_time",
    "spectral": "SpectralTriple is_primitive mean_matrix perron_triple",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "1.5.4"


def __getattr__(name: str):
    if name in _HOMES:  # a home module itself, as the eager imports of 1.4 bound it
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
