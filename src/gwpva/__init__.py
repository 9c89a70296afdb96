"""gwpva: Bayesian Galton-Watson population viability analysis.

Fits multi-type branching-process models to life-table data with exact
Dirichlet-multinomial conjugate updates, then answers viability questions
(growth, viability probability, extinction probability, extinction-time
bounds, reintroduction planning) through closed-form posteriors and seeded
Monte Carlo integration.
"""

from .baseline import GrowthMoments, log_growth_moments, regression_extinction_interval
from .extensions import (BetaParams, GammaParams, PoissonLaw,
                         convolve_survival_reproduction, poisson_extinction_fixed_point,
                         poisson_posterior, sex_ratio_posterior, thinned_offspring_law)
from .extinction import (ExtinctionProfile, SurvivalBounds, TimeBounds,
                         extinction_probability, extinction_time_bounds,
                         generating_function, minimal_fixed_point, survival_bounds)
from .formats import (FORMAT_VERSION, ParseError, PriorConfig, format_life_table,
                      parse_abundance_series, parse_life_table, parse_prior_config,
                      posterior_from_document, posterior_to_document)
from .inference import (HyperParams, PosteriorParams, Scenario, credible_interval,
                        marginal_mean, posterior_mean_matrix, posterior_update,
                        prior_expert, prior_from_moments, prior_noninformative,
                        scenario_draws)
from .model import (LifeTable, OffspringCap, ParameterDraw, PopulationState,
                    Violation, abundances_from_table, aggregate_counts,
                    record_violations, row_violations, validate_life_table)
from .montecarlo import (MCEstimate, PosteriorEnsemble, ReintroductionSummary,
                         TimeBoundsEstimate, effective_population_size, error_bound,
                         mc_extinction_probability, mc_reintroduction,
                         mc_short_time_abundance, mc_time_bounds,
                         mc_viability_probability)
from .sampling import (SeedSpec, Trajectory, sample_dirichlet, sample_parameter_draw,
                       simulate, simulate_extinction_time)
from .spectral import SpectralTriple, is_primitive, mean_matrix, perron_triple

__version__ = "1.4.0"
