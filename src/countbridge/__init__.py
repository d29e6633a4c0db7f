"""Bridges of Markov counting processes.

Pin a counting process at both ends and everything about the pinned law is
decided by one scalar field, the characteristic of its jump rate.  This
package computes bridge marginals exactly (Kolmogorov systems on the state
ladder), samples bridge paths (exact tilted order statistics for constant
characteristics, thinning of the pinned rate in general), and turns the
known bridge estimates (mean-curve convexity, binomial tail dominance,
jump-time duality, large-height concentration) into executable checks.
"""

__version__ = "0.1.0"

from .analytic import (BinomialSpec, binomial_tail, constant_characteristic_marginal,
                       mean_upper_bound, tilted_cdf, tilted_cdf_window, tilted_ppf)
from .engine import (BridgeSpec, HField, MarginalTable, marginal_table,
                     marginal_table_two_sided, mean_curve, second_differences, solve_h)
from .intensity import (ExpAffine, Poisson, Product, SpaceLinear, Tabulated, TimeExponential,
                        characteristic_bounds, constant_characteristic_model,
                        generic_characteristic, model_from_dict, model_from_json)
from .sampler import (CharacteristicIntegrals, PathSample, characteristic_integrals,
                      jump_time_matrix, replica_rng, sample_bridge, sample_constant,
                      sample_rejection, simplex_jump_time_cdf)
from .verify import (BoundReport, ConvexityReport, DualityResult, LLNReport, TestFunctional,
                     WindowFunction, convexity_check, dominance_check, duality_catalog,
                     duality_check, lln_experiment, mean_bound_check)
