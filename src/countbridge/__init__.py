"""Bridges of Markov counting processes.

Pin a counting process at both ends and everything about the pinned law is
decided by one scalar field, the characteristic of its jump rate.  This
package computes bridge marginals exactly (Kolmogorov systems on the state
ladder), samples bridge paths (exact tilted order statistics on the clock of
every exp-affine rate, inversion of the pinned survival in general), and
turns the known bridge estimates (mean-curve convexity, binomial tail
dominance, jump-time duality, large-height concentration) into executable
checks.
"""

__version__ = "0.1.0"

from .analytic import binomial_tail, tilted_cdf, tilted_cdf_window
from .engine import (BridgeSpec, HField, MarginalTable, marginal_table,
                     marginal_table_two_sided, second_differences, solve_h)
from .intensity import ExpAffine, Poisson, Tabulated, constant_characteristic_model, model_from_dict
from .sampler import PathBatch, PathSample, jump_time_matrix, sample_bridge, sample_constant
from .verify import (BoundReport, ConvexityReport, DualityResult, LLNReport, TestFunctional,
                     WindowFunction, convexity_check, dominance_check, duality_catalog,
                     duality_check, lln_experiment, mean_bound_check)
