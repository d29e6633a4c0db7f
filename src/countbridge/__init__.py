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

# Every function and class is imported from its module.  perfbench/test_spans.py reads
# solve_h through the root; it goes once the benchmark no longer does (ROADMAP item 22).
from .engine import solve_h  # noqa: F401
