"""Numerical laboratory for low-degree detection in multivariate shuffled regression.

Library layout:

- ``randmat``: seedable batch samplers for the Haar / Stiefel / permutation
  priors, Haar Verblunsky coefficients, and a uniform-sphere sampler.
- ``model``: null and planted batch samplers (a single instance is the
  size-1 draw) plus the reduced k-row laws.
- ``hermite``: the orthonormal Hermite table, basis functions over (X, Y)
  pairs, and the joint-coefficient closed form for one response column.
- ``advantage``: unbiased estimators and exact enumerations for the squared
  low-degree advantage, plus its chi-square upper bound.
- ``chisq``: closed-form and Monte Carlo chi-square divergences between the
  reduced laws, and the Haar determinant integral behind the m = d route.
- ``detect``: the constant-degree detection statistic, drawn from its exact
  four-number law, thresholded testing, and separation reporting.
- ``oracles``: the analytic moment references (sphere, Gaussian, Haar
  submatrix and determinant), the detection statistic on full sampled
  instances, and the self-checks that compare closed forms with sampling.
- ``cli``: the batch experiment harness (``shufflab`` console script).
"""

__version__ = "0.1.0"

from .common import CapacityError, MomentEstimate, UnsupportedRegimeError
from .model import Instance, ModelParams, ReducedParams
from .rng import make_rng

__all__ = [
    "CapacityError",
    "Instance",
    "ModelParams",
    "MomentEstimate",
    "ReducedParams",
    "UnsupportedRegimeError",
    "make_rng",
    "__version__",
]
