"""Numerical laboratory for low-degree detection in multivariate shuffled regression.

Library layout:

- ``randmat``: seedable batch samplers for the Haar / permutation priors,
  the sign-fixed QR behind Haar and Stiefel draws, Haar Verblunsky
  coefficients, and a uniform-sphere sampler.
- ``model``: null and planted batch samplers (a single instance is the
  size-1 draw).
- ``hermite``: the orthonormal Hermite table, stacked basis-function
  patterns over (X, Y) pairs, and their split into X-side and Y-side
  multi-indices with the sign-symmetry zeros left out.
- ``advantage``: unbiased estimators and exact enumerations for the squared
  low-degree advantage, plus its chi-square upper bound.
- ``chisq``: closed-form and Monte Carlo chi-square divergences between the
  reduced laws, and the Haar determinant integral behind the m = d route.
- ``detect``: the constant-degree detection statistic, drawn from its exact
  law in three chi-squares, thresholded testing, and separation reporting.
- ``oracles``: the analytic moment references (sphere, Gaussian, Haar
  submatrix and determinant), basis functions on full instances and the
  joint coefficients for one response column, the detection statistic on
  full sampled instances, and the self-checks that compare closed forms
  with sampling.
- ``cli``: the batch experiment harness (``shufflab`` console script).
"""

__version__ = "0.1.0"

from .common import CapacityError, MomentEstimate, UnsupportedRegimeError
from .model import Instance, ModelParams
from .rng import make_rng

__all__ = [
    "CapacityError",
    "Instance",
    "ModelParams",
    "MomentEstimate",
    "UnsupportedRegimeError",
    "make_rng",
    "__version__",
]
