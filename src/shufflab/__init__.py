"""Numerical laboratory for low-degree detection in multivariate shuffled regression.

Library layout:

- ``randmat``: the sign-fixed QR behind Haar and Stiefel draws, and
  seedable batch samplers for Haar Verblunsky coefficients and
  permutations.
- ``model``: null and planted batch samplers (a single instance is the
  size-1 draw).
- ``hermite``: the orthonormal Hermite table, stacked basis-function
  patterns over (X, Y) pairs, and their split into X-side and Y-side
  multi-indices with the sign-symmetry zeros left out.
- ``advantage``: unbiased estimators and exact enumerations for the squared
  low-degree advantage, plus its chi-square upper bound.
- ``chisq``: one entry point, ``evaluate``, for the chi-square divergence
  between the reduced laws: it owns every regime's domain and dispatches to
  the private closed-form and Monte Carlo kernels, among them the Haar
  determinant integral behind the m = d route.
- ``detect``: the constant-degree detection statistic, drawn from its exact
  law in three chi-squares, and one report per cell of the thresholded
  test's error rates and f's separation, from the same draws.
- ``oracles``: the analytic moment references (sphere, Gaussian, Haar
  submatrix and determinant), the chi-square references (the exact
  Wishart constant ratio, the likelihood ratio's mean, and the determinant
  integral's conditional mean given all but the last two Verblunsky
  coefficients), basis functions
  on full instances and the joint coefficients for one response column,
  the detection statistic on full sampled instances, the advantage on full
  planted draws, and the self-checks that compare closed forms with
  sampling.
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
