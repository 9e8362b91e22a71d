"""Correct-decoding probability of finite point codes under Gaussian noise.

The functional P(v_1, ..., v_N) sums, over the distinct code points, the
Gaussian measure of each point's Voronoi region under noise centered at
that point; it equals N times the average correct-decoding probability of
a nearest-point decoder with equal priors.  The package evaluates P by
closed quadrature formulas for orthogonal antipodal configurations and
regular simplices, cross-checks them with Monte Carlo and direct
integration, validates the halfspace-slicing and plank-product
inequalities behind them, and optimizes antipodal pair lengths under an
energy constraint.
"""

from .analytic import ProbEstimate, p_antipodal, p_simplex, p_steiner, p_with_origin
from .configs import (
    AntipodalLengths,
    ConfigParseError,
    Configuration,
    ConfigurationError,
    DimensionMismatchError,
    EnergyBudget,
    embed_antipodal,
    energy,
    load_configuration,
    regular_simplex,
    save_configuration,
)
from .estimators import (
    DimensionTooLargeError,
    GridCoverageError,
    HalfspaceSystem,
    MCReport,
    PlankSystem,
    mc_decode,
    p_direct,
    plank_product_gap,
    slice_identity_check,
)
from .gaussian import (
    QuadratureError,
    QuadratureSpec,
    RandomStream,
    integrate_gauss_tail,
    normal_cdf,
    normal_pdf,
)
from .optimize import (
    OptimResult,
    OptimSettings,
    basin_hop,
    objective,
    threshold_scan,
)

__all__ = [
    "AntipodalLengths",
    "ConfigParseError",
    "Configuration",
    "ConfigurationError",
    "DimensionMismatchError",
    "DimensionTooLargeError",
    "EnergyBudget",
    "GridCoverageError",
    "HalfspaceSystem",
    "MCReport",
    "OptimResult",
    "OptimSettings",
    "PlankSystem",
    "ProbEstimate",
    "QuadratureError",
    "QuadratureSpec",
    "RandomStream",
    "basin_hop",
    "embed_antipodal",
    "energy",
    "integrate_gauss_tail",
    "load_configuration",
    "mc_decode",
    "normal_cdf",
    "normal_pdf",
    "objective",
    "p_antipodal",
    "p_direct",
    "p_simplex",
    "p_steiner",
    "p_with_origin",
    "plank_product_gap",
    "regular_simplex",
    "save_configuration",
    "slice_identity_check",
    "threshold_scan",
]

__version__ = "0.1.0"
