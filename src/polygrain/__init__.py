"""Fitting polynomial minimisation diagrams to labelled pixel grain maps.

Power diagrams and anisotropic power diagrams are the degree-1 and degree-2
members of a family of diagrams whose per-grain cost is a polynomial of total
degree d in the pixel coordinates. Fitting maximises a concave softmax
log-likelihood of the observed labels over the polynomial coefficients.
"""

from .basis import (
    DesignBasis,
    DesignMatrix,
    GAUGE_FREE,
    GAUGE_LAST_ZERO,
    LEGENDRE,
    MONOMIAL,
    MultiIndexSet,
    ORDERING_CONVENTION,
    ParamMatrix,
    assemble_design_matrix,
    basis_change,
    basis_change_inverse,
    feature_count,
    legendre_all,
    zero_pad,
)
from .conversions import (
    APDRecovery,
    apd_to_theta,
    coeffs_to_basis,
    generate_apd,
    generate_pd,
    pd_to_theta,
    psd_repair,
    theta_to_apd,
    theta_to_pd,
)
from .errors import InputFormatError, NumericalError, ResourceError
from .geometry import (
    GrainMap,
    PhysicalAPD,
    PhysicalPD,
    PixelGrid,
    argmin_labels,
    make_grid,
    sym2x2_eigvals,
)
from .heuristics import MomentSummary, heuristic_theta, moments
from .metrics import (
    BoundReport,
    SweepRow,
    bound_report,
    compression,
    degree_sweep,
)
from .objective import (
    gradient,
    hard_assign,
    objective,
)
from .optimizer import FitConfig, FitReport, fit, init_zero, line_search

__version__ = "0.1.0"

__all__ = [
    "APDRecovery",
    "BoundReport",
    "DesignBasis",
    "DesignMatrix",
    "FitConfig",
    "FitReport",
    "GAUGE_FREE",
    "GAUGE_LAST_ZERO",
    "GrainMap",
    "InputFormatError",
    "LEGENDRE",
    "MONOMIAL",
    "MomentSummary",
    "MultiIndexSet",
    "NumericalError",
    "ORDERING_CONVENTION",
    "ParamMatrix",
    "PhysicalAPD",
    "PhysicalPD",
    "PixelGrid",
    "ResourceError",
    "SweepRow",
    "apd_to_theta",
    "argmin_labels",
    "assemble_design_matrix",
    "basis_change",
    "basis_change_inverse",
    "bound_report",
    "coeffs_to_basis",
    "compression",
    "degree_sweep",
    "feature_count",
    "fit",
    "generate_apd",
    "generate_pd",
    "gradient",
    "hard_assign",
    "heuristic_theta",
    "init_zero",
    "legendre_all",
    "line_search",
    "make_grid",
    "moments",
    "objective",
    "pd_to_theta",
    "psd_repair",
    "sym2x2_eigvals",
    "theta_to_apd",
    "theta_to_pd",
    "zero_pad",
]
