"""Exact analysis of two-colored point configurations in the projective
plane over quadratic number fields: bichromatic line profiles, counting
identities, incidence inequalities, equichromatic lower bounds,
coefficient certificates, and coloring search."""

from .bounds import (
    BoundReport,
    BoundTheorem,
    bound_value,
    evaluate_all_bounds,
    evaluate_bound,
)
from .errors import (
    ClaimRefutedError,
    ConfigError,
    DuplicatePointError,
    ElementParseError,
    EquilinesError,
    FieldMismatchError,
    InsufficientPointsError,
    InternalInconsistencyError,
    SearchCapError,
)
from .generators import generate, grid, hesse, near_pencil, random_rational
from .geometry import (
    GREEN,
    RED,
    ColoredConfiguration,
    DeterminedLine,
    ProjPoint,
    affine_point,
    configuration,
    enumerate_lines,
)
from .inequalities import (
    InequalityKind,
    InequalityReport,
    evaluate,
    evaluate_all,
)
from .profiles import (
    EquichromaticQuery,
    LineProfile,
    compute_profile,
    count_equichromatic,
    verify_identities,
)
from .proofcheck import (
    InequalityTemplate,
    SignCertificate,
    verify_sign_claim,
)
from .quadfield import Discriminant, QuadElement, parse_element, format_element, quad
from .reports import analysis_document, parse_config
from .search import SearchResult, SearchSpec, run_search

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundTheorem",
    "ClaimRefutedError",
    "ColoredConfiguration",
    "ConfigError",
    "DeterminedLine",
    "Discriminant",
    "DuplicatePointError",
    "ElementParseError",
    "EquichromaticQuery",
    "EquilinesError",
    "FieldMismatchError",
    "GREEN",
    "InequalityKind",
    "InequalityReport",
    "InequalityTemplate",
    "InsufficientPointsError",
    "InternalInconsistencyError",
    "LineProfile",
    "ProjPoint",
    "QuadElement",
    "RED",
    "SearchCapError",
    "SearchResult",
    "SearchSpec",
    "SignCertificate",
    "affine_point",
    "analysis_document",
    "bound_value",
    "compute_profile",
    "configuration",
    "count_equichromatic",
    "enumerate_lines",
    "evaluate",
    "evaluate_all",
    "evaluate_all_bounds",
    "evaluate_bound",
    "format_element",
    "generate",
    "grid",
    "hesse",
    "near_pencil",
    "parse_config",
    "parse_element",
    "quad",
    "random_rational",
    "run_search",
    "verify_identities",
    "verify_sign_claim",
]
