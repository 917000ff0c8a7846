"""Exact analysis of two-colored point configurations in the projective
plane over quadratic number fields: bichromatic line profiles, counting
identities, incidence inequalities, equichromatic lower bounds,
coefficient certificates, and coloring search.

The public names below resolve on first access (PEP 562), so importing
the package loads none of its modules, and numpy only with the array ones.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed once, under the module that defines it.
_EXPORTS = {
    "bounds": "BoundReport evaluate_all_bounds evaluate_bound",
    "errors": "ClaimRefutedError ConfigError DuplicatePointError ElementParseError "
              "EquilinesError FieldMismatchError InsufficientPointsError "
              "InternalInconsistencyError SearchCapError",
    "generators": "generate grid hesse near_pencil random_rational",
    "geometry": "DeterminedLine enumerate_lines",
    "inequalities": "InequalityReport evaluate evaluate_all",
    "points": "GREEN RED ColoredConfiguration ProjPoint affine_point configuration",
    "profiles": "compute_profile verify_identities",
    "proofcheck": "SignCertificate verify_sign_claim",
    "quadfield": "Discriminant QuadElement format_element parse_element quad",
    "reports": "analysis_document parse_config",
    "search": "SearchResult SearchSpec run_search",
    "tables": "BoundTheorem EquichromaticQuery InequalityKind InequalityTemplate LineProfile "
              "bound_value count_equichromatic",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
