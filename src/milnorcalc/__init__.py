"""Exact calculator for Milnor, Fulton-Johnson and CSM classes of
singular hypersurfaces in products of projective spaces.

Everything is computed over the rationals with exact arithmetic: total
Milnor numbers come from Groebner bases of Jacobian ideals, classes
live in truncated polynomial rings modeling the Chow rings of the
ambient spaces, and each report checks the Riemann-Roch-type identities
relating the classes it computed.

Importing the package imports none of its modules: each export, and each
module (``milnorcalc.groebner`` is the engine's), is imported when first read.
"""

# The modules of the package, each with the names the package exports from it.
_EXPORTS = {
    "charclasses": (
        "ClassReport", "CheckResult", "MissingCsmClassError", "build_report", "canonical_json",
        "defect_codim1_check", "csm_of_function", "fulton_johnson", "lci_defect_check", "localization",
        "milnor_class", "proper_pushdown_check", "report_to_jsonable", "resolve_mu", "verdier_smooth_check",
    ),
    "chow": (
        "AmbientSpace", "ChowClass", "divisor_class", "hyperplane", "pull_back", "push_forward",
        "self_intersection_check", "tangent_class", "unit_inverse",
    ),
    "cli": (),
    "groebner": (
        "ComputationCancelled", "GroebnerBasis", "MilnorResult", "NonIsolatedSingularitiesError",
        "SingularitiesOutsideChartError", "dehomogenize", "quotient_dim", "total_milnor_number",
    ),
    "linalg": (),
    "polynomials": (
        "PolyIdeal", "PolyParseError", "Polynomial", "VariableMismatchError", "jacobian_ideal", "parse_polynomial",
    ),
    "scenefile": ("SceneFileError", "load_scene", "scene_from_dict"),
    "scenes": (
        "ConstructibleFunction", "SceneValidationError", "StrataScene", "Stratum", "unit_function", "validate_scene",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else next((m for m, names in _EXPORTS.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
