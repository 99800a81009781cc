"""Exact calculator for Milnor, Fulton-Johnson and CSM classes of
singular hypersurfaces in products of projective spaces.

Everything is computed over the rationals with exact arithmetic: total
Milnor numbers come from Groebner bases of Jacobian ideals, classes
live in truncated polynomial rings modeling the Chow rings of the
ambient spaces, and each report checks the Riemann-Roch-type identities
relating the classes it computed.
"""

from .charclasses import (
    ClassReport,
    CheckResult,
    MissingCsmClassError,
    build_report,
    canonical_json,
    defect_codim1_check,
    csm_of_function,
    fulton_johnson,
    lci_defect_check,
    localization,
    milnor_class,
    product_classes,
    proper_pushdown_check,
    report_to_jsonable,
    resolve_mu,
    verdier_smooth_check,
)
from .chow import (
    AmbientSpace,
    ChowClass,
    divisor_class,
    factor_tangent_class,
    forget_factor,
    hyperplane,
    insert_factor,
    self_intersection_check,
    tangent_class,
    unit_inverse,
)
from .groebner import (
    ComputationCancelled,
    GroebnerBasis,
    MilnorResult,
    NonIsolatedSingularitiesError,
    SingularitiesOutsideChartError,
    dehomogenize,
    groebner,
    normal_form,
    quotient_dim,
    total_milnor_number,
)
from .polynomials import (
    PolyIdeal,
    PolyParseError,
    Polynomial,
    VariableMismatchError,
    jacobian_ideal,
    parse_polynomial,
)
from .scenefile import SceneFileError, load_scene, scene_from_dict
from .scenes import (
    ConstructibleFunction,
    SceneValidationError,
    StrataScene,
    Stratum,
    hypersurface_scene,
    place_vanishing_cycles,
    unit_function,
    validate_scene,
)

__version__ = "0.1.0"
