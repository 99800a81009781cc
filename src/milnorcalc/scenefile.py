"""Loading and validation of scene files.

A scene file is a JSON document describing one hypersurface scene:

    {
      "name": "nodal-cubic",
      "ambient": [2],
      "degrees": [[3]],
      "polynomial": "y^2*z - x^3 - x^2*z",
      "chart": "z",
      "strata": [
        {"id": "smooth_part", "dim": 1, "chi_c": 0, "closure_chi": 1},
        {"id": "node", "dim": 0, "chi_c": 1, "closure_chi": 1,
         "parents": ["smooth_part"]}
      ]
    }

``ambient`` and ``degrees`` are required.  Singularity data comes from
exactly one of three routes: a ``polynomial`` with a ``chart`` (the
engine computes the vanishing cycles), explicit ``strata`` plus ``mu``
(user-supplied values), or ``"smooth": true.``  A polynomial may be
combined with strata carrying Euler-characteristic data; the computed
total is then attached to the unique point stratum.  Variables
default to x, y, z, w and can be overridden with ``variables``.
Per-stratum ``csm`` maps are keyed by comma-separated exponents, as in
``{"2": 1, "3": 2}`` for H^2 + 2H^3.  Each exponent is written in ASCII
digits, and no two keys may name the same exponent ("1" and "01" do).
No key may appear twice in one JSON object.  The reader checks this format
(types, keys, routes, digit limits) and the variable count; every other
rule between a scene's fields, the chart rules among them, is checked by
``validate_scene`` on the built scene.  ``load_scene`` keeps the scenes of
the last texts it read: a file read again unchanged is not parsed again.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Optional

from .chow import AmbientSpace, ChowClass
from .scenes import ConstructibleFunction, StrataScene, Stratum

_SCENE_KEYS = {"name", "ambient", "degrees", "polynomial", "variables", "chart", "smooth", "strata", "mu"}
_STRATUM_KEYS = {"id", "dim", "chi_c", "closure_chi", "csm", "parents"}
_SCENE_CACHE_SIZE = 32  # scenes that load_scene keeps, the bound of the Milnor memo


class SceneFileError(ValueError):
    """The scene file does not follow the schema."""


def default_variables(n: int) -> tuple[str, ...]:
    """Variable names for P^n: x, y, z, w up to P^3, x0..xn beyond, refused past the variable limit."""
    from .polynomials import _layout

    _layout(n + 1)
    if n <= 3:
        return ("x", "y", "z", "w")[: n + 1]
    return tuple(f"x{i}" for i in range(n + 1))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SceneFileError(message)


def _parse_int(value, context: str) -> int:
    if isinstance(value, bool):
        raise SceneFileError(f"{context}: expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        digits = value.removeprefix("-")
        try:
            # int() alone reads " 1", "1_0", "+3" and "٢"; text but ASCII -?[0-9]+ fails as "" does.
            return int(value if digits.isascii() and digits.isdigit() else "")
        except ValueError:
            # Python refuses text over its digit limit in words of its own.
            limit = sys.get_int_max_str_digits()
            if limit and len(value) > limit:
                raise SceneFileError(f"{context}: an integer with more than {limit} digits") from None
            raise SceneFileError(f"{context}: {value!r} is not an integer") from None
    raise SceneFileError(f"{context}: expected an integer")


def _parse_csm(data, ambient: AmbientSpace, context: str) -> ChowClass:
    _require(isinstance(data, dict), f"{context}: csm must be a map")
    limit = sys.get_int_max_str_digits()
    coefficients = {}
    keys: dict[tuple[int, ...], str] = {}
    for key, value in data.items():
        # Named by its length, so that a message never echoes it.
        _require(
            not limit or len(key) <= limit,
            f"{context}: an exponent key of {len(key)} characters, over the {limit}-digit limit",
        )
        parts = key.split(",")
        _require(
            len(parts) == len(ambient.factors),
            f"{context}: exponent key {key!r} has wrong length",
        )
        _require(all(p.isascii() and p.isdigit() for p in parts), f"{context}: bad exponent key {key!r}")
        exp = tuple(int(p) for p in parts)
        for e, n in zip(exp, ambient.factors):
            _require(e <= n, f"{context}: exponent key {key!r} is outside the ring")
        _require(
            exp not in keys,
            f"{context}: exponent keys {keys.get(exp)!r} and {key!r} name the same exponent",
        )
        keys[exp] = key
        coefficients[exp] = _parse_int(value, f"{context} csm[{key!r}]")
    return ChowClass(ambient, coefficients)


def _parse_stratum(data, ambient: AmbientSpace) -> Stratum:
    _require(isinstance(data, dict), "each stratum must be an object")
    unknown = set(data) - _STRATUM_KEYS
    _require(not unknown, f"unknown stratum field(s): {', '.join(sorted(unknown))}")
    _require("id" in data and isinstance(data["id"], str), "each stratum needs a string id")
    sid = data["id"]
    _require("dim" in data, f"stratum {sid!r}: missing dim")
    _require("chi_c" in data, f"stratum {sid!r}: missing chi_c")
    _require("closure_chi" in data, f"stratum {sid!r}: missing closure_chi")
    parents = data.get("parents", [])
    _require(
        isinstance(parents, list) and all(isinstance(p, str) for p in parents),
        f"stratum {sid!r}: parents must be a list of ids",
    )
    csm = None
    if "csm" in data:
        csm = _parse_csm(data["csm"], ambient, f"stratum {sid!r}")
    return Stratum(
        id=sid,
        dim=_parse_int(data["dim"], f"stratum {sid!r} dim"),
        chi_c=_parse_int(data["chi_c"], f"stratum {sid!r} chi_c"),
        closure_chi=_parse_int(data["closure_chi"], f"stratum {sid!r} closure_chi"),
        csm_class=csm,
        parents=tuple(parents),
    )


def scene_from_dict(data: dict) -> tuple[StrataScene, Optional[ConstructibleFunction]]:
    """Build a validated scene (and user-supplied mu, if any) from JSON data."""
    _require(isinstance(data, dict), "a scene file must contain a JSON object")
    unknown = set(data) - _SCENE_KEYS
    _require(not unknown, f"unknown scene field(s): {', '.join(sorted(unknown))}")

    _require("ambient" in data, "missing field: ambient")
    ambient_raw = data["ambient"]
    _require(
        isinstance(ambient_raw, list) and ambient_raw,
        "ambient must be a nonempty list of dimensions",
    )
    ambient = AmbientSpace(tuple(_parse_int(n, "ambient") for n in ambient_raw))

    _require("degrees" in data, "missing field: degrees")
    degrees_raw = data["degrees"]
    _require(
        isinstance(degrees_raw, list) and degrees_raw,
        "degrees must be a nonempty list of multidegrees",
    )
    _require(all(isinstance(d, list) for d in degrees_raw), "each multidegree must be a list")
    multidegrees = [tuple(_parse_int(x, "degrees") for x in d) for d in degrees_raw]

    name = data.get("name", "")
    _require(isinstance(name, str), "name must be a string")
    chart = data.get("chart")
    _require("chart" not in data or isinstance(chart, str), "chart must be a string")

    smooth = data.get("smooth", False)
    _require(isinstance(smooth, bool), "smooth must be true or false")

    polynomial = None
    if "polynomial" in data:
        _require(not smooth, "a smooth scene cannot carry a polynomial")
        # The variable count is a rule of validate_scene, checked here as
        # well: the parser reads the names before any scene exists, and a
        # short list would show as an unknown variable in the polynomial.
        variables = data.get("variables")
        _require(
            "variables" not in data
            or isinstance(variables, list)
            and all(isinstance(v, str) for v in variables)
            and len(variables) == ambient.dim + 1,
            "variables must list one name per homogeneous coordinate",
        )
        text = data["polynomial"]
        _require(isinstance(text, str), "polynomial must be a string")
        # Imported with the first polynomial, so that other scenes never load the engine.
        from .polynomials import PolyParseError, parse_polynomial

        try:
            polynomial = parse_polynomial(text, variables or default_variables(ambient.dim))
        except PolyParseError as exc:
            raise SceneFileError(f"bad polynomial: {exc}") from exc
    else:
        _require("variables" not in data, "variables are only meaningful with a polynomial")

    strata = []
    if "strata" in data:
        _require(isinstance(data["strata"], list), "strata must be a list")
        strata = [_parse_stratum(s, ambient) for s in data["strata"]]

    if "mu" in data:
        _require(not smooth, "a smooth scene cannot carry mu values")
        _require(polynomial is None, "a polynomial scene cannot carry mu values")
        _require(strata, "mu values need strata")
        _require(isinstance(data["mu"], dict), "mu must be a map from stratum ids to integers")
        values = {key: _parse_int(value, f"mu[{key!r}]") for key, value in data["mu"].items()}

    _require(
        polynomial is not None or "mu" in data or smooth,
        "a scene needs a polynomial with a chart, or strata with mu, or smooth: true",
    )

    try:
        scene = StrataScene(
            ambient=ambient,
            multidegrees=tuple(multidegrees),
            strata=tuple(strata),
            defining_polynomial=polynomial,
            chart=chart,
            name=name,
        )
        mu = ConstructibleFunction(scene, values) if "mu" in data else None
    except ValueError as exc:
        raise SceneFileError(str(exc)) from exc
    return scene, mu


def _unique_keys(pairs: list[tuple[str, object]], path: str) -> dict:
    """The object of a JSON text, refusing a key that appears twice in it."""
    data = {}
    for key, value in pairs:
        if key in data:
            limit = sys.get_int_max_str_digits()
            # Named by its length, so that a message never echoes a long key.
            name = f"a key of {len(key)} characters" if limit and len(key) > limit else f"the key {key!r}"
            raise SceneFileError(f"{path}: {name} appears twice in one object")
        data[key] = value
    return data


@functools.lru_cache(maxsize=_SCENE_CACHE_SIZE)
def _scene_of_text(path: str, text: str, limit: int) -> tuple[StrataScene, Optional[ConstructibleFunction]]:
    """The scene of a file's text; ``limit``, the int-digit limit, only keys it."""
    try:
        data = json.loads(
            text,
            parse_int=lambda digits: _parse_int(digits, path),
            object_pairs_hook=lambda pairs: _unique_keys(pairs, path),
        )
    except json.JSONDecodeError as exc:
        raise SceneFileError(f"{path} is not valid JSON: {exc}") from exc
    return scene_from_dict(data)


def load_scene(path: str) -> tuple[StrataScene, Optional[ConstructibleFunction]]:
    """Read and validate a scene file from disk.

    The file is read on every call.  Its scene is kept for the process,
    among the last ``_SCENE_CACHE_SIZE``, keyed by the path, the text and
    ``sys.get_int_max_str_digits()``: a later call that reads the same
    text under the same limit returns the same objects, with no parse and
    no ``validate_scene``.  Callers share them and must not change them.
    An error is never kept.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SceneFileError(f"cannot read {path}: {exc}") from exc
    return _scene_of_text(path, text, sys.get_int_max_str_digits())
