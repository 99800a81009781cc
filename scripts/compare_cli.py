#!/usr/bin/env python3
"""Run one fixed list of CLI invocations in two checkouts and compare them.

    python3 scripts/compare_cli.py --parent ../parent --change .

Each checkout runs the whole list in a child process of its own, through
``milnorcalc.cli.main`` imported from that checkout's ``src/``, and the
stdout, stderr and exit code of every invocation are compared.  The
list holds:

- ``report``, ``--json report``, ``check``, ``--json check`` and
  ``--quiet check`` at m = 1, 2, 3 on the scenes in ``scenes/``, on
  seeded ``milnor`` and ``chow`` scenes from ``perfbench/workloads.py``,
  on two polynomial scenes with two multidegrees, on seven smooth
  scenes whose box shapes differ (see ``EDGE_SCENES``), on a stratified
  scene with user mu on a product ambient, on a curve scene whose strata
  and classes disagree (``EULER_MISMATCH_SCENE``), on forty-four scenes
  that exit 2 and on one that exits 3;
- ``--json report`` and ``check`` at m = 9 on four of those scenes
  (``LARGE_M_SCENES`` and the first generated ``chow`` scene), whose
  product factor P^9 is wider than any of m = 1, 2, 3;
- ``milnor`` and ``milnor --json`` on fixed polynomials, among them the
  inputs that exit 2 and 3 (one for each message of the polynomial
  parser, a zero and a constant polynomial), a node in P^5, a chart
  validation that needs an S-pair, high single exponents, exponents
  over the limit and large coefficients;
- five forms of the retired ``table``, each of which argparse refuses
  with exit 2 as an unknown command, and a few other inputs that exit 2;
- before all of these, argparse-level rejections and ``--help``, so
  that the rest runs after the parser has refused input in the same
  process;
- after all of these, one form each on the two scenes of
  ``BOUNDARY_SCENES``, at the edges of the integer rules;
- then ``--json report`` and ``check`` at m = 1, 2, 3 on the two
  generated scenes of ``many_strata_scenes``, a curve over 300 point
  strata and a chain of 100 lines on a surface, whose stratum lookups
  and Moebius inversion run over hundreds of strata;
- last, after every input that exits 2 or 3, the warm block of
  ``warm_invocations``: inputs whose Milnor numbers the process has
  computed before, so that they are answered from the memo of
  ``total_milnor_number``.

With the nine corpus scenes that makes 1,637 invocations.  The forms of
one scene read one unchanged file in one child, so the 15 of a corpus
scene share one parse: the memo of ``load_scene`` answers all but the
first.

The scene files are written to a temporary directory, so both sides
read the same paths.  ``perfbench/workloads.py`` is imported from the
repository that holds this script, with bytecode writing off, and the
children run with ``-B``: no checkout gains files.  Every difference is
printed, and the exit status is 1 if there is any.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import json
import subprocess
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 100
M_VALUES = ("1", "2", "3")
# Scenes, by file name, also run at LARGE_M: a nodal curve, user mu on a
# line stratum, and user mu on P^2 x P^0 x P^1 (PRODUCT_STRATA_SCENE).
LARGE_M = "9"
LARGE_M_SCENES = ("nodal-cubic.json", "reducible-quadric-surface.json", "strata-2-0-1.json")
FIELDS = ("code", "stdout", "stderr")
# Scenes at the edges of the integer rules, by file name, each with the
# one form it runs in.  Degree 10^29 on P^1 is beyond 64 bits, so
# ``--json report`` writes it as a decimal string, as it writes the
# classes.  Degree 10^1500 on P^3 gives classes with 4,500-digit
# coefficients, so a text ``report`` exits 2 and writes nothing to stdout.
BOUNDARY_SCENES = {
    "degree-1e29.json": ({"ambient": [1], "degrees": [[10**29]], "smooth": True}, ["--json", "report"]),
    "degree-1e1500.json": ({"ambient": [3], "degrees": [["1" + "0" * 1500]], "smooth": True}, ["report"]),
}

# Stratum counts of the two scenes of many_strata_scenes.
CURVE_POINTS = 300
CHAIN_LINES = 100

# Runs the invocations read from stdin through main() and writes one
# {"code", "stdout", "stderr"} object per invocation.  An exception is
# recorded by type and message, without the traceback, whose paths
# differ between checkouts.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from milnorcalc.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "exception"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(results, sys.stdout)
"""

# (polynomial, variables, chart) for the milnor subcommand.
MILNOR_CASES = [
    ("y^2*z - x^3 - x^2*z", "x,y,z", "z"),
    ("y^2*z - x^3", "x,y,z", "z"),
    ("x^2 + y^2 + z^2", "x,y,z", "z"),
    ("x^5 + y^4*z + x^2*y^2*z", "x,y,z", "z"),
    ("x^2", "x", "x"),
    # Exit 3: singularities off the chart, or not isolated.
    ("y^2*z - x^3", "x,y,z", "y"),
    # The cusp is on x = 0 too, and in chart x its equation has a
    # critical line off the curve.
    ("y^2*z - x^3", "x,y,z", "x"),
    ("x*y*z", "x,y,z", "z"),
    ("z^2", "x,y,z", "z"),
    ("x^2*y", "x,y,z", "z"),
    # Exit 2: bad polynomial text, chart or variable list.
    ("x^2 +", "x,y,z", "z"),
    ("(y^2*z - x^3)*(y - z)", "x,y,z", "z"),
    ("x^2 + y^2 + $", "x,y,z", "z"),
    ("x^2/2 + y^2 + z^2", "x,y,z", "z"),
    ("1/x*x^2 + y^2 + z^2", "x,y,z", "z"),
    ("1/0*x^2 + y^2 + z^2", "x,y,z", "z"),
    ("2x^2 + y^2 + z^2", "x,y,z", "z"),
    ("x^2 + q^2 + z^2", "x,y,z", "z"),
    ("x^-2 + y^2 + z^2", "x,y,z", "z"),
    ("x^y + y^2 + z^2", "x,y,z", "z"),
    ("x^0*y^2 + z^2", "x,y,z", "z"),
    # A bad character wins over the juxtaposition before it.
    ("x y (", "x,y,z", "z"),
    # Accepted signed and rational forms.
    ("+1/2*y^2*z - 1/2*x^3 - 1/2*x^2*z", "x,y,z", "z"),
    ("-x^2 + 3/4*y^2 - z^2", "x,y,z", "z"),
    # Non-ASCII digits: before, Python's int() refused the first two and
    # read the third as 3; now each is an unexpected character.
    ("2²*x^3 + y^3 + z^3", "x,y,z", "z"),
    ("x^² + y^2", "x,y,z", "z"),
    ("٣*x^2 + y^2 + z^2", "x,y,z", "z"),
    ("x^2 + y^2 + z^2", "x,y,z", "t"),
    ("x^2 + y", "x,y,z", "z"),
    ("y^2*z - x^3", "x,y,z,z", "z"),
    ("x^2", " , ", "x"),
    # A literal over Python's int-string limit (4,300 digits).
    ("9" * 5000 + "*x^2 + y^2 + z^2", "x,y,z", "z"),
    # The widest packed monomial layout of the Groebner engine: a node in P^5.
    (
        "x5*x0^2 + x5*x1^2 + x5*x2^2 + x5*x3^2 + x5*x4^2 + x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
        "x0,x1,x2,x3,x4,x5",
        "x5",
    ),
    # Chart validation that needs an S-pair: on z = 0 the partials 6xy and
    # 3x^2 + 3y^2 hold no pure power of y until the S-polynomial gives y^3.
    ("3*x^2*y + y^3 + z^3", "x,y,z", "z"),
    # High single exponents: a point of Milnor number 59 on P^1, and a
    # singular point on the removed line (exit 3).
    ("x^60*z + x^61", "x,z", "z"),
    ("y^2*z^98 - x^100", "x,y,z", "z"),
    # Large coefficients on a nodal cubic.
    ("123456789012345678901234567890*y^2*z - x^3 - 98765432109876543210*x^2*z", "x,y,z", "z"),
    # Exponents over the limit of 32,767, refused when the polynomial is
    # parsed.  The first is also not homogeneous, which the parent
    # reported instead: the one difference allowed between the two.
    ("x^40000 + y", "x,y,z", "z"),
    ("x^40000 + z^40000", "x,y,z", "z"),
    # Exit 2: a zero polynomial, and a constant one.
    ("0", "x,y,z", "z"),
    ("7", "x,y,z", "z"),
]

# The retired table command, in the forms it took when it still ran.
TABLES = [
    ["table"],
    ["table", "--nmax", "6", "--dmax", "7"],
    ["--json", "table"],
    ["--json", "table", "--nmax", "20", "--dmax", "20"],
    ["table", "--nmax", "0"],
]

# A conic given two multidegrees, with and without strata.
TWO_DEGREE_CONIC = {
    "ambient": [2],
    "degrees": [[2], [1]],
    "polynomial": "x^2 + y^2 + z^2",
    "chart": "z",
    "strata": [{"id": "a", "dim": 0, "chi_c": 2, "closure_chi": 2}],
}

# Smooth scenes whose boxes differ in shape: factors of dimension 0, 1, 7
# and 8, five factors, a last factor of dimension 0 and of dimension 8,
# next to which the product factor P^m is added, and a complete
# intersection on a product, whose Fulton-Johnson class divides twice.
EDGE_SCENES = {
    "smooth-8-1": {"ambient": [8, 1], "degrees": [[2, 3]], "smooth": True},
    "smooth-0-3": {"ambient": [0, 3], "degrees": [[1, 4]], "smooth": True},
    "smooth-1-1-1-1-1": {"ambient": [1, 1, 1, 1, 1], "degrees": [[1, 2, 1, 2, 1]], "smooth": True},
    "smooth-7": {"ambient": [7], "degrees": [[5]], "smooth": True},
    "smooth-2-0": {"ambient": [2, 0], "degrees": [[3, 1]], "smooth": True},
    "smooth-1-8": {"ambient": [1, 8], "degrees": [[2, 3]], "smooth": True},
    "complete-intersection-3-2": {"ambient": [3, 2], "degrees": [[1, 2], [2, 1]], "smooth": True},
}

# User mu on a product ambient: a (2,0,1) surface in P^2 x P^0 x P^1
# with a curve stratum, whose closure is a line with its csm class, and a
# point on it.  Mu is nonzero on both, so the report has a nonzero Milnor
# class, localization and the lci accumulation on Y x P^m; the chi_c
# values make euler_strata pass.
PRODUCT_STRATA_SCENE = {
    "ambient": [2, 0, 1],
    "degrees": [[2, 0, 1]],
    "strata": [
        {"id": "smooth_part", "dim": 2, "chi_c": 2, "closure_chi": 4},
        {
            "id": "curve", "dim": 1, "chi_c": 1, "closure_chi": 2,
            "csm": {"1,0,1": 1, "2,0,1": 2}, "parents": ["smooth_part"],
        },
        {"id": "point", "dim": 0, "chi_c": 1, "closure_chi": 1, "parents": ["curve"]},
    ],
    "mu": {"curve": -1, "point": 2},
}

# A curve stratum whose csm class has degree 2 while its chi_c is 1: the
# scene passes every scene rule, and only euler_strata sees the fault, so
# each check form exits 1 while each report exits 0.
EULER_MISMATCH_SCENE = {
    "ambient": [2], "degrees": [[3]],
    "strata": [{"id": "c", "dim": 1, "chi_c": 1, "closure_chi": 1, "csm": {"1": 1, "2": 1}}],
    "mu": {"c": 1},
}

# Scenes that exit 2: a malformed polynomial, whose message goes through
# "bad polynomial: ...", a negative multidegree entry, a negative stratum
# dim, an integer longer than Python's default int-string limit
# (4,300 digits), as a string, as a JSON number, as a polynomial literal
# and as a csm exponent key, an exponent over the limit of 32,767, and
# two csm keys for one exponent.  After these, one scene for each rule
# that ties a scene's fields together, each with that one fault: a zero
# multidegree, a multidegree nonzero on P^0 factors alone, smooth and with
# a polynomial, a multidegree longer than the ambient, a polynomial on a
# product, a polynomial without a chart, a null chart, a chart that names
# no variable, a chart without a polynomial, a zero polynomial, one that
# is not homogeneous, a cubic declared of degree 4, a polynomial with
# mu, and mu on a stratum the scene does not have.  Last, one scene for
# each error that no other input reaches: two strata with one id, an
# unknown parent, a stratum dim that is text, a fraction or a bool, a
# negative factor dimension, two closed points for the computed
# vanishing cycles, user mu on two multidegrees, and user mu on a curve
# stratum without a csm class, the one scene here that exits 3.  Then
# one scene for each rule of the closure poset: a dim above that of the
# variety, a point in the closure of a point, a stratum that is its own
# parent, a cycle of two parents, and a curve whose csm class is the
# point class, with nothing in the codimension of a curve.  Last, one
# scene for each Euler or csm rule that no other input reaches: a
# closure_chi that is not the sum over the closure, a csm class whose
# degree is not closure_chi, and one with a term below the stratum's
# codimension; and a variables list of the wrong length.
LONG_DIGITS = "9" * 5000
LONG_NUMBER = "<a JSON number of 5,000 digits>"
POINT = {"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1}
NODAL_CUBIC = {"ambient": [2], "degrees": [[3]], "polynomial": "y^2*z - x^3 - x^2*z", "chart": "z"}
INVALID_SCENES = {
    "bad-polynomial": {"ambient": [2], "degrees": [[3]], "polynomial": "y^2*z - x^3 - x^2 z", "chart": "z"},
    "negative-degree": {"ambient": [2], "degrees": [[-3]], "smooth": True},
    "negative-dim": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, dim=-4)], "mu": {"p": 1}},
    "long-string": {"ambient": [2], "degrees": [[3]], "strata": [POINT], "mu": {"p": LONG_DIGITS}},
    "long-number": {"ambient": [2], "degrees": [[3]], "strata": [POINT], "mu": {"p": LONG_NUMBER}},
    "long-literal": {"ambient": [2], "degrees": [[3]], "polynomial": f"y^2*z - {LONG_DIGITS}*x^3", "chart": "z"},
    # Over the exponent limit and not homogeneous: the limit is named
    # now, the parent named the homogeneity.
    "over-limit-exponent": {"ambient": [2], "degrees": [[3]], "polynomial": "x^40000 + y^3", "chart": "z"},
    "long-csm-key": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, csm={LONG_DIGITS: 1})], "mu": {"p": 1}},
    "csm-keys-one-exponent": {
        "ambient": [2], "degrees": [[3]], "strata": [dict(POINT, csm={"2": 1, "02": 5})], "mu": {"p": 1},
    },
    "zero-degree": {"ambient": [2], "degrees": [[0]], "smooth": True},
    "degree-on-a-point-factor": {"ambient": [2, 0], "degrees": [[0, 3]], "smooth": True},
    "polynomial-on-a-point": {"ambient": [0], "degrees": [[1]], "polynomial": "x", "chart": "x"},
    "degree-longer-than-ambient": {"ambient": [2], "degrees": [[3, 1]], "smooth": True},
    "polynomial-on-product": {"ambient": [1, 1], "degrees": [[1, 1]], "polynomial": "x*y", "chart": "y"},
    "polynomial-without-chart": {k: v for k, v in NODAL_CUBIC.items() if k != "chart"},
    "null-chart": dict(NODAL_CUBIC, chart=None),
    "unknown-chart": dict(NODAL_CUBIC, chart="q"),
    "chart-without-polynomial": {"ambient": [2], "degrees": [[2]], "smooth": True, "chart": "z"},
    "zero-polynomial": dict(NODAL_CUBIC, polynomial="x^3 - x^3"),
    "inhomogeneous-polynomial": dict(NODAL_CUBIC, polynomial="y^2*z - x^3 - x"),
    "degree-mismatch": dict(NODAL_CUBIC, degrees=[[4]]),
    "polynomial-with-mu": dict(NODAL_CUBIC, strata=[POINT], mu={"p": 1}),
    "unknown-mu-stratum": {"ambient": [2], "degrees": [[3]], "strata": [POINT], "mu": {"phantom": 1}},
    "duplicate-stratum-ids": {"ambient": [2], "degrees": [[3]], "strata": [POINT, POINT], "mu": {"p": 1}},
    "unknown-parent": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, parents=["ghost"])], "mu": {"p": 1}},
    "text-dim": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, dim="abc")], "mu": {"p": 1}},
    "fraction-dim": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, dim=1.5)], "mu": {"p": 1}},
    "bool-dim": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, dim=True)], "mu": {"p": 1}},
    "negative-ambient": {"ambient": [-1], "degrees": [[3]], "smooth": True},
    "two-closed-points": dict(NODAL_CUBIC, strata=[POINT, dict(POINT, id="q")]),
    "mu-with-two-degrees": {"ambient": [2], "degrees": [[2], [1]], "strata": [POINT], "mu": {"p": 1}},
    "curve-without-csm": {
        "ambient": [2], "degrees": [[3]], "strata": [{"id": "c", "dim": 1, "chi_c": 0, "closure_chi": 0}],
        "mu": {"c": 1},
    },
    "dim-above-the-variety": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, dim=5)], "mu": {"p": 1}},
    "point-under-a-point": {
        "ambient": [2], "degrees": [[3]], "strata": [dict(POINT, closure_chi=2), dict(POINT, id="q", parents=["p"])],
        "mu": {"p": 1},
    },
    "self-parent": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, parents=["p"])], "mu": {"p": 1}},
    "parent-cycle": {
        "ambient": [2], "degrees": [[3]],
        "strata": [
            dict(POINT, id="a", parents=["b"]),
            {"id": "b", "dim": 1, "chi_c": 0, "closure_chi": 1, "parents": ["a"]},
        ],
        "mu": {"a": 1},
    },
    "curve-with-point-class": {
        "ambient": [2], "degrees": [[3]],
        "strata": [{"id": "c", "dim": 1, "chi_c": 1, "closure_chi": 1, "csm": {"2": 1}}],
        "mu": {"c": 1},
    },
    "closure-chi-mismatch": {
        "ambient": [2], "degrees": [[3]], "strata": [dict(POINT, closure_chi=2)], "mu": {"p": 1},
    },
    "csm-degree-mismatch": {"ambient": [2], "degrees": [[3]], "strata": [dict(POINT, csm={"2": 2})], "mu": {"p": 1}},
    "csm-below-codimension": {
        "ambient": [2], "degrees": [[3]], "strata": [dict(POINT, csm={"1": 1, "2": 1})], "mu": {"p": 1},
    },
    "short-variables": dict(NODAL_CUBIC, variables=["x", "y"]),
}

# Scenes that repeat a key in one object, at the top, in mu and in a
# csm map; each exits 2.  They are written as text, since a dict holds
# a key once.
REPEATED_KEY_SCENES = {
    "repeated-ambient": '{"ambient": [2], "ambient": [3], "degrees": [[3]], "smooth": true}',
    "repeated-mu": (
        '{"ambient": [2], "degrees": [[3]], "mu": {"p": 1, "p": 2},'
        ' "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1}]}'
    ),
    "repeated-csm-key": (
        '{"ambient": [2], "degrees": [[3]], "mu": {"p": 1},'
        ' "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1, "csm": {"2": 5, "2": 1}}]}'
    ),
}

# A scene file cut off inside its object, which exits 2.
MALFORMED_SCENES = {"not-json": '{"ambient": [2], "degrees": [[3]],'}


def many_strata_scenes() -> dict[str, dict]:
    """Two scenes with hundreds of strata and user mu, whose checks pass.

    ``curve-over-points``: a plane cubic with CURVE_POINTS point strata.
    Mu is zero on the curve, so the Milnor class is sum(mu) points, and
    the Euler number is -sum(mu).  ``chain-of-lines``: a quartic surface
    in P^3 holding CHAIN_LINES lines, each meeting the next in a point
    and holding one point of its own.  Each line carries the class
    H^2 + 2H^3 of a line.  A line with mu value a and a point with
    closure-indicator coefficient b add -2a and b to the degree of the
    Milnor class, and the Euler number is 24 minus that degree.  The
    chi_c of the curve and of the surface make ``euler_strata`` pass.
    """
    values = {f"p{i}": i % 5 - 2 for i in range(CURVE_POINTS)}
    total = sum(values.values())
    curve = [{"id": "curve", "dim": 1, "chi_c": -total - CURVE_POINTS, "closure_chi": -total}]
    points = [{"id": p, "dim": 0, "chi_c": 1, "closure_chi": 1, "parents": ["curve"]} for p in values]
    strata, mu = [], {}
    # The degree of the Milnor class, and the chi_c of the strata below the surface.
    degree = below = 0
    for j in range(CHAIN_LINES):
        meets = [f"q{k}" for k in (j - 1, j) if 0 <= k < CHAIN_LINES - 1]
        strata.append({
            "id": f"line{j}", "dim": 1, "chi_c": 1 - len(meets), "closure_chi": 2,
            "csm": {"2": 1, "3": 2}, "parents": ["surface"],
        })
        strata.append({"id": f"e{j}", "dim": 0, "chi_c": 1, "closure_chi": 1, "parents": [f"line{j}"]})
        mu.update({f"line{j}": j % 3 - 1, f"e{j}": j % 4})
        # Each of the line's 1 + len(meets) points subtracts its value from b.
        degree += mu[f"e{j}"] - (3 + len(meets)) * mu[f"line{j}"]
        below += 2 - len(meets)
    for k in range(CHAIN_LINES - 1):
        parents = [f"line{k}", f"line{k + 1}"]
        strata.append({"id": f"q{k}", "dim": 0, "chi_c": 1, "closure_chi": 1, "parents": parents})
        mu[f"q{k}"] = k % 5 - 1
        degree += mu[f"q{k}"]
        below += 1
    euler = 24 - degree
    strata.insert(0, {"id": "surface", "dim": 2, "chi_c": euler - below, "closure_chi": euler})
    return {
        "curve-over-points": {"ambient": [2], "degrees": [[3]], "strata": curve + points, "mu": values},
        "chain-of-lines": {"ambient": [3], "degrees": [[4]], "strata": strata, "mu": mu},
    }


def load_workloads(root: Path):
    """Import ``perfbench/workloads.py`` without writing its bytecode."""
    sys.dont_write_bytecode = True
    path = root / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("compare_cli_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def scene_paths(root: Path, outdir: Path) -> list[str]:
    """The corpus, one seeded pass of each generated workload, the
    two-multidegree conics, the box-shape scenes, the stratified product
    scene, the Euler mismatch scene and the invalid scenes, written under
    ``outdir`` where needed."""
    workloads = load_workloads(root)
    paths = [str(path) for path in sorted((root / "scenes").glob("*.json"))]
    generators = {"milnor": workloads.milnor_requests, "chow": workloads.chow_requests}
    for name, generate in generators.items():
        (outdir / name).mkdir()
        requests, warmup = generate(outdir / name, SEED, 1)
        paths.extend(request.scene for request in requests + [warmup])
    bare = {k: v for k, v in TWO_DEGREE_CONIC.items() if k != "strata"}
    written = {
        "two-degree-conic": TWO_DEGREE_CONIC, "two-degree-conic-bare": bare, **EDGE_SCENES,
        "strata-2-0-1": PRODUCT_STRATA_SCENE, "euler-mismatch": EULER_MISMATCH_SCENE, **INVALID_SCENES,
    }
    for name, data in written.items():
        path = outdir / f"{name}.json"
        text = json.dumps(data, sort_keys=True, indent=2).replace(f'"{LONG_NUMBER}"', LONG_DIGITS)
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(str(path))
    for name, text in {**REPEATED_KEY_SCENES, **MALFORMED_SCENES}.items():
        path = outdir / f"{name}.json"
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def large_m_paths(scenes: list[str]) -> list[str]:
    """The scenes of ``LARGE_M_SCENES`` and the first generated ``chow`` scene."""
    chow = next(scene for scene in scenes if Path(scene).parent.name == "chow")
    return [scene for scene in scenes if Path(scene).name in LARGE_M_SCENES] + [chow]


def scene_forms(scene: str) -> list[list[str]]:
    """``report``, ``--json report``, ``check``, ``--json check`` and
    ``--quiet check`` on one scene at every m: fifteen argument lists."""
    forms = (
        ([], "report"), (["--json"], "report"),
        ([], "check"), (["--json"], "check"), (["--quiet"], "check"),
    )
    return [prefix + [command, scene, "--m", m] for m in M_VALUES for prefix, command in forms]


def milnor_forms(cases) -> list[list[str]]:
    """``milnor`` and ``milnor --json`` on each (polynomial, variables, chart)."""
    return [
        prefix + ["milnor", "--poly", poly, "--vars", variables, "--chart", chart]
        for poly, variables, chart in cases
        for prefix in ([], ["--json"])
    ]


def invocations(scenes: list[str], large_m: Sequence[str] = ()) -> list[list[str]]:
    """The fixed argument lists, for the given scene files and the scenes
    also run at ``LARGE_M``."""
    first = scenes[0]
    # Rejections and help come first, so every later invocation runs
    # after the parser has refused input and printed help.
    result = [
        ["report"],
        ["report", first, "--m", "two"],
        ["milnor", "--vars", "x,y,z", "--chart", "z"],
        ["--help"],
        ["report", "--help"],
    ]
    for scene in scenes:
        result.extend(scene_forms(scene))
    for scene in large_m:
        result.extend([["--json", "report", scene, "--m", LARGE_M], ["check", scene, "--m", LARGE_M]])
    result.extend(milnor_forms(MILNOR_CASES))
    result.extend(TABLES)
    result.extend([
        ["check", first, "--checks", "frobnicate"],
        ["check", first, "--checks", "euler_strata"],
        ["check", first, "--checks", "verdier,lci,pushdown", "--m", "2"],
        ["report", first, "--m", "0"],
        ["report", first + ".missing"],
        ["frobnicate"],
    ])
    return result


def boundary_invocations(outdir: Path) -> list[list[str]]:
    """Write the scenes of ``BOUNDARY_SCENES`` under ``outdir``, and return
    the argument list of each."""
    result = []
    for name, (data, command) in BOUNDARY_SCENES.items():
        path = outdir / name
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        result.append(command + [str(path)])
    return result


def many_strata_invocations(outdir: Path) -> list[list[str]]:
    """Write the scenes of ``many_strata_scenes`` under ``outdir``, and
    return ``--json report`` and ``check`` on each at every m."""
    result = []
    for name, data in many_strata_scenes().items():
        path = str(outdir / f"{name}.json")
        Path(path).write_text(json.dumps(data) + "\n", encoding="utf-8")
        for m in M_VALUES:
            result.extend([["--json", "report", path, "--m", m], ["check", path, "--m", m]])
    return result


# The nodal cubic's polynomial in each chart, and in reordered text: an
# equal polynomial, which the memo answers for the first.  Charts y and x
# miss the node, so they exit 3 on every call.
WARM_MILNOR_CASES = [
    ("y^2*z - x^3 - x^2*z", "x,y,z", "z"),
    ("y^2*z - x^3 - x^2*z", "x,y,z", "y"),
    ("y^2*z - x^3 - x^2*z", "x,y,z", "x"),
    ("-x^2*z + y^2*z - x^3", "x,y,z", "z"),
]


def warm_invocations(root: Path, outdir: Path) -> list[list[str]]:
    """Write the nodal cubic without strata under ``outdir``, and return
    the warm block: its fifteen forms, whose Milnor number the corpus
    scene of the same polynomial and chart computed earlier, then
    ``--json report --m 1`` on each corpus scene, then ``milnor`` and
    ``milnor --json`` on ``WARM_MILNOR_CASES``."""
    path = outdir / "nodal-cubic-bare.json"
    path.write_text(json.dumps(NODAL_CUBIC) + "\n", encoding="utf-8")
    result = scene_forms(str(path))
    for scene in sorted((root / "scenes").glob("*.json")):
        result.append(["--json", "report", str(scene), "--m", "1"])
    return result + milnor_forms(WARM_MILNOR_CASES)


def run_checkout(checkout: Path, argvs: list[list[str]]) -> list[dict]:
    """Run every argument list through the checkout's ``main`` in one child."""
    src = Path(checkout).resolve() / "src"
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(src)],
        input=json.dumps(argvs), capture_output=True, text=True, cwd=checkout,
    )
    if done.returncode != 0:
        sys.exit(f"error: {checkout}: the child exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def differences(argvs: list[list[str]], parent: list[dict], change: list[dict]) -> list[str]:
    """One report per invocation whose exit code, stdout or stderr differ."""
    if not len(argvs) == len(parent) == len(change):
        raise ValueError("each side needs one result per invocation")
    found = []
    for argv, old, new in zip(argvs, parent, change):
        lines = []
        for field in FIELDS:
            if old[field] == new[field]:
                continue
            if field == "code":
                lines.append(f"  exit code: {old['code']} -> {new['code']}")
                continue
            lines.append(f"  {field}:")
            diff = difflib.unified_diff(
                old[field].splitlines(), new[field].splitlines(), "parent", "change", lineterm=""
            )
            lines.extend("    " + line for line in diff)
        if lines:
            found.append("\n".join(["$ milnorcalc " + " ".join(argv)] + lines))
    return found


def all_invocations(outdir: Path) -> list[list[str]]:
    """The whole list, in order, with its scene files written under ``outdir``."""
    scenes = scene_paths(ROOT, outdir)
    argvs = invocations(scenes, large_m_paths(scenes)) + boundary_invocations(outdir)
    return argvs + many_strata_invocations(outdir) + warm_invocations(ROOT, outdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-cli-") as tmp:
        argvs = all_invocations(Path(tmp))
        results = {side: run_checkout(getattr(args, side), argvs) for side in ("parent", "change")}
    found = differences(argvs, results["parent"], results["change"])
    for text in found:
        print(text)
    print(f"{len(found)} of {len(argvs)} invocations differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
