"""Command-line interface.

Four subcommands: ``report`` prints every class and check for a scene
file, ``check`` runs selected identity checks and signals failure
through the exit code, ``milnor`` computes a total Milnor number from
a raw polynomial, and the retired ``table`` takes any arguments and
exits 2 with a pointer to ``report``.  Exit codes: 0 success, 1 failed
checks, 2 invalid input, 3 a math-level obstruction: an error whose
type is a ``MathObstruction``, such as non-isolated singularities.
Each ``cmd_*`` returns its exit code and its whole output; ``main``
alone writes stdout and stderr, after the command has returned, and a
reader that closes either early leaves that exit code as it is.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from .charclasses import build_report, canonical_json, check_to_jsonable, report_to_jsonable
from .chow import MathObstruction, _ambient_label
from .scenefile import load_scene

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_MATH = 3


class UsageError(ValueError):
    """An argument the command cannot use; like a bad scene file, it exits 2."""


# Each name that --checks accepts, and the report keys it selects, with
# {m} standing for the product factor dimension.
_CHECK_ALIASES = {
    "verdier": ("verdier_m{m}",),
    "verdier_smooth": ("verdier_m{m}",),
    "defect": ("defect_codim1",),
    "defect_codim1": ("defect_codim1",),
    "pushdown": ("pushdown_m{m}",),
    "proper_pushdown": ("pushdown_m{m}",),
    "lci": ("lci_m{m}",),
    "lci_defect": ("lci_m{m}",),
    "euler": ("euler_strata",),
    "euler_strata": ("euler_strata",),
    "all": ("verdier_m{m}", "defect_codim1", "pushdown_m{m}", "lci_m{m}", "euler_strata"),
}


def _check_keys(report_checks, names: list[str], m: int) -> list[str]:
    """Report keys of the selected checks; a selection that names a
    check the report does not have is an error, not a silent pass."""
    result = []
    for name in names:
        wanted = [template.format(m=m) for template in _CHECK_ALIASES[name]]
        found = [key for key in wanted if key in report_checks]
        if not found:
            # Every check but euler_strata needs one multidegree; "all" names both needs.
            euler = "strata with chi_c on every stratum"
            needs = dict.fromkeys(euler if key == "euler_strata" else "one multidegree" for key in wanted)
            raise UsageError(f"check {name!r} does not apply to this scene: it needs {', or '.join(needs)}")
        for key in found:
            if key not in result:
                result.append(key)
    return result


def _check_line(name: str, check) -> str:
    status = "pass" if check.passed else "FAIL"
    suffix = ""
    if not check.passed and check.residual is not None:
        suffix = f"  residual: {check.residual}"
    if check.detail:
        suffix += f"  ({check.detail})"
    return f"{name}: {status}{suffix}"


def _report_text(report) -> str:
    scene = report.scene
    lines = [f"scene: {scene.name}"] if scene.name else []
    lines.append(f"ambient: {_ambient_label(scene.ambient.factors)}")
    degrees = ", ".join("(" + ",".join(str(x) for x in d) + ")" for d in scene.multidegrees)
    lines.append(f"degrees: {degrees}")
    if report.milnor_data is not None:
        lines.append(
            f"total milnor number: {report.milnor_data.total_milnor}"
            f" (chart {report.milnor_data.chart})"
        )
    mu_values = report.mu.values
    if mu_values:
        rendered = ", ".join(f"{k} -> {v}" for k, v in sorted(mu_values.items()))
        lines.append(f"mu: {rendered}")
    lines.append(f"fulton_johnson: {report.fulton_johnson}")
    lines.append(f"milnor_class: {report.milnor_class}")
    lines.append(f"csm: {report.csm}")
    lines.append(f"euler: {report.euler}")
    if report.localization:
        lines.append("localization:")
        for stratum_id, term in report.localization:
            lines.append(f"  {stratum_id}: {term}")
    lines.append("checks:")
    for name in sorted(report.checks):
        lines.append("  " + _check_line(name, report.checks[name]))
    return "\n".join(lines)


def cmd_report(args) -> tuple[int, str]:
    scene, mu = load_scene(args.scene)
    report = build_report(scene, mu, m=args.m)
    if args.json:
        return EXIT_OK, canonical_json(report_to_jsonable(report))
    return EXIT_OK, _report_text(report)


def cmd_check(args) -> tuple[int, str]:
    # Check names are validated before any class is computed.
    names = [raw.strip() for raw in args.checks.split(",")]
    for name in names:
        if name not in _CHECK_ALIASES:
            raise UsageError(f"unknown check {name!r}")
    scene, mu = load_scene(args.scene)
    report = build_report(scene, mu, m=args.m)
    keys = _check_keys(report.checks, names, args.m)
    code = EXIT_OK if all(report.checks[key].passed for key in keys) else EXIT_CHECK_FAILED
    if args.json:
        return code, canonical_json({key: check_to_jsonable(report.checks[key]) for key in keys})
    return code, "\n".join(_check_line(key, report.checks[key]) for key in keys)


def cmd_milnor(args) -> tuple[int, str]:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not variables:
        raise UsageError("--vars needs at least one variable name")
    from .groebner import total_milnor_number
    from .polynomials import parse_polynomial

    # The arguments as resolve_mu passes them, so that report, check and
    # milnor share one stored result per polynomial and chart.
    result = total_milnor_number(parse_polynomial(args.poly, variables), args.chart, None)
    if args.json:
        payload = {"chart": result.chart, "off_curve_dim": result.off_curve_dim, "total_milnor": result.total_milnor}
        return EXIT_OK, canonical_json(payload)
    return EXIT_OK, str(result.total_milnor)


def _retired_table(args):
    raise UsageError('table is retired: report prints its euler for the scene {"ambient": [n], "degrees": [[d]], "smooth": true}')


# Built on the first call to main and shared by every later call: main
# only calls parse_args, which leaves the parser as it was.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milnorcalc",
        description="Exact Milnor, Fulton-Johnson and CSM class calculator "
        "for hypersurfaces in products of projective spaces.",
    )
    parser.add_argument("--json", action="store_true", help="emit canonical JSON")
    parser.add_argument("--quiet", action="store_true", help="suppress normal output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full class report for a scene file")
    p_report.add_argument("scene", help="path to a scene JSON file")
    p_report.add_argument("--m", type=int, default=1, help="product factor dimension")
    p_report.set_defaults(func=cmd_report)

    p_check = sub.add_parser("check", help="run identity checks for a scene file")
    p_check.add_argument("scene", help="path to a scene JSON file")
    p_check.add_argument(
        "--checks",
        default="all",
        help="comma list from verdier, defect, pushdown, lci, euler_strata "
        "(default all: each of them that applies to the scene)",
    )
    p_check.add_argument("--m", type=int, default=1, help="product factor dimension")
    p_check.set_defaults(func=cmd_check)

    p_milnor = sub.add_parser("milnor", help="total Milnor number of a chart")
    p_milnor.add_argument("--poly", required=True, help="homogeneous polynomial")
    p_milnor.add_argument("--vars", required=True, help="comma list of variables")
    p_milnor.add_argument("--chart", required=True, help="chart variable")
    p_milnor.set_defaults(func=cmd_milnor)

    p_table = sub.add_parser("table", prefix_chars="+", help="retired: report on a smooth scene prints its euler")
    p_table.add_argument("retired", nargs="*")
    p_table.set_defaults(func=_retired_table)
    return parser


def _write(stream, text: str) -> None:
    """Print ``text`` to ``stream``; a reader that closed it raises nothing."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        # What is left unwritten goes to devnull, so that the interpreter's
        # flush at exit raises nothing (the Python docs' note on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, text = args.func(args)
    except ValueError as exc:
        _write(sys.stderr, f"error: {exc}")
        return EXIT_MATH if isinstance(exc, MathObstruction) else EXIT_INVALID
    if not args.quiet:
        _write(sys.stdout, text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
