"""Spans recorded from outside the program, around its public functions.

``Tracer.install`` replaces each traced function with a wrapper in
every ``milnorcalc`` module that binds it (``from … import`` makes a
binding per importing module), and replaces ``ChowClass.__mul__`` on
the class.  Besides public functions it wraps ``groebner._buchberger``,
through which every basis is computed, the elimination bases of
``ideal_quotient`` included.  A wrapper records one span per call: an
id, the id of the enclosing span, the request index, the span name,
start and end times and a few counts.  ``uninstall`` puts the original
objects back.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) of every traced function; the span is named
# "<module>.<attribute>".  Modules are reached through importlib
# because ``milnorcalc.groebner`` is the function of that name once the
# package ``__init__`` has run.
TRACED = (
    ("cli", "main"),
    ("scenefile", "load_scene"),
    ("polynomials", "parse_polynomial"),
    ("polynomials", "jacobian_ideal"),
    ("scenes", "validate_scene"),
    ("charclasses", "build_report"),
    ("charclasses", "resolve_mu"),
    ("charclasses", "fulton_johnson"),
    ("charclasses", "defect_codim1_check"),
    ("charclasses", "verdier_smooth_check"),
    ("charclasses", "proper_pushdown_check"),
    ("charclasses", "lci_defect_check"),
    ("charclasses", "report_to_jsonable"),
    ("charclasses", "canonical_json"),
    ("chow", "self_intersection_check"),
    ("chow", "unit_inverse"),
    ("chow", "tangent_class"),
    ("groebner", "total_milnor_number"),
    ("groebner", "saturate"),
    ("groebner", "ideal_quotient"),
    ("groebner", "quotient_dim"),
    ("groebner", "groebner"),
    ("groebner", "_buchberger"),
)

CHECKS = (
    "charclasses.defect_codim1_check",
    "charclasses.verdier_smooth_check",
    "charclasses.proper_pushdown_check",
    "charclasses.lci_defect_check",
    "chow.self_intersection_check",
)

# Span fields, in the order they are stored and written.
FIELDS = ("id", "parent", "request", "name", "start", "end", "info")


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, info: dict) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self.request, name, perf_counter(), None, info]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack.pop()

    def _enclosing(self, name: str):
        for span in reversed(self._stack):
            if span[3] == name:
                return span
        return None

    def _wrap(self, name: str, fn, info=lambda *args, **kwargs: {}):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, info(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _wrap_groebner(self, fn):
        # Classify the basis: inside saturate, on the homogeneous ring
        # of the enclosing total_milnor_number call (chart validation),
        # or on the dehomogenized ring (the Jacobian and the final
        # saturated basis).
        @functools.wraps(fn)
        def wrapper(ideal, *args, **kwargs):
            if self._enclosing("groebner.saturate") is not None:
                ring = "saturate"
            else:
                outer = self._enclosing("groebner.total_milnor_number")
                homogeneous = outer is not None and outer[6]["nvars"] == len(ideal.variables)
                ring = "homogeneous" if homogeneous else "affine"
            span = self._open("groebner.groebner", {"ring": ring})
            try:
                return fn(ideal, *args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _wrap_buchberger(self, fn):
        # Every basis goes through _buchberger: those of groebner() and
        # the elimination bases of ideal_quotient.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = {}
            span = self._open("groebner._buchberger", info)
            try:
                basis = fn(*args, **kwargs)
                info["basis_len"] = len(basis)
                return basis
            finally:
                self._close(span)

        return wrapper

    def _wrap_mul(self, fn, chow_class):
        # Only class-by-class products get a span; scaling by an int
        # goes through __mul__ too and is passed straight on.
        @functools.wraps(fn)
        def wrapper(a, b):
            if not isinstance(b, chow_class):
                return fn(a, b)
            span = self._open(
                "chow.ChowClass.__mul__",
                {"term_pairs": len(a.coefficients) * len(b.coefficients)},
            )
            try:
                return fn(a, b)
            finally:
                self._close(span)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a milnorcalc module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "milnorcalc"]
        for module_name, attr in TRACED:
            original = getattr(importlib.import_module(f"milnorcalc.{module_name}"), attr)
            name = f"{module_name}.{attr}"
            if name == "groebner.groebner":
                wrapper = self._wrap_groebner(original)
            elif name == "groebner._buchberger":
                wrapper = self._wrap_buchberger(original)
            elif name == "groebner.total_milnor_number":
                wrapper = self._wrap(name, original, lambda F, *a, **k: {"nvars": len(F.variables)})
            else:
                wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        chow_class = importlib.import_module("milnorcalc.chow").ChowClass
        original = chow_class.__dict__["__mul__"]
        self._restore.append((chow_class, "__mul__", original))
        chow_class.__mul__ = self._wrap_mul(original, chow_class)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, after a header naming the fields."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self, reports: int) -> dict[str, float]:
        """Per-report layer numbers: times in ms, counts and maxima."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        basis_len_max = 0
        term_pairs = 0
        for _, parent, _, name, start, end, info in self.spans:
            duration = end - start
            key = name
            if name == "groebner.groebner":
                key = f"groebner.groebner[{info['ring']}]"
            elif name == "groebner._buchberger":
                basis_len_max = max(basis_len_max, info.get("basis_len", 0))
            elif name == "chow.ChowClass.__mul__":
                term_pairs += info["term_pairs"]
            total[key] += duration
            calls[key] += 1
            if parent is not None:
                child_time[parent] += duration
        cli_self = sum(
            (span[5] - span[4]) - child_time[span[0]]
            for span in self.spans
            if span[3] == "cli.main"
        )

        def ms(*names: str) -> float:
            return 1000.0 * sum(total[n] for n in names) / reports

        def per_report(count: float) -> float:
            return count / reports

        return {
            "groebner.total_milnor_ms": ms("groebner.total_milnor_number"),
            "groebner.saturate_ms": ms("groebner.saturate"),
            "groebner.quotient_dim_ms": ms("groebner.quotient_dim"),
            "groebner.saturate_calls": per_report(calls["groebner.saturate"]),
            "groebner.ideal_quotient_calls": per_report(calls["groebner.ideal_quotient"]),
            "groebner.ideal_quotient_ms": ms("groebner.ideal_quotient"),
            "groebner.chart_basis_ms": ms("groebner.groebner[homogeneous]"),
            "groebner.affine_basis_ms": ms("groebner.groebner[affine]"),
            "groebner.basis_calls": per_report(calls["groebner._buchberger"]),
            "groebner.basis_len_max": basis_len_max,
            "chow.mul_calls": per_report(calls["chow.ChowClass.__mul__"]),
            "chow.mul_ms": ms("chow.ChowClass.__mul__"),
            "chow.mul_term_pairs": per_report(term_pairs),
            "chow.unit_inverse_ms": ms("chow.unit_inverse"),
            "chow.tangent_class_calls": per_report(calls["chow.tangent_class"]),
            "charclasses.fulton_johnson_calls": per_report(calls["charclasses.fulton_johnson"]),
            "charclasses.resolve_mu_calls": per_report(calls["charclasses.resolve_mu"]),
            "charclasses.checks_ms": ms(*CHECKS),
            "charclasses.build_report_ms": ms("charclasses.build_report"),
            "charclasses.emit_ms": ms("charclasses.report_to_jsonable", "charclasses.canonical_json"),
            "scenefile.load_ms": ms("scenefile.load_scene"),
            "polynomials.parse_ms": ms("polynomials.parse_polynomial"),
            "polynomials.jacobian_ms": ms("polynomials.jacobian_ideal"),
            "scenes.validate_ms": ms("scenes.validate_scene"),
            "cli.self_ms": 1000.0 * cli_self / reports,
            "trace.report_ms": ms("cli.main"),
        }
