"""The benchmark's trace points exist in the package.

``perfbench/tracer.py`` wraps named functions of ``milnorcalc`` from
outside.  A traced name that the package no longer has would otherwise
fail only during a traced benchmark run; installing the tracer here
makes it fail in the test suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from milnorcalc import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    # Load by file path, and write no bytecode next to the benchmark.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracer_module = load_tracer(monkeypatch)
    modules = {name: importlib.import_module(f"milnorcalc.{name}") for name, _ in tracer_module.TRACED}
    originals = {(name, attr): getattr(modules[name], attr) for name, attr in tracer_module.TRACED}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main(["--quiet", "report", str(ROOT / "scenes" / "nodal-cubic.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[3] for span in tracer.spans}
    assert {"cli.main", "charclasses.build_report", "groebner.total_milnor_number"} <= names
    assert tracer.layer_metrics(reports=1)["trace.report_ms"] > 0
    for (name, attr), original in originals.items():
        assert getattr(modules[name], attr) is original, f"{name}.{attr} was not restored"
