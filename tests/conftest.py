"""Shared fixtures: the scenes in ``scenes/`` and their (cached) class reports.

The report fixtures are session-scoped because the quartic surface
scene runs a four-variable Groebner saturation that takes about a
second; every test that needs it should reuse one computation.
"""

from pathlib import Path

import pytest

from milnorcalc import build_report, load_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


@pytest.fixture(scope="session")
def corpus_scenes():
    return {path.stem: load_scene(str(path)) for path in sorted(SCENES.glob("*.json"))}


@pytest.fixture(scope="session")
def corpus_reports(corpus_scenes):
    reports = {}
    for name, (scene, mu) in corpus_scenes.items():
        reports[name] = build_report(scene, mu, m_values=(1, 2))
    return reports


@pytest.fixture(scope="session")
def nodal_report(corpus_reports):
    return corpus_reports["nodal-cubic"]


@pytest.fixture(scope="session")
def cuspidal_report(corpus_reports):
    return corpus_reports["cuspidal-cubic"]
