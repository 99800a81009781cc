"""Shared fixtures: the scenes in ``scenes/`` and their (cached) class reports.

The report fixtures are session-scoped, so that every test that needs
a scene's report reuses one computation.
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
    """Each scene's report at m = 1."""
    return {name: build_report(scene, mu) for name, (scene, mu) in corpus_scenes.items()}


@pytest.fixture(scope="session")
def corpus_reports_m2(corpus_scenes):
    """Each scene's report at m = 2, whose product checks are on X x P^2."""
    return {name: build_report(scene, mu, m=2) for name, (scene, mu) in corpus_scenes.items()}


@pytest.fixture(scope="session")
def nodal_report(corpus_reports):
    return corpus_reports["nodal-cubic"]


@pytest.fixture(scope="session")
def cuspidal_report(corpus_reports):
    return corpus_reports["cuspidal-cubic"]
