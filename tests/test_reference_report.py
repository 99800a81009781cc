"""Item 19's class half on the corpus: the classes of ``report --json``
against ``reference.reference_report``, which forms them with sympy and
no ``milnorcalc`` code from each scene file's JSON data.

The comparison is only worth something if it fails on a wrong report,
so each mutant below breaks one step of the report path and the corpus
must show it.
"""

import json
import pathlib

import pytest

from milnorcalc import charclasses
from milnorcalc.chow import ChowClass
from milnorcalc.cli import main
from milnorcalc.scenes import ConstructibleFunction

SCENES = sorted((pathlib.Path(__file__).resolve().parent.parent / "scenes").glob("*.json"))
KEYS = ("fulton_johnson", "milnor_class", "csm", "localization", "euler")


@pytest.fixture(scope="module")
def references():
    import reference

    return {path.name: reference.reference_report(json.loads(path.read_text(encoding="utf-8"))) for path in SCENES}


def mismatches(capsys, references):
    """(scene, key) for each class of ``report --json --m 1`` that differs from the reference."""
    found = []
    for path in SCENES:
        assert main(["--json", "report", str(path), "--m", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        found += [(path.name, key) for key in KEYS if report[key] != references[path.name][key]]
    return found


def test_the_corpus_has_nine_scenes():
    assert len(SCENES) == 9


def test_every_class_matches_the_reference(capsys, references):
    assert mismatches(capsys, references) == []


@pytest.mark.parametrize(
    "ambient, degree, polynomial, chart",
    [(1, 2, "x^2", "y"), (2, 3, "y^2*z - x^3 - x^2*z", "z"), (3, 2, "x^2 + y^2 + z^2", "w")],
)
def test_default_strata_match_the_reference(tmp_path, capsys, ambient, degree, polynomial, chart):
    import reference

    data = {"ambient": [ambient], "degrees": [[degree]], "polynomial": polynomial, "chart": chart}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["--json", "report", str(path), "--m", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {key: report[key] for key in KEYS} == reference.reference_report(data)


def flipped_mu(resolve_mu):
    def mutant(*args, **kwargs):
        scene, mu, data = resolve_mu(*args, **kwargs)
        return scene, ConstructibleFunction(scene, {i: -v for i, v in mu.values.items()}), data

    return mutant


def raised_closure(closure_csm):
    def mutant(scene, stratum):
        x = closure_csm(scene, stratum)
        if stratum.id != "node":
            return x
        return x + ChowClass(scene.ambient, {(2,) + (0,) * (len(scene.ambient.factors) - 1): 1})

    return mutant


def shifted_point(fulton_johnson):
    def mutant(ambient, multidegrees):
        return fulton_johnson(ambient, multidegrees) + ChowClass.point(ambient)

    return mutant


# Each mutant: the name in ``charclasses`` it wraps, the wrapper, and the
# scenes whose classes it moves.
MUTANTS = {
    # mu's sign flipped, on every scene with vanishing cycles.
    "flipped-mu-sign": (
        "resolve_mu",
        flipped_mu,
        {"cuspidal-cubic.json", "four-nodal-quartic.json", "nodal-cubic.json",
         "one-nodal-quartic-surface.json", "reducible-quadric-surface.json"},
    ),
    # +H^2 on the closure class of the strata named "node".
    "closure-class-plus-H2": ("_closure_csm", raised_closure, {"nodal-cubic.json", "one-nodal-quartic-surface.json"}),
    # The point coefficient of every Fulton-Johnson class off by one.
    "fj-coefficient-off-by-one": ("fulton_johnson", shifted_point, {path.name for path in SCENES}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_is_caught(capsys, references, monkeypatch, name):
    attribute, mutate, hit = MUTANTS[name]
    monkeypatch.setattr(charclasses, attribute, mutate(getattr(charclasses, attribute)))
    assert {scene for scene, _ in mismatches(capsys, references)} == hit
