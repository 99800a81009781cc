"""Symmetries of the whole report, run in process through main(argv).

An input changed in a way that the mathematics cannot see gives the
same report: byte for byte when only the file's order and layout
change, and with every class key permuted when the ambient's factors
are.  The relations need no second implementation of any class.
"""

import json
from pathlib import Path

import pytest

from milnorcalc.cli import main

SCENES = Path(__file__).resolve().parent.parent / "scenes"
CORPUS = sorted(path.stem for path in SCENES.glob("*.json"))


def json_report(capsys, path):
    code = main(["--json", "report", str(path), "--m", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


def reordered(node):
    """``node`` with the keys of every object, ``strata`` and each
    ``parents`` list in reverse order."""
    if isinstance(node, list):
        return [reordered(value) for value in node]
    if not isinstance(node, dict):
        return node
    items = {key: reordered(value) for key, value in node.items()}
    for key in ("strata", "parents"):
        if key in items:
            items[key].reverse()
    return dict(reversed(items.items()))


@pytest.mark.parametrize("name", CORPUS)
def test_reordering_and_reindenting_a_scene_file_changes_no_byte(name, tmp_path, capsys):
    original = SCENES / f"{name}.json"
    data = json.loads(original.read_text(encoding="utf-8"))
    moved = tmp_path / f"{name}.json"
    moved.write_text(json.dumps(reordered(data), indent="\t", separators=(" ,", " :  ")), encoding="utf-8")
    assert json_report(capsys, moved) == json_report(capsys, original)


def test_swapping_the_factors_swaps_every_class_key(tmp_path, capsys):
    reports = []
    for ambient, degree in (([1, 2], [2, 3]), ([2, 1], [3, 2])):
        path = tmp_path / f"P{ambient[0]}xP{ambient[1]}.json"
        path.write_text(json.dumps({"ambient": ambient, "degrees": [degree], "smooth": True}), encoding="utf-8")
        reports.append(json.loads(json_report(capsys, path)))
    first, second = reports

    def swapped(classes):
        return {",".join(reversed(key.split(","))): value for key, value in classes.items()}

    classes = {field: swapped(first[field]) for field in ("fulton_johnson", "milnor_class", "csm")}
    assert second == {**first, "ambient": [2, 1], "degrees": [[3, 2]], **classes}
    assert second["euler"] == 24
