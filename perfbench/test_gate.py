"""A wrong report must be counted as failed, not as passed.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_gate.py

Each test serves real requests through ``run.run_list``, once with the
real CLI and once through a CLI whose output is corrupted, and checks
the failure count.
"""

from __future__ import annotations

import json

import pytest

import run
import workloads

CLI = run.load_cli()


class CorruptingCli:
    """Runs the real CLI, then rewrites its stdout or exit code."""

    def __init__(self, edit=None, code=None, raises=False):
        self.edit, self.code, self.raises = edit, code, raises

    def main(self, argv):
        if self.raises:
            raise RuntimeError("boom")
        _, code, stdout = run.serve(CLI, workloads.Request(argv[2], int(argv[4])))
        print(self.edit(stdout) if self.edit else stdout, end="")
        return self.code if self.code is not None else code


def _canonical_edit(change):
    # Edit the parsed report and re-serialize it canonically, so only
    # the expected-answer or check-status tests can catch the change.
    def edit(stdout):
        data = json.loads(stdout)
        change(data)
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    return edit


@pytest.fixture(scope="module")
def corpus_request():
    requests, _ = workloads.corpus_requests(run.ROOT, seed=0, passes=1)
    return next(r for r in requests if r.scene.endswith("nodal-cubic.json") and r.m == 2)


@pytest.fixture(scope="module")
def milnor_request(tmp_path_factory):
    _, warmup = workloads.milnor_requests(tmp_path_factory.mktemp("milnor"), seed=0, passes=0)
    return warmup


@pytest.fixture(scope="module")
def chow_request(tmp_path_factory):
    _, warmup = workloads.chow_requests(tmp_path_factory.mktemp("chow"), seed=0, passes=0)
    return warmup


def _failures(cli, request):
    return run.run_list(cli, [request])[2]


def test_real_reports_pass(corpus_request, milnor_request, chow_request):
    for request in (corpus_request, milnor_request, chow_request):
        assert _failures(CLI, request) == 0


def test_every_flipped_byte_of_a_corpus_report_fails(corpus_request):
    golden = corpus_request.golden
    for position in range(0, len(golden), 7):
        flipped = chr(ord(golden[position]) ^ 1)

        def flip(stdout, position=position, flipped=flipped):
            return stdout[:position] + flipped + stdout[position + 1 :]

        assert _failures(CorruptingCli(edit=flip), corpus_request) == 1, position


def test_wrong_milnor_number_fails(milnor_request):
    def wrong_mu(data):
        data["total_milnor"] = 2

    assert _failures(CorruptingCli(edit=_canonical_edit(wrong_mu)), milnor_request) == 1


def test_wrong_euler_fails(milnor_request, chow_request):
    def wrong_euler(data):
        data["euler"] += 1

    for request in (milnor_request, chow_request):
        assert _failures(CorruptingCli(edit=_canonical_edit(wrong_euler)), request) == 1


def test_failed_identity_check_fails(chow_request):
    def fail_check(data):
        data["checks"]["defect_codim1"]["pass"] = False

    assert _failures(CorruptingCli(edit=_canonical_edit(fail_check)), chow_request) == 1


def test_non_canonical_json_fails(chow_request):
    def compact(stdout):
        return json.dumps(json.loads(stdout), sort_keys=True) + "\n"

    assert _failures(CorruptingCli(edit=compact), chow_request) == 1


def test_exit_code_and_exception_fail(chow_request):
    assert _failures(CorruptingCli(code=1), chow_request) == 1
    assert _failures(CorruptingCli(raises=True), chow_request) == 1


@pytest.mark.parametrize(
    "ambient, degrees, euler",
    [
        ((2,), (3,), 0),  # plane cubic: a torus
        ((3,), (4,), 24),  # quartic surface: K3
        ((1, 1), (1, 1), 2),  # (1,1) curve in P^1 x P^1: a P^1
        ((1, 1), (2, 2), 0),  # (2,2) curve: an elliptic curve
    ],
)
def test_gauss_bonnet_known_values(ambient, degrees, euler):
    assert workloads.gauss_bonnet(ambient, degrees) == euler


@pytest.mark.parametrize("n, d, euler", [(2, 3, 1), (3, 3, 8), (3, 4, 23)])
def test_one_node_euler_known_values(n, d, euler):
    # Nodal plane cubic: a sphere with two points glued; cubic and
    # quartic surfaces lose 1 to the node from 9 and 24.
    assert workloads.milnor_euler(n, d) == euler
