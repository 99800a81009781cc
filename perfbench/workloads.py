"""Seeded request lists for the benchmark's three workloads.

A request is one ``milnorcalc --json report <scene> --m <m>`` call
together with what its report must say.  The seed is the only input
of a generator; the program sees nothing but the scene files written
here.  The work in a run is a fixed number of passes over a fixed mix,
never a time budget, so a slow request cannot change how many requests
are timed.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from itertools import product
from math import comb, factorial, prod
from pathlib import Path
from typing import Optional, Sequence

M_VALUES = (1, 2, 3)

# Passes over the mix in a --seconds 30 run; other values scale the
# count.  They are constants, so a run's work does not depend on how
# fast the machine happens to be.  On a 2-vCPU x86-64 VM at the commit
# that introduced the benchmark a pass took about 7.7 s (corpus),
# 9 s (milnor) and 4.3 s (chow).  The corpus needs at least 4 passes
# for the tail to be a one-nodal-quartic-surface report; with 5 it is
# the 5th-fastest of 15 rather than the 2nd of 12.
PASSES_PER_30_S = {"corpus": 5, "milnor": 3, "chow": 7}

# milnor: (n, d) -> reports per pass.  The P^3 cubics are cheap
# (about 0.3 s) and the other two classes cost about 2.3 s and 2.8 s.
# With six expensive reports in a 30 s run both the median and the
# tail percentile (10 samples beyond) fall inside the cheap class,
# away from the jump to the expensive ones.
MILNOR_MIX = {(3, 3): 16, (3, 4): 1, (4, 3): 1}

# chow: (ambient, m) -> reports per pass.  Report costs run from
# about 0.05 s on (6,6) to 0.55 s on (4,4,4) with m = 3, with gaps
# below and above (4,4,4) with m = 2.  The m = 3 report on (4,4,4) is
# tripled so that the tail percentile lands in the middle of its
# block; with two copies it sometimes fell on an m = 2 report.  The
# median lands in the dense 0.1-0.25 s range.
CHOW_MIX = {
    (ambient, m): 1
    for ambient in ((6, 6), (3, 3, 3), (2, 2, 2, 2), (4, 4, 4))
    for m in M_VALUES
}
CHOW_MIX[(4, 4, 4), 3] = 3


@dataclass(frozen=True)
class Request:
    """One report call and the answer its output must carry.

    ``golden`` is the exact expected stdout; ``euler`` and
    ``total_milnor`` are expected field values.  Unset fields are not
    checked.
    """

    scene: str
    m: int
    golden: Optional[str] = None
    euler: Optional[int] = None
    total_milnor: Optional[int] = None

    def argv(self) -> list[str]:
        return ["--json", "report", self.scene, "--m", str(self.m)]


def milnor_euler(n: int, d: int) -> int:
    """Euler characteristic of a degree-d hypersurface in P^n with one node.

    The smooth value ((1-d)^(n+1) - 1)/d + n + 1, corrected by the
    node's Milnor number 1 with the sign (-1)^n.
    """
    return ((1 - d) ** (n + 1) - 1) // d + n + 1 + (-1) ** n


def gauss_bonnet(ambient: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    """Euler characteristic of a smooth hypersurface in a product of P^n's.

    The coefficient of prod h_i^(n_i) in prod (1+h_i)^(n_i+1) D/(1+D),
    with D = sum d_i h_i.  Expanding D/(1+D) = sum_k (-1)^(k-1) D^k and
    D^k by the multinomial theorem, a term h^e of D^k pairs with the
    coefficient C(n_i+1, n_i-e_i) of h^(n-e) in the tangent class.
    """
    total = 0
    for e in product(*(range(n + 1) for n in ambient)):
        k = sum(e)
        if k == 0:
            continue
        multinomial = factorial(k) // prod(factorial(x) for x in e)
        term = multinomial * prod(d**x for d, x in zip(degrees, e))
        term *= prod(comb(n + 1, n - x) for n, x in zip(ambient, e))
        total += term if k % 2 else -term
    return total


def _variables(n: int) -> list[str]:
    # The scene-file defaults: x, y, z, w up to P^3, x0..xn beyond.
    return ["x", "y", "z", "w"][: n + 1] if n <= 3 else [f"x{i}" for i in range(n + 1)]


def one_node_polynomial(n: int, d: int, a: Sequence[int], b: Sequence[int]) -> str:
    """F = w^(d-2) sum a_i x_i^2 + sum b_i x_i^d, w the last variable.

    Its only singular point is the node at w = 1, x = 0 when every
    a_i, b_i is positive and d <= 4; for d >= 5 further critical
    points can land on the hypersurface.
    """
    *xs, w = _variables(n)
    chart = w if d == 3 else f"{w}^{d - 2}"
    terms = [f"{ai}*{chart}*{x}^2 + {bi}*{x}^{d}" for x, ai, bi in zip(xs, a, b)]
    return " + ".join(terms)


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return str(path)


def corpus_keys(root: Path) -> list[tuple[Path, int, str]]:
    """(scene path, m, golden key) of every corpus report, in a fixed order."""
    scenes = sorted((root / "scenes").glob("*.json"))
    if len(scenes) != 9:
        raise FileNotFoundError(f"expected the nine corpus scenes under {root / 'scenes'}")
    return [(path, m, f"{path.name} --m {m}") for path in scenes for m in M_VALUES]


def corpus_requests(root: Path, seed: int, passes: int) -> tuple[list[Request], Request]:
    goldens = json.loads((Path(__file__).parent / "goldens" / "corpus.json").read_text())
    one_pass = [Request(str(path), m, golden=goldens[key]) for path, m, key in corpus_keys(root)]
    rng = random.Random(seed)
    requests = []
    for _ in range(passes):
        order = list(one_pass)
        rng.shuffle(order)
        requests.extend(order)
    return requests, one_pass[0]


def milnor_requests(outdir: Path, seed: int, passes: int) -> tuple[list[Request], Request]:
    rng = random.Random(seed)
    seen = set()
    # Each class cycles through the m values, so the mix does not
    # depend on the seed.
    kinds = [
        (nd, M_VALUES[i % len(M_VALUES)])
        for nd, count in MILNOR_MIX.items()
        for i in range(count * passes)
    ]
    rng.shuffle(kinds)
    requests = []
    # The last scene is the warm-up: a cheap class, never timed.
    for index, ((n, d), m) in enumerate(kinds + [((3, 3), 1)]):
        while True:
            a = tuple(rng.randint(1, 9) for _ in range(n))
            b = tuple(rng.randint(1, 9) for _ in range(n))
            if (n, d, a, b) not in seen:
                break
        seen.add((n, d, a, b))
        label = f"{index:04d}-one-node-P{n}-d{d}"
        scene = {
            "name": label,
            "ambient": [n],
            "degrees": [[d]],
            "polynomial": one_node_polynomial(n, d, a, b),
            "chart": _variables(n)[-1],
        }
        path = _write(outdir / f"{label}.json", scene)
        requests.append(Request(path, m, euler=milnor_euler(n, d), total_milnor=1))
    return requests[:-1], requests[-1]


def chow_requests(outdir: Path, seed: int, passes: int) -> tuple[list[Request], Request]:
    rng = random.Random(seed)
    kinds = [key for key, count in CHOW_MIX.items() for _ in range(count * passes)]
    rng.shuffle(kinds)
    requests = []
    # The last scene is the warm-up: a cheap class, never timed.
    for index, (ambient, m) in enumerate(kinds + [((6, 6), 1)]):
        degrees = tuple(rng.randint(1, 4) for _ in ambient)
        label = f"{index:04d}-smooth-" + "x".join(f"P{n}" for n in ambient)
        scene = {
            "name": label,
            "ambient": list(ambient),
            "degrees": [list(degrees)],
            "smooth": True,
        }
        path = _write(outdir / f"{label}.json", scene)
        requests.append(Request(path, m, euler=gauss_bonnet(ambient, degrees)))
    return requests[:-1], requests[-1]


WORKLOADS = ("corpus", "milnor", "chow")


def build(
    workload: str, root: Path, outdir: Path, seed: int, seconds: float
) -> tuple[list[Request], Request]:
    """Return the timed request list and a warm-up request for one run."""
    passes = max(1, round(PASSES_PER_30_S[workload] * seconds / 30))
    if workload == "corpus":
        return corpus_requests(root, seed, passes)
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    if workload == "milnor":
        return milnor_requests(outdir, seed, passes)
    return chow_requests(outdir, seed, passes)
