#!/usr/bin/env python3
"""Write ``perfbench/goldens/corpus.json``: the stdout of every corpus report.

Run from the root of a checkout, at the commit whose output is the
reference:

    python3 perfbench/capture_goldens.py

Keys are ``"<scene file> --m <m>"``; values are the exact stdout of
``milnorcalc --json report scenes/<scene file> --m <m>``.
"""

import json
import sys

import workloads
from run import ROOT, load_cli, serve


def main() -> int:
    cli = load_cli()
    goldens = {}
    for path, m, key in workloads.corpus_keys(ROOT):
        _, code, stdout = serve(cli, workloads.Request(str(path), m))
        if code != 0:
            sys.exit(f"error: {key} exited with {code}")
        goldens[key] = stdout
    target = ROOT / "perfbench" / "goldens" / "corpus.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} reports to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
