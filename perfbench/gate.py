"""Correctness gate applied to every report the benchmark times.

A report counts as failed unless the call returned exit code 0, its
stdout is canonical JSON (reloading and re-serializing it gives the
same bytes), every identity check in it passed, and it carries the
answer the request expects: the golden bytes for a corpus scene, or
the independently derived ``total_milnor`` and ``euler`` values.
"""

from __future__ import annotations

import json
from typing import Optional

from workloads import Request

def failure(request: Request, code: Optional[int], stdout: str) -> Optional[str]:
    """Return why a report fails the gate, or None when it passes.

    ``code`` is None when the call raised instead of returning.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if json.dumps(data, sort_keys=True, indent=2) + "\n" != stdout:
        return "stdout does not re-serialize byte for byte"
    checks = data.get("checks") if isinstance(data, dict) else None
    if not isinstance(checks, dict):
        return "stdout has no checks object"
    failed_checks = sorted(
        name
        for name, check in checks.items()
        if not (isinstance(check, dict) and check.get("pass") is True)
    )
    if failed_checks:
        return "failed checks: " + ", ".join(failed_checks)
    if request.golden is not None and stdout != request.golden:
        return "stdout differs from the golden report"
    for key in ("total_milnor", "euler"):
        expected = getattr(request, key)
        if expected is not None and data.get(key) != expected:
            return f"{key} is {data.get(key)!r}, expected {expected}"
    return None
