"""Correctness gate: compare each query's output with the stored reference.

Every checker returns ``None`` when the output is correct and otherwise a
short failure reason, so failures can be counted by reason.  Tolerances
are those of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REL_TOL = 1e-6          # criterion 4: |asymptotic/exact - 1|
IMAG_TOL = 1e-8         # criterion 8: Im/Re of the approximation
TRANSFORM_TOL = 1e-9    # criterion 3: arc transformation discrepancy
AMPLITUDE_TOL = 1e-9    # analysis.VANISH_RATIO, relative to the largest amplitude
LEVEL_TOL = 1e-12       # dominant level values, printed with 15 digits

# process-level reasons, set by the runner rather than by a checker
EXIT_CODE = "exit_code"
EXCEPTION = "exception"
TIMEOUT = "timeout"
BAD_OUTPUT = "bad_output"


def coeff_digest(coeffs) -> str:
    return hashlib.sha256("\n".join(map(str, coeffs)).encode()).hexdigest()


def tree_digest(root: str) -> str:
    """SHA-256 over the package sources, to identify the code measured."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_value(exact: int, sign: int, log_abs: float,
                imag_over_real: float | None = None) -> str | None:
    """One approximate g(n) against the exact coefficient.

    Where g(n) = 0 exactly, any nonzero sign is a failure: the value is
    below the approximation's own error and has no sign.
    """
    if exact == 0:
        return None if sign == 0 else "zero_sign"
    if sign != (1 if exact > 0 else -1):
        return "sign_flip"
    rel = math.exp(log_abs - math.log(abs(exact))) - 1.0
    if not abs(rel) < REL_TOL:
        return "tolerance"
    if imag_over_real is not None and not imag_over_real < IMAG_TOL:
        return "imag_noise"
    return None


def check_expand(digest: str, expected: str) -> str | None:
    return None if digest == expected else "digest_mismatch"


def check_asym(text: str, exact: int, K: int) -> str | None:
    try:
        doc = json.loads(text)
        sign, K_out = int(doc["sign"]), int(doc["K"])
        log_abs, ratio = float(doc["log_abs"]), float(doc["imag_over_real"])
    except (ValueError, KeyError, TypeError):
        return BAD_OUTPUT
    if K_out != K:
        return "field_mismatch"
    return check_value(exact, sign, log_abs, ratio)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_analyze(text: str, ref: dict) -> str | None:
    try:
        doc = json.loads(text)
        levels = [(float(lv["value"]), lv["members"]) for lv in doc["levels"]]
        amps = [float(a) for a in doc["amplitudes"]]
        exact = (doc["modulus"], doc["signs"], doc["level_index"], doc["inconclusive"])
    except (ValueError, KeyError, TypeError):
        return BAD_OUTPUT
    if exact != (ref["modulus"], ref["signs"], ref["level_index"], ref["inconclusive"]):
        return "field_mismatch"
    ref_levels = [(float(lv["value"]), lv["members"]) for lv in ref["levels"]]
    if [m for _, m in levels] != [m for _, m in ref_levels]:
        return "field_mismatch"
    if not all(_close(v, rv, LEVEL_TOL * rv) for (v, _), (rv, _) in zip(levels, ref_levels)):
        return "tolerance"
    ref_amps = [float(a) for a in ref["amplitudes"]]
    scale = max(abs(a) for a in ref_amps)
    if len(amps) != len(ref_amps) or not all(
            _close(a, ra, AMPLITUDE_TOL * scale) for a, ra in zip(amps, ref_amps)):
        return "tolerance"
    return None


def check_transform(text: str, ref: dict) -> str | None:
    try:
        doc = json.loads(text)
        samples, worst = int(doc["samples"]), float(doc["max_discrepancy"])
    except (ValueError, KeyError, TypeError):
        return BAD_OUTPUT
    if samples != ref["samples"]:
        return "field_mismatch"
    return None if worst < TRANSFORM_TOL else "tolerance"


def check_compare(text: str, ref: list) -> str | None:
    try:
        rows = json.loads(text)
        got = [(int(r["n"]), int(r["exact"]), r["log_abs_exact"], float(r["log_abs_asym"]),
                float(r["rel_error"])) for r in rows]
    except (ValueError, KeyError, TypeError):
        return BAD_OUTPUT
    if [(n, e) for n, e, *_ in got] != [(int(r["n"]), int(r["exact"])) for r in ref]:
        return "field_mismatch"
    for (_, _, log_exact, _, rel), r in zip(got, ref):
        if (log_exact is None) != (r["log_abs_exact"] is None):
            return "field_mismatch"
        if log_exact is not None and not _close(float(log_exact),
                                                float(r["log_abs_exact"]), 1e-12):
            return "tolerance"
        if not abs(rel) < REL_TOL:
            return "tolerance"
    return None

