"""Oracle gates for the benchmark's artifacts.

Every gate returns a list of failure messages; an empty list means the
artifact passed.  No gate depends on the seed: each compares an artifact
with a closed form, a statistical bound, or an independent route through
the program (the explicit-collapse ``run_trial`` path).
"""

from __future__ import annotations

import hashlib
import json
import math
import re

from toolate.protocol import Trine, degrees_of, exit_labels, run_trial
from toolate.rng import TrialRng, trial_seed

SIGMAS = 5.0
EXACT_TOL = 1e-9

_VALUE_ROW = re.compile(r"P\(vA=(up|down),vB=(up|down)\)$")
_COND_ROW = re.compile(r"P\(oA=([^,]+),oB=([^|]+)\|vA=(up|down),vB=(up|down)\)$")
_MARGINAL_ROW = re.compile(r"P\(o[AB]=([^)]+)\)$")
_CORR_ROW = re.compile(r"E\(([^,]+),([^)]+)\)$")


def check_exit(command: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{command}: exit code {code}"]


def parse_csv(text: str) -> tuple[dict, list[tuple]]:
    """Meta dict and rows (label, exact, estimate, stderr, n) of an estimate table."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# meta: "):
        raise ValueError("missing meta line")
    if lines[1] != "label,exact,estimate,stderr,n":
        raise ValueError("missing header line")
    meta = json.loads(lines[0][len("# meta: "):])

    def num(cell):
        return None if cell == "" else float(cell)

    rows = []
    for line in lines[2:]:
        label, exact, estimate, stderr, n = line.rsplit(",", 4)
        rows.append((label, num(exact), num(estimate), num(stderr), int(n)))
    return meta, rows


def toolate_closed_form(label: str) -> float:
    """Exact value of a value-first table row, from the protocol's closed forms."""
    m = _VALUE_ROW.match(label)
    if m:
        return 0.25
    m = _COND_ROW.match(label)
    if m:
        same_orientation = m.group(1) == m.group(2)
        if m.group(3) == m.group(4):
            return 0.0 if same_orientation else 1.0 / 6.0
        return 2.0 / 9.0 if same_orientation else 1.0 / 18.0
    if _MARGINAL_ROW.match(label):
        return 1.0 / 3.0
    raise ValueError(f"unknown row label {label!r}")


def epr_closed_forms(angles_deg) -> dict[str, float]:
    """Singlet correlations -cos(a - b) and CHSH S at the four settings."""
    a, a2, b, b2 = angles_deg

    def corr(x, y):
        return -math.cos(math.radians(x - y))

    s = corr(a, b) - corr(a, b2) + corr(a2, b) + corr(a2, b2)
    return {
        f"E({a:g},{b:g})": corr(a, b),
        f"E({a:g},{b2:g})": corr(a, b2),
        f"E({a2:g},{b:g})": corr(a2, b),
        f"E({a2:g},{b2:g})": corr(a2, b2),
        "chsh_S": s,
        "chsh_abs_S": abs(s),
    }


def _check_estimates(name: str, rows, trials: int) -> list[str]:
    """Every estimate within SIGMAS stderr of its exact value; exact zeros sampled as zero."""
    failures = []
    for label, exact, estimate, stderr, n in rows:
        if trials == 0:
            if estimate is not None or n != 0:
                failures.append(f"{name}: {label} has an estimate at trials 0")
            continue
        if estimate is None or stderr is None:
            failures.append(f"{name}: {label} has no estimate")
        elif exact == 0.0:
            if estimate != 0.0:
                failures.append(f"{name}: {label} is exactly 0 but estimated {estimate!r}")
        elif not abs(estimate - exact) <= SIGMAS * stderr:
            failures.append(
                f"{name}: {label} estimate {estimate!r} is more than "
                f"{SIGMAS:g} stderr ({stderr!r}) from {exact!r}"
            )
    return failures


def check_toolate_csv(text: str, trials: int) -> list[str]:
    """Value-first estimate table: 46 rows, closed-form exact column, estimates in bounds."""
    try:
        _, rows = parse_csv(text)
    except ValueError as exc:
        return [f"toolate csv: {exc}"]
    failures = []
    if len(rows) != 46:
        failures.append(f"toolate csv: {len(rows)} rows, expected 46")
    for label, exact, *_ in rows:
        try:
            expected = toolate_closed_form(label)
        except ValueError as exc:
            failures.append(f"toolate csv: {exc}")
            continue
        if exact is None or abs(exact - expected) > EXACT_TOL:
            failures.append(f"toolate csv: {label} exact {exact!r}, closed form {expected!r}")
    return failures + _check_estimates("toolate csv", rows, trials)


def check_epr_csv(text: str, trials: int) -> list[str]:
    """Standard Bell table: -cos correlations and CHSH S, estimates in bounds."""
    try:
        meta, rows = parse_csv(text)
        expected = epr_closed_forms(meta["config"]["angles"])
    except (ValueError, KeyError) as exc:
        return [f"epr csv: {exc}"]
    failures = []
    if [r[0] for r in rows] != list(expected):
        failures.append(f"epr csv: rows {[r[0] for r in rows]}, expected {list(expected)}")
    for label, exact, *_ in rows:
        want = expected.get(label)
        if want is None or exact is None or abs(exact - want) > EXACT_TOL:
            failures.append(f"epr csv: {label} exact {exact!r}, closed form {want!r}")
    return failures + _check_estimates("epr csv", rows, trials)


def check_verify_json(text: str) -> list[str]:
    try:
        ok = json.loads(text).get("ok")
    except (ValueError, AttributeError) as exc:
        return [f"verify: report is not a JSON object ({exc})"]
    return [] if ok is True else [f"verify: ok is {ok!r}"]


def check_json(name: str, text: str) -> list[str]:
    try:
        json.loads(text)
    except ValueError as exc:
        return [f"{name}: report is not JSON ({exc})"]
    return []


def strided_indices(trials: int, count: int = 48) -> list[int]:
    """Trial ids spread over the whole stream, always including the first and last."""
    if trials <= 0:
        return []
    step = max(1, trials // count)
    return sorted(set(range(0, trials, step)) | {trials - 1})


def record_from_collapse(trine: Trine, master_seed: int, trial: int) -> dict:
    """The JSONL record the explicit-collapse route gives for one trial."""
    rec = run_trial(trine, TrialRng.for_trial(master_seed, trial), trial)
    return {
        "trial": trial,
        "seed": rec.seed,
        "value_A": rec.value_a.label,
        "value_B": rec.value_b.label,
        "orient_A": degrees_of(rec.exit_a.theta),
        "orient_B": degrees_of(rec.exit_b.theta),
    }


def check_records_file(path, trials: int, master_seed: int, trine: Trine):
    """Stream the JSONL outcome file once.

    Returns (failures, sha256 hex, size in bytes).  The file must hold a
    meta line plus one line per trial, and a strided subset of records
    must equal the explicit-collapse route for the same trial and seed.
    """
    wanted = set(strided_indices(trials))
    picked = {}
    digest = hashlib.sha256()
    size = 0
    lines = 0
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            size += len(line)
            if lines - 1 in wanted:
                picked[lines - 1] = line
            lines += 1
    failures = []
    if lines != trials + 1:
        failures.append(f"records: {lines} lines, expected {trials + 1}")
    for i in sorted(wanted):
        if i not in picked:
            continue
        try:
            got = json.loads(picked[i])
        except ValueError:
            failures.append(f"records: line for trial {i} is not JSON")
            continue
        want = record_from_collapse(trine, master_seed, i)
        if got != want:
            failures.append(f"records: trial {i} is {got}, collapse route gives {want}")
    return failures, digest.hexdigest(), size


def check_collapse_rows(trine: Trine, master_seed: int, records, outcomes) -> list[str]:
    """run_trial records against the batch sampler's (value_A, value_B, exit_A, exit_B) rows."""
    labels = exit_labels(trine)
    failures = []
    if len(records) != len(outcomes):
        return [f"collapse: {len(records)} records against {len(outcomes)} sampler rows"]
    for rec, row in zip(records, outcomes):
        got = (
            int(rec.value_a), int(rec.value_b),
            labels.index(rec.exit_a), labels.index(rec.exit_b),
        )
        want = tuple(int(x) for x in row)
        if got != want or rec.seed != trial_seed(master_seed, rec.trial):
            failures.append(f"collapse: trial {rec.trial} gives {got}, sampler gives {want}")
    return failures


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
