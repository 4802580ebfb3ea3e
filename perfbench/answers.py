"""Reference answers and the checks that compare a report's maths with them.

The checks read mathematical content (per-cell harmonic decompositions, the
computed-versus-predicted verdicts, the exact-suite flags, which identities
passed or were skipped and their errors), not bytes, so a change of report
schema that keeps the maths does not break the benchmark.  Each check returns
a list of problems; an empty list means the output is correct.

``answers.json`` holds, per ``compute`` configuration, the nonzero harmonic
cells as ``"p,k": [[lowest weight, dim, multiplicity], ...]`` (every other
cell must be zero), and per identity window the sets of passed and skipped
identities.  Regenerate it with ``python3 perfbench/answers.py`` only after
checking the new maths independently.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List

ANSWERS_FILE = Path(__file__).with_name("answers.json")

_TEXT_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+.*?\s(true|false)\s*$")


def load() -> dict:
    return json.loads(ANSWERS_FILE.read_text())


def decompositions(report: dict) -> Dict[str, list]:
    """Nonzero harmonic cells of a JSON compute report, in answers.json form."""
    out = {}
    for cell in report["cells"]:
        summands = sorted([list(s["lowestWeight"]), s["dim"], s["multiplicity"]] for s in cell["harmonic"])
        if summands:
            out[f"{cell['p']},{cell['k']}"] = summands
    return out


def _harmonic_dims(ref: dict) -> Dict[str, int]:
    return {cell: sum(dim * mult for _lw, dim, mult in summands) for cell, summands in ref["harmonic"].items()}


def _cells(ref: dict) -> List[str]:
    return [f"{p},{k}" for p in range(ref["degree"] + 1) for k in range(ref["energy"] + 1)]


def check_compute(ref: dict, fmt: str, text: str) -> List[str]:
    """Problems in one ``compute`` report of format ``fmt`` against ``ref``."""
    try:
        if fmt == "json":
            return _check_compute_json(ref, json.loads(text))
        return _check_compute_rows(ref, fmt, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {fmt} report: {exc!r}"]


def _check_compute_json(ref: dict, report: dict) -> List[str]:
    problems = []
    cells = {f"{c['p']},{c['k']}" for c in report["cells"]}
    if cells != set(_cells(ref)):
        problems.append(f"cells {sorted(cells)} differ from the configured range")
    got = decompositions(report)
    for cell in sorted(set(got) | set(ref["harmonic"])):
        if got.get(cell) != ref["harmonic"].get(cell):
            problems.append(f"cell {cell}: harmonic {got.get(cell)} != reference {ref['harmonic'].get(cell)}")
    if not all(report["matchVerdict"].values()):
        problems.append(f"computed and predicted cohomology disagree: {report['matchVerdict']}")
    for name, verdict in report["exact_suite"].items():
        if not (verdict if isinstance(verdict, bool) else verdict["pass"]):
            problems.append(f"exact check {name} failed")
    return problems


def _check_compute_rows(ref: dict, fmt: str, text: str) -> List[str]:
    """csv and text reports: per-cell harmonic dimension and match verdict."""
    rows = {}
    if fmt == "csv":
        lines = text.splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            rows[f"{row['p']},{row['k']}"] = (int(row["harmonic_dim"]), row["match"])
    else:
        for line in text.splitlines():
            m = _TEXT_ROW.match(line)
            if m:
                rows[f"{m.group(1)},{m.group(2)}"] = (int(m.group(5)), m.group(6))
    problems = []
    if set(rows) != set(_cells(ref)):
        problems.append(f"{fmt} cells {sorted(rows)} differ from the configured range")
    dims = _harmonic_dims(ref)
    for cell, (h_dim, match) in sorted(rows.items()):
        if h_dim != dims.get(cell, 0):
            problems.append(f"{fmt} cell {cell}: harmonic dim {h_dim} != reference {dims.get(cell, 0)}")
        if match != "true":
            problems.append(f"{fmt} cell {cell}: match verdict {match}")
    if fmt == "text" and "FAIL" in text:
        problems.append("text report lists a failed exact check")
    return problems


def check_identities(ref: dict, text: str) -> List[str]:
    """Problems in one JSON ``verify-identities`` report against ``ref``."""
    try:
        verdicts = json.loads(text)["identity_suite"]
        passed = sorted(v["identity"] for v in verdicts if v["pass"] and not v["skipped"])
        skipped = sorted(v["identity"] for v in verdicts if v["skipped"])
        problems = []
        if passed != ref["passed"]:
            problems.append(f"passed identities {passed} != reference {ref['passed']}")
        if skipped != ref["skipped"]:
            problems.append(f"skipped identities {skipped} != reference {ref['skipped']}")
        for v in verdicts:
            if not v["skipped"] and not (v["maxAbsError"] is not None and v["maxAbsError"] <= ref["tolerance"]):
                problems.append(f"{v['identity']}: maxAbsError {v['maxAbsError']} above {ref['tolerance']}")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable identity report: {exc!r}"]


def _regenerate() -> None:
    """Print answers.json computed by the program in ``src`` (to be checked by hand)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from jetcohom.report import RunConfig, cmd_compute, cmd_verify_identities

    import workloads

    out: dict = {"compute": {}, "identities": {}}
    for c in workloads.COMPUTE_CONFIGS:
        report = cmd_compute(RunConfig(series=c.series, rank=c.rank, maxDegree=c.degree, maxEnergy=c.energy))
        out["compute"][c.label] = {"degree": c.degree, "energy": c.energy, "harmonic": decompositions(report)}
    for w in workloads.IDENTITY_WINDOWS:
        report = cmd_verify_identities(RunConfig(series=w.series, rank=w.rank, kMin=w.kmin, kMax=w.kmax,
                                                 guard=w.guard, tolerance=w.tolerance))
        verdicts = report["identity_suite"]
        out["identities"][w.label] = {
            "tolerance": w.tolerance,
            "passed": sorted(v["identity"] for v in verdicts if v["pass"] and not v["skipped"]),
            "skipped": sorted(v["identity"] for v in verdicts if v["skipped"]),
        }
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    _regenerate()
