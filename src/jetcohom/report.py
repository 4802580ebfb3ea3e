"""Report assembly: compute cells, cross-check predictions, serialize.

Reports are deterministic: for a fixed configuration and code version the
bytes are identical run to run (timings are only included when explicitly
requested: a compute report holds ``"timing": null`` without
``--timing``, and the predict and verify-identities reports gain the key
only with it; text shows it as a last ``timing: <seconds> s`` line, and
csv has no place for it).  Exact numbers are serialized as rational strings
("p/q" or an integer string); the fock identity suite reports each
``maxAbsError`` as the decimal float of an exact rational, 0.0 on every
pass.  ``RunConfig.tolerance`` is validated and echoed in the config but
not read: the identity suite is exact.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, get_args, get_type_hints

from . import cache as cache_mod
from .cache import EXACT_CHECKS, SCHEMA_VERSION
from .affine import predict_cohomology
from .cochain import (
    CellComplex,
    harmonic_space,
    isotypic_eigen_check,
)
from .liealg import AlgebraData, AlgebraSpec, EnergyWindow, build_algebra
from .reptheory import expand, is_weyl_symmetric


@dataclass
class RunConfig:
    series: str = "A"
    rank: int = 1
    maxDegree: int = 3
    maxEnergy: int = 6
    kMin: int = -2
    kMax: int = 3
    guard: int = 1
    tolerance: float = 1e-9
    cacheDir: str | None = None
    outputFormat: str = "json"
    timing: bool = False
    window: EnergyWindow = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            # NaN and infinity have no JSON form, and the config echoes the tolerance
            raise ValueError(f"tolerance must be positive and finite, not {self.tolerance}")
        if self.outputFormat not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.outputFormat!r}")
        if self.outputFormat == "csv" and self.timing:
            raise ValueError("csv output has no place for timing; use json or text")
        if self.maxDegree < 0 or self.maxEnergy < 0:
            raise ValueError("maxDegree and maxEnergy must be nonnegative")
        self.window = EnergyWindow(self.kMin, self.kMax, self.guard)

    @property
    def algebra_spec(self) -> AlgebraSpec:
        return AlgebraSpec(self.series, self.rank)

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in CONFIG_FIELDS}


# the run schema, read by the config file and the report's ``config`` echo:
# each init field of RunConfig but the flag ``timing``, with the type of its
# value, the annotation's first type (``str`` for ``str | None``)
_HINTS = get_type_hints(RunConfig)
CONFIG_FIELDS = {f.name: (get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0]
                 for f in fields(RunConfig) if f.init and f.name != "timing"}


def _weight(w: Sequence[Fraction]) -> List[str]:
    return [str(Fraction(x)) for x in w]


_CONVENTIONS = {
    "weights": "lowest weights, simple-root coordinates",
    "numbers": "exact rationals serialized as strings",
}


def _header(kind: str, config: RunConfig, data: AlgebraData) -> dict:
    """The keys every report opens with: its schema, kind, configuration and algebra."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config.to_json_dict(),
        "algebra": {
            "name": config.algebra_spec.name,
            "dim": data.dim,
            "coxeter": data.coxeter,
            "content_hash": data.content_hash(),
        },
    }


def _predictions_json(predictions: Dict[int, list]) -> dict:
    return {
        str(p): [
            {
                "lowestWeight": {
                    "energy": irrep.energy,
                    "finite": _weight(irrep.lowestWeight.finite),
                    "central": "0",
                },
                "energy": irrep.energy,
                "dim": irrep.finiteDim,
                "reducedWord": list(irrep.sourceWord),
            }
            for irrep in predictions[p]
        ]
        for p in predictions
    }


def compute_cell(cc: CellComplex, p: int, k: int) -> dict:
    """Compute one (degree, energy) cell record, exact checks included; an
    empty cell takes the same path and passes every check on nothing."""
    data = cc.data
    harm = harmonic_space(cc, p, k)
    iso = isotypic_eigen_check(cc, p, k)
    return {
        "algebra_hash": data.content_hash(),
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "k": k,
        "dim": len(cc.basis(p, k)),
        "rank_d": cc.rank_d(p, k),
        "harmonic_dim": len(harm.basis),
        "harmonic": [
            {
                "lowestWeight": _weight(s.lowestWeight),
                "dim": s.dimension,
                "multiplicity": s.multiplicity,
                "energy": k,
            }
            for s in harm.decomposition
        ],
        "checks": dict(zip(EXACT_CHECKS, (
            cc.d_squared_zero(p, k),
            is_weyl_symmetric(data, cc.weight_multiset(p, k)),
            iso.passed,
            all(scalar >= 0 for _lw, scalar in iso.components),
            expand(data, harm.decomposition) == harm.weight_multiset,
        ))),
    }


def cmd_compute(config: RunConfig) -> dict:
    """Compute all cells p <= maxDegree, k <= maxEnergy and cross-check the
    affine prediction degree by degree."""
    t0 = time.monotonic()
    data = build_algebra(config.algebra_spec)
    cc = CellComplex(data)
    cache_dir = cache_mod.resolve_cache_dir(config.cacheDir)
    ahash = data.content_hash()

    # one pass over the cell records: each degree's (energy, lowest weight, dim) by
    # multiplicity, each lowest weight's total multiplicity and each check's verdict
    cells: List[dict] = []
    computed: Dict[int, list] = {p: [] for p in range(config.maxDegree + 1)}
    counts: Dict[Tuple[Fraction, ...], int] = {}
    checks_ok = dict.fromkeys(EXACT_CHECKS, True)
    for p in computed:
        for k in range(config.maxEnergy + 1):
            record = cache_mod.load_cell(cache_dir, ahash, p, k, data)
            if record is None:
                record = compute_cell(cc, p, k)
                cache_mod.store_cell(cache_dir, record)
            for s in record["harmonic"]:
                computed[record["p"]] += [(s["energy"], tuple(s["lowestWeight"]), s["dim"])] * s["multiplicity"]
                weight = tuple(map(Fraction, s["lowestWeight"]))
                counts[weight] = counts.get(weight, 0) + s["multiplicity"]
            checks_ok = {name: checks_ok[name] and record["checks"][name] for name in EXACT_CHECKS}
            # the schema version is the cache's own
            cells.append({key: v for key, v in record.items() if key != "schema_version"})

    predictions = predict_cohomology(data, config.maxDegree)
    match = {str(p): sorted(summands) == sorted((i.energy, tuple(_weight(i.lowestWeight.finite)), i.finiteDim)
                                                for i in predictions[p] if i.energy <= config.maxEnergy)
             for p, summands in computed.items()}
    violations = [[_weight(w), c] for w, c in sorted(counts.items()) if c > 1]

    report = {
        **_header("compute", config, data),
        "conventions": dict(_CONVENTIONS),
        "cells": cells,
        "predictions": _predictions_json(predictions),
        "matchVerdict": match,
        "exact_suite": {
            **checks_ok,
            "multiplicity_one": {
                "pass": not violations,
                "lowest_weights": [_weight(w) for w in sorted(counts)],
                "violations": violations,
            },
        },
        "identity_suite": None,
        "timing": _timing(t0) if config.timing else None,
    }
    return report


def _timing(t0: float) -> dict:
    return {"seconds": round(time.monotonic() - t0, 3)}


def cmd_predict(config: RunConfig) -> dict:
    t0 = time.monotonic()
    data = build_algebra(config.algebra_spec)
    report = {
        **_header("predict", config, data),
        "conventions": dict(_CONVENTIONS),
        "predictions": _predictions_json(predict_cohomology(data, config.maxDegree)),
    }
    if config.timing:  # only on request, so that the report is otherwise byte-deterministic
        report["timing"] = _timing(t0)
    return report


def cmd_verify_identities(config: RunConfig) -> dict:
    t0 = time.monotonic()
    # the identity harness is loaded by this command alone
    from .fock import verify_identity_suite

    data = build_algebra(config.algebra_spec)
    verdicts = verify_identity_suite(data, config.window)
    report = {
        **_header("verify-identities", config, data),
        "identity_suite": [v.to_json_dict() for v in verdicts],
    }
    if config.timing:  # only on request, so that the report is otherwise byte-deterministic
        report["timing"] = _timing(t0)
    return report


def serialize_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _to_csv(report)
    if fmt == "text":
        return _to_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _to_csv(report: dict) -> str:
    lines = ["p,k,dim,rank_d,harmonic_dim,predicted_dim,match"]
    if report.get("kind") != "compute":
        raise ValueError("csv output is only defined for compute reports")
    predicted_at: Dict[Tuple[int, int], int] = {}
    for p, irreps in report["predictions"].items():
        for i in irreps:
            key = (int(p), i["energy"])
            predicted_at[key] = predicted_at.get(key, 0) + i["dim"]
    for cell in report["cells"]:
        p, k = cell["p"], cell["k"]
        pred = predicted_at.get((p, k), 0)
        lines.append(
            f"{p},{k},{cell['dim']},{cell['rank_d']},{cell['harmonic_dim']},"
            f"{pred},{str(report['matchVerdict'][str(p)]).lower()}"
        )
    return "\n".join(lines) + "\n"


def _to_text(report: dict) -> str:
    out = []
    alg = report["algebra"]
    out.append(f"algebra {alg['name']}  dim {alg['dim']}  coxeter {alg['coxeter']}")
    if report.get("kind") == "predict":
        out.append("predicted harmonic decomposition (lowest weights, simple-root coords):")
        for p, irreps in sorted(report["predictions"].items(), key=lambda kv: int(kv[0])):
            rows = ", ".join(
                f"dim {i['dim']} at energy {i['energy']} (lowest {i['lowestWeight']['finite']})"
                for i in irreps
            )
            out.append(f"  H^{p}: {rows or 'none'}")
    elif report.get("kind") == "verify-identities":
        out.append(f"{'identity':44s} {'status':8s} {'max abs error'}")
        for v in report["identity_suite"]:
            status = "SKIP" if v["skipped"] else ("pass" if v["pass"] else "FAIL")
            err = "-" if v["maxAbsError"] is None else f"{v['maxAbsError']:.3e}"
            extra = f"  ({v['reason']})" if v["skipped"] else ""
            out.append(f"{v['identity']:44s} {status:8s} {err}{extra}")
    else:
        header = f"{'p':>3} {'k':>3} {'dim':>6} {'rank d':>7} {'dim H':>6} {'harmonic decomposition':<40} {'match':>6}"
        out.append(header)
        out.append("-" * len(header))
        for cell in report["cells"]:
            decomp = " + ".join(
                (f"{s['multiplicity']}x" if s["multiplicity"] > 1 else "") + f"V({','.join(s['lowestWeight'])})[{s['dim']}]"
                for s in cell["harmonic"]
            ) or "."
            verdict = str(report["matchVerdict"][str(cell["p"])]).lower()
            out.append(
                f"{cell['p']:>3} {cell['k']:>3} {cell['dim']:>6} {cell['rank_d']:>7} "
                f"{cell['harmonic_dim']:>6} {decomp:<40} {verdict:>6}"
            )
        suite = report["exact_suite"]
        out.append("")
        out.append(
            "exact suite: "
            + "  ".join(
                f"{name}={'ok' if (suite[name] if isinstance(suite[name], bool) else suite[name]['pass']) else 'FAIL'}"
                for name in EXACT_CHECKS + ("multiplicity_one",)
            )
        )
    if report.get("timing"):  # only on request, as the last line
        out.append(f"timing: {report['timing']['seconds']} s")
    return "\n".join(out) + "\n"


def exit_code_for(report: dict) -> int:
    """0 all pass; 2 computed/predicted mismatch; 3 identity-suite failure."""
    if report.get("kind") == "verify-identities":
        bad = [v for v in report["identity_suite"] if not v["skipped"] and not v["pass"]]
        return 3 if bad else 0
    if report.get("kind") == "compute":
        if not all(report["matchVerdict"].values()):
            return 2
        suite = report["exact_suite"]
        flags = [v if isinstance(v, bool) else v["pass"] for v in suite.values()]
        return 2 if not all(flags) else 0
    return 0
