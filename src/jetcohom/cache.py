"""Per-cell summary cache keyed by the algebra content hash.

One JSON file per (algebra, degree, energy) cell, named by ``cell_path``
from its algebra hash, p and k, holds the cell summary: dimension, rank
of d, harmonic decomposition, check flags and the report schema version
it was written for; the differential is not stored (files from when it
was carry no version).  ``record_fault`` is the one check of a record
against itself: a JSON object with the current schema version and only
the fields the report reads, each of its type (``RECORD_TYPES``; a bool
is no int), a bool for each of ``EXACT_CHECKS`` and nothing else as its
``checks``, summands of exactly the typed fields of ``SUMMAND_TYPES`` at
the cell's energy k, each lowest weight a list of rationals as
``str(Fraction)`` writes them, whose dim times multiplicity sum to
``harmonic_dim``, under the name its own hash, p and k give.
``load_cell`` also compares the hash with the current algebra's, checks
each summand against that algebra (``summand_fault``: an irreducible's
lowest weight and Weyl dimension), and recomputes with a warning on any
failure, an unreadable file included; ``show-cache``, which knows no
current algebra, reports ``valid`` from ``record_fault`` alone.  Each
writer publishes through a temp file of its own, so writers of one cell
never collide.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .liealg import AlgebraData

ENV_CACHE_DIR = "JETCOHOM_CACHE_DIR"
# the schema version of every report and cell record; a record of another is refused
SCHEMA_VERSION = 1
# the fields of a cell record, and exactly those of each of its harmonic summands,
# with the type of each value; a lowest weight is a list of canonical rational strs
RECORD_TYPES = {"algebra_hash": str, "p": int, "k": int, "dim": int, "rank_d": int, "harmonic_dim": int,
                "harmonic": list, "checks": dict}
SUMMAND_TYPES = {"lowestWeight": list, "dim": int, "multiplicity": int, "energy": int}
# the exact-suite checks of every cell, in the order the text report lists them
EXACT_CHECKS = ("d_squared_zero", "weyl_symmetric", "isotypic", "positivity", "round_trip")


def resolve_cache_dir(configured: str | None) -> Optional[Path]:
    path = os.environ.get(ENV_CACHE_DIR) or configured
    return Path(path) if path else None


def cell_path(cache_dir: Path, algebra_hash: str, p: int, k: int) -> Path:
    return cache_dir / f"{algebra_hash[:16]}_p{p}_k{k}.json"


def _read_record(path: Path) -> dict:
    """The JSON object a cell file holds; OSError or ValueError if it holds none."""
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(f"a JSON {type(record).__name__}, not an object")
    return record


def _canonical_rational(x) -> bool:
    """``x`` is a str that ``str(Fraction)`` writes, so the report reads back the rational it stands for."""
    try:
        return type(x) is str and str(Fraction(x)) == x
    except (ValueError, ZeroDivisionError):
        return False


def record_fault(path: Path, record: dict) -> Optional[str]:
    """Why the JSON object read from ``path`` is no cell record of
    ``SCHEMA_VERSION``, or None: a record holds the version and its typed
    fields alone, checks and summands that agree with it, and lies under
    the name ``cell_path`` gives its own cell."""
    if record.get("schema_version") != SCHEMA_VERSION:
        return f"has schema version {record.get('schema_version')}, not {SCHEMA_VERSION}"
    if any(type(record.get(key)) is not kind for key, kind in RECORD_TYPES.items()):
        return "lacks a field or has one of the wrong type"
    if record.keys() - RECORD_TYPES.keys() != {"schema_version"}:
        return "has a field no cell record has"
    if {key: type(x) for key, x in record["checks"].items()} != dict.fromkeys(EXACT_CHECKS, bool):
        return "does not map each exact check to a bool"
    if not all(type(s) is dict and {key: type(x) for key, x in s.items()} == SUMMAND_TYPES
               and all(map(_canonical_rational, s["lowestWeight"])) for s in record["harmonic"]):
        return "has a harmonic summand of the wrong shape"
    if any(s["energy"] != record["k"] for s in record["harmonic"]):
        return "has a harmonic summand at another energy than its cell's"
    if record["harmonic_dim"] != sum(s["dim"] * s["multiplicity"] for s in record["harmonic"]):
        return "has a harmonic dimension other than its summands' total"
    name = cell_path(path.parent, record["algebra_hash"], record["p"], record["k"]).name
    return None if path.name == name else f"holds the record of {name}"


def summand_fault(data: AlgebraData, record: dict) -> Optional[str]:
    """Why the summands of a record that passes ``record_fault`` are no
    irreducibles of ``data``, or None: each lowest weight has one
    coordinate per simple root, is antidominant and lies on the root
    lattice, as every weight of a cochain does, and each summand's dim is
    the Weyl dimension of its highest weight, the dominant weight of its
    Weyl orbit."""
    # the one check that reads the algebra, so the module imports no algebra code at load
    from .liealg import is_dominant
    from .reptheory import dominant_representative, weyl_dim
    for s in record["harmonic"]:
        weight = tuple(map(Fraction, s["lowestWeight"]))
        if len(weight) != data.rank:
            return f"has a lowest weight with {len(weight)} coordinates, not rank {data.rank}"
        if not is_dominant(data, tuple(-x for x in weight)):
            return "has a lowest weight that is not antidominant"
        if any(x.denominator != 1 for x in weight):
            return "has a lowest weight off the root lattice"
        if s["dim"] != weyl_dim(data, dominant_representative(data, weight)):
            return "has a summand whose dim is not the Weyl dimension of its lowest weight"
    return None


def load_cell(cache_dir: Optional[Path], algebra_hash: str, p: int, k: int, data: AlgebraData) -> Optional[dict]:
    """The record of cell (p, k) of ``data``, whose content hash is
    ``algebra_hash``, or None to recompute it: no file, or one that fails
    the record check or holds summands no irreducible of ``data`` has,
    with a warning."""
    if cache_dir is None:
        return None
    path = cell_path(cache_dir, algebra_hash, p, k)
    if not path.exists():
        return None
    try:
        record = _read_record(path)
    except (OSError, ValueError) as exc:
        print(f"warning: unreadable cache file {path} ({exc}); recomputing", file=sys.stderr)
        return None
    fault = ("has stale algebra hash" if record.get("algebra_hash") != algebra_hash
             else record_fault(path, record) or summand_fault(data, record))
    if fault:
        print(f"warning: cache file {path} {fault}; recomputing", file=sys.stderr)
        return None
    return record


def store_cell(cache_dir: Optional[Path], record: dict) -> None:
    if cache_dir is None:
        return
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cell_path(cache_dir, record["algebra_hash"], record["p"], record["k"])
    tmp = path.with_name(f"{path.stem}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(json.dumps(record, sort_keys=True))  # one C-encoder call; json.dump encodes in Python
        os.replace(tmp, path)  # atomic publication of the finished cell
    finally:
        tmp.unlink(missing_ok=True)  # left behind only by a failed write


def list_cache(cache_dir: Optional[Path]) -> list[dict]:
    if cache_dir is None or not cache_dir.exists():
        return []
    out = []
    for path in sorted(cache_dir.glob("*.json")):
        entry = {"file": path.name, "bytes": path.stat().st_size, "valid": False}
        try:
            record = _read_record(path)
            entry.update(
                valid=record_fault(path, record) is None,
                algebra_hash=record.get("algebra_hash", "?"),
                p=record.get("p"),
                k=record.get("k"),
                dim=record.get("dim"),
            )
        except (OSError, ValueError):
            pass
        out.append(entry)
    return out
