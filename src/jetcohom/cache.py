"""Per-cell summary cache keyed by the algebra content hash.

One JSON file per (algebra, degree, energy) cell, named by ``cell_path``
from its algebra hash, p and k, holds the cell summary: dimension, rank
of d, harmonic decomposition, check flags and the report schema version
it was written for; the differential is not stored (files from when it
was carry no version).  ``record_fault`` is the one record check: a JSON
object with the current schema version, every field the report reads
with a value of its type (``RECORD_TYPES``; a bool is no int), a bool
for each of ``EXACT_CHECKS`` and nothing else as its ``checks``, and
summands of exactly the typed fields of ``SUMMAND_TYPES``, under the
name its own hash, p and k give.  ``load_cell`` also compares the
hash with the current algebra's and recomputes with a warning on any
failure, an unreadable file included; ``show-cache``, which knows no
current algebra, reports ``valid`` from the record check alone.  Each
writer publishes through a temp file of its own, so writers of one cell
never collide.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Optional

ENV_CACHE_DIR = "JETCOHOM_CACHE_DIR"
# the fields of a cell record, and exactly those of each of its harmonic summands,
# with the type of each value; a lowest weight is a list of strs
RECORD_TYPES = {"algebra_hash": str, "p": int, "k": int, "dim": int, "rank_d": int, "harmonic_dim": int,
                "harmonic": list, "checks": dict}
SUMMAND_TYPES = {"lowestWeight": list, "dim": int, "multiplicity": int, "energy": int}
# the exact-suite checks of every cell, in the order the text report lists them
EXACT_CHECKS = ("d_squared_zero", "weyl_symmetric", "isotypic", "positivity", "round_trip")


def resolve_cache_dir(configured: str | None) -> Optional[Path]:
    override = os.environ.get(ENV_CACHE_DIR)
    path = override or configured
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


def record_fault(path: Path, record: dict, schema_version: int) -> Optional[str]:
    """Why the JSON object read from ``path`` is no cell record of this
    schema version, or None: a record carries the version and its typed
    fields, its check flags are the exact checks' bools, and it lies
    under the name ``cell_path`` gives its own cell."""
    if record.get("schema_version") != schema_version:
        return f"has schema version {record.get('schema_version')}, not {schema_version}"
    if any(type(record.get(key)) is not kind for key, kind in RECORD_TYPES.items()):
        return "lacks a field or has one of the wrong type"
    if {key: type(x) for key, x in record["checks"].items()} != dict.fromkeys(EXACT_CHECKS, bool):
        return "does not map each exact check to a bool"
    if not all(type(s) is dict and {key: type(x) for key, x in s.items()} == SUMMAND_TYPES
               and all(type(x) is str for x in s["lowestWeight"]) for s in record["harmonic"]):
        return "has a harmonic summand of the wrong shape"
    name = cell_path(path.parent, record["algebra_hash"], record["p"], record["k"]).name
    return None if path.name == name else f"holds the record of {name}"


def load_cell(cache_dir: Optional[Path], algebra_hash: str, p: int, k: int, schema_version: int) -> Optional[dict]:
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
    if record.get("algebra_hash") != algebra_hash:
        print(f"warning: cache file {path} has stale algebra hash; recomputing", file=sys.stderr)
        return None
    fault = record_fault(path, record, schema_version)
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


def list_cache(cache_dir: Optional[Path], schema_version: int) -> list[dict]:
    if cache_dir is None or not cache_dir.exists():
        return []
    out = []
    for path in sorted(cache_dir.glob("*.json")):
        entry = {"file": path.name, "bytes": path.stat().st_size, "valid": False}
        try:
            record = _read_record(path)
            entry.update(
                valid=record_fault(path, record, schema_version) is None,
                algebra_hash=record.get("algebra_hash", "?"),
                p=record.get("p"),
                k=record.get("k"),
                dim=record.get("dim"),
            )
        except (OSError, ValueError):
            pass
        out.append(entry)
    return out
