"""Per-cell summary cache keyed by the algebra content hash.

One JSON file per (algebra, degree, energy) cell holding the computed
cell summary: dimension, rank of d, harmonic decomposition and check
flags, and the report schema version it was written for.  The
differential is not stored; files written when it was (under a "block"
key) predate the schema version and are recomputed.  A cached file is
used only when its stored algebra hash and schema version both match; a
mismatch, a missing version and an unreadable file (one that holds no
JSON object) trigger recomputation with a warning.  Each writer
publishes through a temp file of its own, so writers of one cell never
collide.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Optional

ENV_CACHE_DIR = "JETCOHOM_CACHE_DIR"


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
    if record.get("schema_version") != schema_version:
        print(f"warning: cache file {path} has schema version {record.get('schema_version')}, "
              f"not {schema_version}; recomputing", file=sys.stderr)
        return None
    required = {"p", "k", "dim", "rank_d", "harmonic_dim", "harmonic", "checks"}
    if not required.issubset(record):
        print(f"warning: cache file {path} is incomplete; recomputing", file=sys.stderr)
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
                valid=True,
                algebra_hash=record.get("algebra_hash", "?"),
                p=record.get("p"),
                k=record.get("k"),
                dim=record.get("dim"),
            )
        except (OSError, ValueError):
            pass
        out.append(entry)
    return out
