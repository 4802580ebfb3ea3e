"""In-memory span tracer that wraps jetcohom's public functions from outside.

A wrapped function is patched everywhere a caller looks it up: on its
defining module or class, and on every jetcohom module that holds the same
function object under some name (``report.harmonic_space``,
``cli.serialize_report``).  Patching only the defining module would record
nothing for callers that imported the function by name.

Functions in ``SPANNED`` record one span per call: name, start, end, parent
span and command id.  The hot leaves in ``LEAVES`` (``exactlinalg``, called
hundreds of thousands of times per command) only add their count and time to
the innermost open span.  Self time is a span's duration minus the part of it
covered by child spans and aggregated leaves.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

MODULES = ("affine", "cache", "cli", "cochain", "exactlinalg", "fock", "liealg", "report", "reptheory")

FOCK_CHECKS = (
    "vacuum_checks",
    "clifford_check",
    "energy_bookkeeping_check",
    "commutator_check",
    "l0_commutes_with_d_check",
    "leibniz_check",
    "d_matches_cochain_check",
    "d_squared_check",
    "laplacian_formula_check",
    "dtilde_adjoint_matrix_check",
    "cocycle_check",
)

SPANNED = (
    "cochain.build_basis",
    "cochain.differential_block",
    "cochain.wedge_gram",
    "cochain.CellComplex.laplacian",
    "cochain.CellComplex.codifferential",
    "cochain.harmonic_space",
    "cochain.casimir_matrix",
    "cochain.isotypic_eigen_check",
    "reptheory.weights_of_basis",
    "reptheory.decompose",
    "reptheory.expand",
    "reptheory.is_weyl_symmetric",
    "liealg.build_algebra",
    "liealg.verify_algebra",
    "affine.predict_cohomology",
    "affine.AffineWeylGroup.minimal_coset_reps",
    "cache.load_cell",
    "cache.store_cell",
    "report.compute_cell",
    "report.cmd_compute",
    "report.cmd_verify_identities",
    "report.serialize_report",
) + tuple(f"fock.{name}" for name in FOCK_CHECKS)

LEAVES = (
    "exactlinalg.det",
    "exactlinalg.matmul",
    "exactlinalg.rank",
    "exactlinalg.kernel_basis",
    "exactlinalg.mat_add",
    "exactlinalg.invert",
    "exactlinalg.is_zero_matrix",
)

ROOT = "cli.main"  # opened by the benchmark around each command


def _cache_file_bytes(cache_dir, algebra_hash, p, k) -> int:
    cache = importlib.import_module("jetcohom.cache")
    return cache.cell_path(cache_dir, algebra_hash, p, k).stat().st_size


# Counters read from a wrapped call's arguments and result: name -> hook(counts, args, result).
def _on_build_basis(counts, _args, basis):
    counts["cochain.basis_monomials"] += len(basis)


def _on_differential_block(counts, _args, block):
    counts["cochain.d_nnz"] += len(block.dMatrix)


def _on_wedge_gram(counts, _args, gram):
    counts["cochain.wedge_gram.entries"] += len(gram) ** 2


def _on_coset_reps(counts, _args, reps):
    counts["affine.coset_reps"] += len(reps)


def _on_serialize(counts, _args, text):
    counts["report.serialize_report.bytes"] += len(text.encode())


def _on_load_cell(counts, args, record):
    if record is not None:
        counts["cache.load_cell.hits"] += 1
        counts["cache.load_cell.bytes"] += _cache_file_bytes(*args[:4])


def _on_store_cell(counts, args, _result):
    cache_dir, record = args[:2]
    if cache_dir is not None:
        counts["cache.store_cell.bytes"] += _cache_file_bytes(
            cache_dir, record["algebra_hash"], record["p"], record["k"]
        )


def _on_compute_cell(counts, _args, record):
    counts["cochain.max_cell_dim"] = max(counts["cochain.max_cell_dim"], record["dim"])
    if record["dim"]:
        counts["nonempty_cells"] += 1


def _on_matmul(counts, args, _result):
    a, b = args[:2]
    counts["exactlinalg.matmul.mults_computed"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _on_verify_identities(counts, _args, report):
    for verdict in report["identity_suite"]:
        counts["fock.vectors_checked"] += verdict["vectors"]
        counts["fock.identities_skipped"] += bool(verdict["skipped"])


HOOKS: Dict[str, Callable] = {
    "cochain.build_basis": _on_build_basis,
    "cochain.differential_block": _on_differential_block,
    "cochain.wedge_gram": _on_wedge_gram,
    "affine.AffineWeylGroup.minimal_coset_reps": _on_coset_reps,
    "report.serialize_report": _on_serialize,
    "cache.load_cell": _on_load_cell,
    "cache.store_cell": _on_store_cell,
    "report.compute_cell": _on_compute_cell,
    "exactlinalg.matmul": _on_matmul,
    "report.cmd_verify_identities": _on_verify_identities,
}


class Tracer:
    """Spans and counters of one traced batch, kept in memory."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or -1, command id]
        self.leaves: Dict[Tuple[int, str], List] = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.counts: Dict[str, float] = defaultdict(int)
        self.command = -1
        self._stack: List[int] = []

    def open(self, name: str) -> None:
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, self._stack[-2] if len(self._stack) > 1 else -1, self.command])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def leaf(self, name: str, seconds: float) -> None:
        agg = self.leaves[(self._stack[-1] if self._stack else -1, name)]
        agg[0] += 1
        agg[1] += seconds

    def self_times(self) -> List[float]:
        """Duration of each span minus what its children and leaves cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _name, start, end, parent, _cmd in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        leaf_s: Dict[int, float] = defaultdict(float)
        for (parent, _name), (_calls, seconds) in self.leaves.items():
            leaf_s[parent] += seconds
        out = []
        for i, (_name, start, end, _parent, _cmd) in enumerate(self.spans):
            out.append(end - start - _covered(children[i]) - leaf_s[i])
        return out

    def layer_totals(self) -> Dict[str, List]:
        """name -> [calls, self seconds] over the whole batch."""
        totals: Dict[str, List] = {name: [0, 0.0] for name in (ROOT,) + SPANNED + LEAVES}
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]][0] += 1
            totals[span[0]][1] += own
        for (_parent, name), (calls, seconds) in self.leaves.items():
            totals[name][0] += calls
            totals[name][1] += seconds
        return totals

    def leaf_calls_by_command(self, name: str) -> Dict[int, int]:
        out: Dict[int, int] = defaultdict(int)
        for (parent, leaf_name), (calls, _s) in self.leaves.items():
            if leaf_name == name and parent >= 0:
                out[self.spans[parent][4]] += calls
        return dict(out)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[parent, name, calls, s] for (parent, name), (calls, s) in self.leaves.items()],
            "counts": dict(self.counts),
        }


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    hook = HOOKS.get(name)
    if name in LEAVES:
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leaf(name, perf_counter() - t0)
            if hook:
                hook(tracer.counts, args, out)
            return out
    else:
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook:
                hook(tracer.counts, args, out)
            return out
    return functools.wraps(fn)(wrapper)


def install(tracer: Tracer) -> Tuple[Callable[[], None], List[str]]:
    """Patch every lookup site of every traced name.

    Returns (undo, missing): ``undo()`` restores the originals and
    ``missing`` lists names that no longer exist in the program.
    """
    modules = [importlib.import_module("jetcohom")] + [importlib.import_module(f"jetcohom.{m}") for m in MODULES]
    saved: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    for name in SPANNED + LEAVES:
        module, *path = name.split(".")
        owner = importlib.import_module(f"jetcohom.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None)
        if original is None:
            missing.append(name)
            continue
        sites = {(id(owner), path[-1]): (owner, path[-1])}
        if len(path) == 1:
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        sites[(id(mod), attr)] = (mod, attr)
        wrapped = _wrap(tracer, name, original)
        for obj, attr in sites.values():
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, wrapped)

    def undo() -> None:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)

    return undo, missing
