"""jetcohom benchmark: one workload, closed loop, one in-process CLI call at a time.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 45 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` it times the workload's set-up, then repeats the
workload's batch for about ``--seconds`` (at least once) and prints the
end-to-end metrics.  With ``--trace 1`` it runs the batch once untraced and
once with every public function of ``src/jetcohom`` wrapped (``tracing.py``)
and prints the per-layer metrics, plus the tracing overhead.  Every command's
output is checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds the
run metadata and the sample counts.  Spans of a traced run are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3  # set-ups timed per run; cache-warm needs one per report format
IMPORT_SPAWNS = 9  # fresh interpreters timed importing jetcohom.cli


def import_jetcohom():
    """Import the CLI from this checkout's src/, refusing any other copy."""
    if not (SRC / "jetcohom" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'jetcohom'}")
    sys.path.insert(0, str(SRC))
    from jetcohom import cli

    if Path(cli.__file__).resolve().parent != (SRC / "jetcohom").resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's source")
    return cli


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports jetcohom.cli and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import jetcohom.cli"],
                   check=True)
    return perf_counter() - t0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def timed_run(cli, workload, seconds: float):
    """Set up SETUP_REPEATS times, then repeat the batch for about ``seconds``.

    Batches repeat while the next one would end closer to ``seconds`` than
    stopping now, so a run measures ``seconds`` to within half a batch, and at
    least one batch.  Returns (gated metrics, printed-only metrics, outcome,
    samples).
    """
    import workloads

    imports = [import_seconds() for _ in range(IMPORT_SPAWNS)]
    setups, outcome = [], workloads.Outcome()
    for rep in range(SETUP_REPEATS):
        t0 = perf_counter()
        got = workload.setup(cli.main, rep)
        setups.append(perf_counter() - t0)
        outcome.merge(got)
    batches, times = [], []
    while not batches or sum(batches) + statistics.mean(batches) / 2 < seconds:
        batch_s, per_cmd, got = workloads.run_commands(cli.main, workload.batch())
        batches.append(batch_s)
        times += per_cmd
        outcome.merge(got)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "batch_s": (statistics.median(batches), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # per-report percentiles mix unlike commands and rest on few samples: shown, not gated
    printed = {"report_s.p50": (statistics.median(times), "s")}
    if len(times) >= 100:
        printed["report_s.p90"] = (percentile(times, 90), "s")
    samples = {"import_spawns": len(imports), "setups": len(setups), "batches": len(batches),
               "reports": len(times), "import_s": statistics.median(imports),
               "workload_setup_s": statistics.median(setups), **{k: v for k, (v, _u) in printed.items()}}
    return metrics, printed, outcome, samples


def traced_run(cli, workload, seed: int):
    """Set up, run the batch traced, then untraced; return per-layer metrics like ``timed_run``."""
    import tracing
    import workloads

    outcome = workloads.Outcome()
    for rep in range(SETUP_REPEATS):
        outcome.merge(workload.setup(cli.main, rep))
    commands = workload.batch()
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        traced_s, _, got = workloads.run_commands(cli.main, commands, tracer)
    finally:
        undo()
    outcome.merge(got)
    untraced_s, _, got = workloads.run_commands(cli.main, workload.batch())
    outcome.merge(got)

    totals = tracer.layer_totals()
    counts = tracer.counts
    cells = counts["nonempty_cells"]
    metrics = {}
    for name, (calls, own) in totals.items():
        metrics[f"{name}.self_s"] = (own, "s")
        if not name.startswith("fock."):
            metrics[f"{name}.calls"] = (calls, "count")
    for name in ("cochain.basis_monomials", "cochain.d_nnz", "cochain.wedge_gram.entries",
                 "cochain.max_cell_dim", "exactlinalg.matmul.mults_computed", "affine.coset_reps",
                 "cache.load_cell.hits", "fock.vectors_checked", "fock.identities_skipped"):
        metrics[name] = (counts[name], "count")
    for name in ("cache.load_cell.bytes", "cache.store_cell.bytes", "report.serialize_report.bytes"):
        metrics[name] = (counts[name], "bytes")
    loads = totals["cache.load_cell"][0]
    metrics["cache.hit_ratio"] = (counts["cache.load_cell.hits"] / loads if loads else 0.0, "ratio")
    metrics["cochain.laplacian_builds_per_cell"] = (
        totals["cochain.CellComplex.laplacian"][0] / cells if cells else 0.0, "ratio")
    metrics["exactlinalg.rank_calls_per_cell"] = (totals["exactlinalg.rank"][0] / cells if cells else 0.0, "ratio")
    unfired = [n for n in workload.fires if totals[n][0] == 0] + [n for n in workload.silent if totals[n][0] > 0]
    metrics["trace.batch_s"] = (traced_s, "s")
    metrics["trace.untraced_batch_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.wraps_missing"] = (len(missing), "count")
    metrics["trace.guard_violations"] = (len(unfired), "count")

    det_by_command = {commands[i].label: n for i, n in sorted(tracer.leaf_calls_by_command("exactlinalg.det").items())}
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps({
        "commands": [c.label for c in commands], "missing": missing, "unfired": unfired, **tracer.dump()}))
    samples = {"reports": len(commands), "missing_wraps": missing, "guard_violations": unfired,
               "exactlinalg.det.calls_by_command": det_by_command}
    return metrics, {}, outcome, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one single-threaded process per workload, numpy included
    cli = import_jetcohom()
    os.environ.pop("JETCOHOM_CACHE_DIR", None)  # would override every --cache-dir
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    meta = metadata(args)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics, printed, outcome, samples = traced_run(cli, workload, args.seed)
        else:
            metrics, printed, outcome, samples = timed_run(cli, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ratio = outcome.failed / outcome.attempted
    for problem in outcome.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={meta['python']} nproc={meta['nproc']} loadavg={meta['loadavg'][0]:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    for name, (value, unit) in printed.items():
        print(f"  {name:44s} {value:>14.6g} {unit} (n={samples['reports']}, not gated)")
    print(f"  {'failed_ratio':44s} {failed_ratio:>14.6g} ratio ({outcome.failed}/{outcome.attempted})")
    print(json.dumps({"run": meta, "samples": samples, "failed_ratio": failed_ratio}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
