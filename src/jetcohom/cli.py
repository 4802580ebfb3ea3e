"""Batch front door: compute / predict / verify-identities / show-cache.

Flags mirror the run configuration; an optional key=value config file
(the keys of ``report.CONFIG_FIELDS``) supplies defaults that flags
override.  The cache directory may also come from the JETCOHOM_CACHE_DIR
environment variable.

Exit codes: 0 all verdicts pass (also after --help); 1 a usage or
configuration error, checked before computing: every command line
argparse rejects, an unwritable --output or one naming a directory, a
compute cache directory that cannot be created and csv output for a
report other than compute's or with --timing; 2 a mismatch between
computed and predicted cohomology, a failed exact check or
decomposition, or any other exception inside a command (its traceback
kept on stderr); 3 an identity-suite failure.
``--tolerance`` is accepted and validated, but the identity suite is
exact and does not read it.  ``--timing`` adds the wall-clock seconds to
the report of compute, predict and verify-identities: a ``timing`` block
in json, a last ``timing: <seconds> s`` line in text.

Only verify-identities loads the identity harness (``fock``); compute,
predict and show-cache run on the modules this one imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import cache as cache_mod
from .cochain import InvariantError
from .liealg import InvalidAlgebraError
from .reptheory import DecompositionError
from .report import (
    CONFIG_FIELDS,
    RunConfig,
    cmd_compute,
    cmd_predict,
    cmd_verify_identities,
    exit_code_for,
    serialize_report,
)

def parse_config_file(path: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = CONFIG_FIELDS[key](val)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcohom",
        description="Exact cohomology of the positive-mode current algebra z*g[[z]].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, window: bool = False):
        p.add_argument("--series", help="simple series letter A-G")
        p.add_argument("--rank", type=int)
        p.add_argument("--max-degree", type=int, dest="maxDegree")
        p.add_argument("--max-energy", type=int, dest="maxEnergy")
        p.add_argument("--format", dest="outputFormat", choices=["json", "csv", "text"])
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--cache-dir", dest="cacheDir")
        p.add_argument("--config", help="key = value file with RunConfig field names")
        p.add_argument("--timing", action="store_true", help="include wall-clock timing (breaks byte determinism)")
        if window:
            p.add_argument("--kmin", type=int, dest="kMin")
            p.add_argument("--kmax", type=int, dest="kMax")
            p.add_argument("--guard", type=int)
            p.add_argument("--tolerance", type=float,
                           help="accepted and validated; not read, as the identity suite is exact")

    common(sub.add_parser("compute", help="build cells, harmonic spaces and cross-check predictions"))
    common(sub.add_parser("predict", help="affine-Weyl prediction only, no complexes"))
    common(sub.add_parser("verify-identities", help="run the windowed operator identity suite"), window=True)
    pc = sub.add_parser("show-cache", help="list cached cell summaries")
    pc.add_argument("--cache-dir", dest="cacheDir")
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for name in CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if getattr(args, "timing", False):
        values["timing"] = True
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 0 if exc.code == 0 else 1

    if args.command == "show-cache":
        cache_dir = cache_mod.resolve_cache_dir(getattr(args, "cacheDir", None))
        entries = cache_mod.list_cache(cache_dir)
        print(json.dumps({"cacheDir": str(cache_dir) if cache_dir else None, "entries": entries}, indent=2, sort_keys=True))
        return 0

    try:
        config = make_config(args)
    except (OSError, ValueError, InvalidAlgebraError) as exc:  # OSError: an unreadable --config file
        print(f"error: {exc}", file=sys.stderr)
        return 1

    output = getattr(args, "output", None)
    if output:
        # checked before any cell is computed; an existing report is not touched
        parent = Path(output).parent
        if not parent.is_dir() or not os.access(parent, os.W_OK):
            print(f"error: cannot write the report: {parent} is not a writable directory", file=sys.stderr)
            return 1
        if Path(output).is_dir():
            print(f"error: cannot write the report: {output} is a directory", file=sys.stderr)
            return 1
    if config.outputFormat == "csv" and args.command != "compute":
        print(f"error: csv output is only defined for compute reports, not {args.command}", file=sys.stderr)
        return 1
    cache_dir = cache_mod.resolve_cache_dir(config.cacheDir)
    if cache_dir and args.command == "compute":
        try:  # every computed cell is stored there
            cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create the cache directory: {exc}", file=sys.stderr)
            return 1

    try:
        if args.command == "compute":
            report = cmd_compute(config)
        elif args.command == "predict":
            report = cmd_predict(config)
        else:
            report = cmd_verify_identities(config)
        text = serialize_report(report, config.outputFormat)
    except InvalidAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an unforeseen failure inside the computation
        # the interpreter's own traceback print: importing traceback would add 0.3 MB to every run
        sys.excepthook(type(exc), exc, exc.__traceback__)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return exit_code_for(report)


if __name__ == "__main__":
    raise SystemExit(main())
