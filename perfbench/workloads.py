"""The benchmark's workloads: fixed command sets, seeded order, output checks.

The workload seed only permutes the order of a fixed set of commands; it
never changes which configurations run.  Every command is a
``jetcohom.cli.main(argv)`` call that writes its report with ``--output``;
its exit code, the maths in the report (``answers.py``) and, where a
reference byte string exists, the exact bytes are checked after the batch.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import answers
import tracing

FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class Compute:
    series: str
    rank: int
    degree: int
    energy: int

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank} {self.degree}/{self.energy}"

    def argv(self, fmt: str, cache_dir: Path, output: Path) -> List[str]:
        return ["compute", "--series", self.series, "--rank", str(self.rank),
                "--max-degree", str(self.degree), "--max-energy", str(self.energy),
                "--format", fmt, "--cache-dir", str(cache_dir), "--output", str(output)]


@dataclass(frozen=True)
class Window:
    series: str
    rank: int
    kmin: int
    kmax: int
    guard: int
    tolerance: float = 1e-9

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank} [{self.kmin},{self.kmax}] guard {self.guard}"

    def argv(self, output: Path) -> List[str]:
        return ["verify-identities", "--series", self.series, "--rank", str(self.rank),
                "--kmin", str(self.kmin), "--kmax", str(self.kmax), "--guard", str(self.guard),
                "--tolerance", repr(self.tolerance), "--format", "json", "--output", str(output)]


A1_36 = Compute("A", 1, 3, 6)
A2_24 = Compute("A", 2, 2, 4)
B2_24 = Compute("B", 2, 2, 4)
G2_22 = Compute("G", 2, 2, 2)
COMPUTE_CONFIGS = (A1_36, A2_24, B2_24, G2_22)
IDENTITY_WINDOWS = (Window("A", 1, -2, 3, 1), Window("A", 2, -1, 2, 1))


@dataclass
class Command:
    label: str
    argv: List[str]
    output: Path
    check: Callable[[str], List[str]]
    expect: Optional[bytes] = None  # exact bytes the report must have


@dataclass
class Outcome:
    """Checked results of some commands."""

    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed: int = 0

    def record(self, cmd: Command, exit_code, data: Optional[bytes]) -> None:
        self.attempted += 1
        found = []
        if exit_code != 0:
            found.append(f"exit code {exit_code}")
        if data is None:
            found.append("no report written")
        else:
            found += cmd.check(data.decode(errors="replace"))
            if cmd.expect is not None and data != cmd.expect:
                found.append("report bytes differ from the cold report")
        if found:
            self.failed += 1
            self.problems += [f"{cmd.label}: {p}" for p in found]

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_commands(main: Callable, commands: List[Command], tracer=None) -> Tuple[float, List[float], Outcome]:
    """Run commands closed loop; return (batch seconds, per-command seconds, checks)."""
    codes, times = [], []
    for cmd in commands:
        cmd.output.unlink(missing_ok=True)
    start = perf_counter()
    for i, cmd in enumerate(commands):
        t0 = perf_counter()
        if tracer is not None:
            tracer.command = i
            tracer.open(tracing.ROOT)
        try:
            code = main(cmd.argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # a crash counts as a failed command
            code = repr(exc)
        finally:
            if tracer is not None:
                tracer.close()
        times.append(perf_counter() - t0)
        codes.append(code)
    batch_s = perf_counter() - start
    outcome = Outcome()
    for cmd, code in zip(commands, codes):
        outcome.record(cmd, code, cmd.output.read_bytes() if cmd.output.exists() else None)
    return batch_s, times, outcome


class Workload:
    name = ""  # as in BENCHMARK.json, which also records why each workload exists
    # traced names that must be called at least once / never on this workload
    fires: Tuple[str, ...] = ()
    silent: Tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work

    def setup(self, main: Callable, rep: int) -> Outcome:
        """One repetition of the workload's set-up; repeated to time it."""
        return Outcome()

    def batch(self) -> List[Command]:
        raise NotImplementedError


_EXACT_CORE = (
    "cochain.build_basis", "cochain.differential_block", "cochain.wedge_gram",
    "cochain.CellComplex.laplacian", "cochain.CellComplex.codifferential", "cochain.harmonic_space",
    "cochain.casimir_matrix", "cochain.isotypic_eigen_check",
    "exactlinalg.det", "exactlinalg.matmul", "exactlinalg.rank", "exactlinalg.kernel_basis",
    "exactlinalg.mat_add", "exactlinalg.is_zero_matrix",
    "reptheory.weights_of_basis", "reptheory.decompose", "reptheory.expand", "reptheory.is_weyl_symmetric",
    "report.compute_cell", "cache.store_cell",
)
_REPORT_PATH = ("liealg.build_algebra", "liealg.verify_algebra", "report.serialize_report", tracing.ROOT)
_COMPUTE_PATH = ("affine.predict_cohomology", "affine.AffineWeylGroup.minimal_coset_reps",
                 "cache.load_cell", "report.cmd_compute", "exactlinalg.invert")
_D_BLOCKS = ("cochain.build_basis", "cochain.differential_block")  # fock.d_matches_cochain_check builds d
_FOCK = tuple(f"fock.{name}" for name in tracing.FOCK_CHECKS) + ("report.cmd_verify_identities",)


class ExactCold(Workload):
    name = "exact-cold"
    fires = _EXACT_CORE + _REPORT_PATH + _COMPUTE_PATH
    silent = _FOCK

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.order = [A1_36, A2_24, B2_24]
        self.rng.shuffle(self.order)
        self.refs = answers.load()["compute"]
        self.batches = 0

    def batch(self) -> List[Command]:
        self.batches += 1
        commands = []
        for i, c in enumerate(self.order):
            cache_dir, output = self.work / f"cache-{self.batches}-{i}", self.work / f"{i}.json"
            cache_dir.mkdir(parents=True)
            commands.append(Command(c.label, c.argv("json", cache_dir, output), output,
                                    lambda text, ref=self.refs[c.label]: answers.check_compute(ref, "json", text)))
        return commands


class CacheWarm(Workload):
    name = "cache-warm"
    fires = _REPORT_PATH + _COMPUTE_PATH
    silent = _EXACT_CORE + _FOCK
    configs = (A1_36, A2_24, G2_22)
    repeats = 12  # 12 x 3 configs x 3 formats = 108 reports per batch

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.cache_dir = work / "cache"
        self.refs = answers.load()["compute"]
        self.cold: Dict[Tuple[str, str], bytes] = {}
        self.order = [(c, fmt) for _ in range(self.repeats) for c in self.configs for fmt in FORMATS]
        self.rng.shuffle(self.order)

    def setup(self, main: Callable, rep: int) -> Outcome:
        """Fill an empty cache; repetition r writes the cold reports in format r mod 3."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        fmt = FORMATS[rep % len(FORMATS)]
        commands = [self._command(c, fmt, self.work / f"cold-{i}.{fmt}") for i, c in enumerate(self.configs)]
        _, _, outcome = run_commands(main, commands)
        for cmd, c in zip(commands, self.configs):
            if cmd.output.exists():
                self.cold.setdefault((c.label, fmt), cmd.output.read_bytes())
        return outcome

    def _command(self, c: Compute, fmt: str, output: Path) -> Command:
        ref = self.refs[c.label]
        return Command(f"{c.label} {fmt}", c.argv(fmt, self.cache_dir, output), output,
                       lambda text: answers.check_compute(ref, fmt, text), self.cold.get((c.label, fmt)))

    def batch(self) -> List[Command]:
        # a cold report missing here already failed in set-up; its warm reports get the maths check only
        return [self._command(c, fmt, self.work / f"{i}.{fmt}") for i, (c, fmt) in enumerate(self.order)]


class Identities(Workload):
    name = "identities"
    fires = _FOCK + _REPORT_PATH + _D_BLOCKS
    silent = tuple(n for n in _EXACT_CORE if n not in _D_BLOCKS) + ("report.cmd_compute", "cache.load_cell")

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.order = list(IDENTITY_WINDOWS)
        self.rng.shuffle(self.order)
        self.refs = answers.load()["identities"]

    def batch(self) -> List[Command]:
        return [Command(w.label, w.argv(self.work / f"{i}.json"), self.work / f"{i}.json",
                        lambda text, ref=self.refs[w.label]: answers.check_identities(ref, text))
                for i, w in enumerate(self.order)]


WORKLOADS = {w.name: w for w in (ExactCold, CacheWarm, Identities)}
