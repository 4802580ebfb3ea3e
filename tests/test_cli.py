import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jetcohom import cache as cache_mod
from jetcohom.cli import build_parser, main, make_config, parse_config_file
from jetcohom.liealg import build_algebra
from jetcohom.report import (
    CONFIG_FIELDS,
    SCHEMA_VERSION,
    RunConfig,
    cmd_compute,
    cmd_predict,
    exit_code_for,
    serialize_report,
)

import oracles


def _betti(report):
    return {(c["p"], c["k"]): c["harmonic_dim"] for c in report["cells"]}


def test_a1_compute_betti_table(a1_report):
    betti = _betti(a1_report)
    expected_nonzero = {(0, 0): 1, (1, 1): 3, (2, 3): 5, (3, 6): 7}
    for cell, dim in betti.items():
        assert dim == expected_nonzero.get(cell, 0)
    assert all(a1_report["matchVerdict"].values())
    assert exit_code_for(a1_report) == 0


def test_a2_compute_matches_predictions(a2_report):
    betti = _betti(a2_report)
    assert betti[(0, 0)] == 1 and betti[(1, 1)] == 8 and betti[(2, 2)] == 20
    assert sum(betti.values()) == 29
    assert all(a2_report["matchVerdict"].values())
    # two distinct dim-10 summands at (2,2)
    cell22 = next(c for c in a2_report["cells"] if (c["p"], c["k"]) == (2, 2))
    assert sorted(s["dim"] for s in cell22["harmonic"]) == [8, 10, 10] or sorted(
        s["dim"] for s in cell22["harmonic"]
    ) == [10, 10]
    assert a2_report["exact_suite"]["multiplicity_one"]["pass"]


def test_harmonic_energy_concentration(a1_report, a2_report):
    # observed A1/A2 pattern: at fixed degree the harmonic dimension is
    # nonzero for at most one energy in the computed range
    for report in (a1_report, a2_report):
        per_degree = {}
        for cell in report["cells"]:
            if cell["harmonic_dim"]:
                per_degree.setdefault(cell["p"], []).append(cell["k"])
        assert all(len(ks) == 1 for ks in per_degree.values())


def test_degree_zero_config():
    report = cmd_compute(RunConfig(series="A", rank=1, maxDegree=0, maxEnergy=0))
    assert _betti(report) == {(0, 0): 1}
    assert exit_code_for(report) == 0


def test_non_simply_laced_end_to_end():
    report = cmd_compute(RunConfig(series="B", rank=2, maxDegree=1, maxEnergy=2))
    betti = _betti(report)
    assert betti[(1, 1)] == 10 and betti[(1, 2)] == 0
    assert all(report["matchVerdict"].values())
    assert exit_code_for(report) == 0


def test_predict_report(a1_report):
    report = cmd_predict(RunConfig(series="A", rank=1, maxDegree=3))
    dims = {p: [i["dim"] for i in irreps] for p, irreps in report["predictions"].items()}
    assert dims == {"0": [1], "1": [3], "2": [5], "3": [7]}
    energies = {p: [i["energy"] for i in irreps] for p, irreps in report["predictions"].items()}
    assert energies == {"0": [0], "1": [1], "2": [3], "3": [6]}


def test_report_is_byte_deterministic():
    cfg = RunConfig(series="A", rank=1, maxDegree=2, maxEnergy=3)
    r1 = serialize_report(cmd_compute(cfg), "json")
    r2 = serialize_report(cmd_compute(cfg), "json")
    assert r1 == r2
    assert "timing" in json.loads(r1) and json.loads(r1)["timing"] is None


def test_serializers(a1_report):
    csv = serialize_report(a1_report, "csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "p,k,dim,rank_d,harmonic_dim,predicted_dim,match"
    assert len(lines) == 1 + 4 * 7
    assert "3,6,37,12,7,7,true" in lines

    text = serialize_report(a1_report, "text")
    assert "match" in text and "V(-3)[7]" in text

    js = json.loads(serialize_report(a1_report, "json"))
    assert js["schema_version"] == 1
    assert js["algebra"]["name"] == "A1"


def test_exit_codes_for_doctored_reports(a1_report):
    bad = json.loads(serialize_report(a1_report, "json"))
    bad["matchVerdict"]["1"] = False
    assert exit_code_for(bad) == 2

    ident = {
        "kind": "verify-identities",
        "identity_suite": [
            {"identity": "x", "pass": False, "skipped": False, "maxAbsError": 1.0},
        ],
    }
    assert exit_code_for(ident) == 3
    ident["identity_suite"][0]["skipped"] = True
    assert exit_code_for(ident) == 0


def test_cli_maps_invariant_error_to_exit_2(monkeypatch, capsys):
    from jetcohom import cli
    from jetcohom.cochain import InvariantError

    def broken(config):
        raise InvariantError("Hodge consistency fails in cell (1, 1)")

    # cli.main calls report.cmd_compute through the name it imported
    monkeypatch.setattr(cli, "cmd_compute", broken)
    code = main(["compute", "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Hodge consistency fails in cell (1, 1)\n"
    assert captured.out == ""


def test_cli_maps_a_failed_decomposition_to_exit_2(monkeypatch, capsys):
    from jetcohom import report
    from jetcohom.reptheory import DecompositionError

    def broken(cc, p, k):
        raise DecompositionError("subtracting V((0,)) drives weight (2,) negative")

    monkeypatch.setattr(report, "harmonic_space", broken)
    code = main(["compute", "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: subtracting V((0,)) drives weight (2,) negative\n"
    assert captured.out == ""


def test_cli_maps_any_other_computation_error_to_exit_2(monkeypatch, capsys):
    from jetcohom import report

    def broken(*_cell):
        raise KeyError("cell")

    monkeypatch.setattr(report, "compute_cell", broken)
    code = main(["compute", "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("Traceback") and "in broken" in captured.err
    assert captured.err.endswith("error: KeyError: 'cell'\n") and captured.out == ""


@pytest.mark.parametrize("route", ["flag", "config", "env"])
def test_cli_refuses_a_cache_directory_that_cannot_be_created(tmp_path, capsys, monkeypatch, route):
    # checked before any cell is computed, like an unwritable --output
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache, out = blocker / "cache", tmp_path / "report.json"
    argv = ["compute", "--series", "A", "--rank", "1", "--max-degree", "2", "--max-energy", "3", "--output", str(out)]
    if route == "flag":
        argv += ["--cache-dir", str(cache)]
    elif route == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cacheDir = {cache}\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(cache))
    code = main(argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot create the cache directory") and captured.out == ""
    assert not out.exists()


def test_cli_main_end_to_end(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "compute", "--series", "A", "--rank", "1",
        "--max-degree", "1", "--max-energy", "2",
        "--format", "json", "--output", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["algebra"]["name"] == "A1"

    code = main(["predict", "--series", "A", "--rank", "2", "--max-degree", "1", "--format", "text"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "H^1" in captured


def test_cli_verify_identities_exit(capsys):
    code = main([
        "verify-identities", "--series", "A", "--rank", "1",
        "--kmin", "-2", "--kmax", "3", "--guard", "1", "--tolerance", "1e-9",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    names = {v["identity"] for v in report["identity_suite"]}
    assert "laplacian_closed_form" in names
    assert all(v["pass"] or v["skipped"] for v in report["identity_suite"])


def test_a_guard_without_cochain_modes_skips_instead_of_passing_on_nothing(capsys):
    code = main([
        "verify-identities", "--series", "A", "--rank", "1",
        "--kmin", "-2", "--kmax", "3", "--guard", "3", "--format", "json",
    ])
    assert code == 0
    by_name = {v["identity"]: v for v in json.loads(capsys.readouterr().out)["identity_suite"]}
    for name in ("leibniz_rule", "d_restricts_to_chevalley_eilenberg", "clifford_relations",
                 "energy_bookkeeping", "L0_commutes_with_d", "d_squared_closed_form", "laplacian_closed_form"):
        assert by_name[name]["skipped"] and by_name[name]["reason"], name
    assert all(v["vectors"] > 0 for v in by_name.values() if v["pass"])


def _commutator_verdict(capsys, kmin, kmax, guard):
    code = main([
        "verify-identities", "--series", "A", "--rank", "1",
        "--kmin", str(kmin), "--kmax", str(kmax), "--guard", str(guard), "--format", "json",
    ])
    assert code == 0
    suite = json.loads(capsys.readouterr().out)["identity_suite"]
    return next(v for v in suite if v["identity"] == "mode_action_commutators")


def test_commutator_check_counts_only_the_shifts_it_compares(capsys):
    # on [-2, 3] the shifts k = +-3 leave no mode level m with m +- k in the
    # window, so the 2 vectors of their bases are not checked
    verdict = _commutator_verdict(capsys, -2, 3, 3)
    assert verdict["pass"] and verdict["vectors"] == 194


def test_commutator_check_skips_a_window_where_no_shift_compares(capsys):
    verdict = _commutator_verdict(capsys, 0, 1, 1)
    assert verdict["skipped"] and not verdict["pass"] and verdict["vectors"] == 0
    assert verdict["reason"].startswith("no mode level")


def test_cli_rejects_bad_config(capsys):
    assert main(["compute", "--series", "A", "--rank", "0"]) == 1
    assert main(["compute", "--series", "Z", "--rank", "2"]) == 1


def test_cli_reports_a_missing_config_file_as_a_usage_error(tmp_path, capsys):
    assert main(["compute", "--config", str(tmp_path / "missing.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.cfg" in err


def test_cli_reports_an_unwritable_output_as_a_usage_error(tmp_path, capsys):
    # the path is checked before any cell is computed
    out = tmp_path / "no-such-dir" / "report.json"
    cache = tmp_path / "cache"
    cache.mkdir()
    code = main([
        "compute", "--series", "A", "--rank", "1", "--max-degree", "2", "--max-energy", "3",
        "--cache-dir", str(cache), "--output", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write the report") and captured.out == ""
    assert not out.exists() and list(cache.iterdir()) == []


def test_cli_refuses_an_output_that_is_a_directory(tmp_path, capsys):
    # refused before any cell is computed: nothing reaches the cache
    out, cache = tmp_path / "reports", tmp_path / "cache"
    out.mkdir()
    cache.mkdir()
    code = main([
        "compute", "--series", "A", "--rank", "1", "--max-degree", "2", "--max-energy", "3",
        "--cache-dir", str(cache), "--output", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write the report: {out} is a directory\n" and captured.out == ""
    assert list(cache.iterdir()) == [] and list(out.iterdir()) == []


def test_run_schema_is_the_run_config_fields(tmp_path):
    # the config-file keys and the report's config echo are RunConfig's
    # init fields but timing, and a file setting every key is its flags
    schema = [f.name for f in dataclasses.fields(RunConfig) if f.init and f.name != "timing"]
    assert list(CONFIG_FIELDS) == schema
    assert list(cmd_predict(RunConfig(maxDegree=1))["config"]) == schema
    values = {
        "series": "B", "rank": 2, "maxDegree": 2, "maxEnergy": 3, "kMin": -1, "kMax": 2, "guard": 1,
        "tolerance": 1e-6, "cacheDir": str(tmp_path), "outputFormat": "text",
    }
    assert list(values) == schema
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    flags = [
        "--series", "B", "--rank", "2", "--max-degree", "2", "--max-energy", "3", "--kmin", "-1", "--kmax", "2",
        "--guard", "1", "--tolerance", "1e-6", "--cache-dir", str(tmp_path), "--format", "text",
    ]
    parser = build_parser()
    from_file = make_config(parser.parse_args(["verify-identities", "--config", str(cfg)]))
    from_flags = make_config(parser.parse_args(["verify-identities", *flags]))
    assert from_file == from_flags == RunConfig(**values)
    assert [type(getattr(from_file, key)) for key in schema] == [type(value) for value in values.values()]


@pytest.mark.parametrize("flags", [["--kmin", "1", "--kmax", "3"], ["--guard", "-1"]])
def test_cli_rejects_an_invalid_window(capsys, flags):
    assert main(["verify-identities", "--series", "A", "--rank", "1", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window must satisfy") and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_a_non_finite_tolerance_flag(capsys, value):
    code = main(["verify-identities", "--series", "A", "--rank", "1", "--tolerance", value])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: tolerance must be positive and finite")


@pytest.mark.parametrize("command", ["compute", "predict", "verify-identities"])
def test_cli_rejects_a_non_finite_tolerance_in_the_config_file(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("series = A\nrank = 1\nmaxDegree = 1\nmaxEnergy = 1\ntolerance = inf\n")
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: tolerance must be positive and finite")


@pytest.mark.parametrize("argv", [
    ["compute", "--rank", "x"],
    ["verify-identities", "--series", "A", "--rank", "1", "--tolerance", "-inf"],
    [],
], ids=["invalid-int", "option-like-value", "no-subcommand"])
def test_cli_maps_argparse_usage_errors_to_exit_1(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("usage: jetcohom") and "error:" in captured.err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: jetcohom")


@pytest.mark.parametrize("command", ["predict", "verify-identities"])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_cli_rejects_csv_for_reports_other_than_compute(tmp_path, capsys, monkeypatch, command, route):
    from jetcohom import cli

    def computed(config):
        raise AssertionError("csv must be refused before any computation")

    monkeypatch.setattr(cli, "cmd_predict", computed)
    monkeypatch.setattr(cli, "cmd_verify_identities", computed)
    if route == "flag":
        argv = [command, "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1", "--format", "csv"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("series = A\nrank = 1\nmaxDegree = 1\nmaxEnergy = 1\noutputFormat = csv\n")
        argv = [command, "--config", str(cfg)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: csv output is only defined for compute reports, not {command}\n"


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("series = A\nrank = 1\nmaxDegree = 2\nmaxEnergy = 3\noutputFormat = csv\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"series": "A", "rank": 1, "maxDegree": 2, "maxEnergy": 3, "outputFormat": "csv"}

    class Args:
        config = str(cfg)
        series = None
        rank = None
        maxDegree = 3  # flag overrides the file
        maxEnergy = None
        kMin = None
        kMax = None
        guard = None
        tolerance = None
        cacheDir = None
        outputFormat = None
        timing = False

    rc = make_config(Args())
    assert rc.maxDegree == 3 and rc.maxEnergy == 3 and rc.outputFormat == "csv"

    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown = 1\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


def test_cache_roundtrip_and_corruption(tmp_path, capsys):
    cache = tmp_path / "cache"
    cfg = RunConfig(series="A", rank=1, maxDegree=1, maxEnergy=2, cacheDir=str(cache))
    r1 = cmd_compute(cfg)
    files = sorted(cache.glob("*.json"))
    assert len(files) == 6  # (p,k) cells for p<=1, k<=2

    # cached run reproduces the same report
    r2 = cmd_compute(cfg)
    assert serialize_report(r1, "json") == serialize_report(r2, "json")

    # corruption: invalid json triggers recompute with a warning
    files[0].write_text("{broken")
    r3 = cmd_compute(cfg)
    assert serialize_report(r1, "json") == serialize_report(r3, "json")

    # valid json that is not an object is unreadable too: listed as invalid, then recomputed
    files[2].write_text("[1, 2]")
    capsys.readouterr()
    assert main(["show-cache", "--cache-dir", str(cache)]) == 0
    listing = {e["file"]: e["valid"] for e in json.loads(capsys.readouterr().out)["entries"]}
    assert listing.pop(files[2].name) is False and all(listing.values())
    r5 = cmd_compute(cfg)
    assert serialize_report(r1, "json") == serialize_report(r5, "json")
    assert f"unreadable cache file {files[2]}" in capsys.readouterr().err

    # stale algebra hash triggers recompute
    record = json.loads(files[1].read_text())
    record["algebra_hash"] = "0" * 64
    files[1].write_text(json.dumps(record))
    r4 = cmd_compute(cfg)
    assert serialize_report(r1, "json") == serialize_report(r4, "json")


def test_cache_env_override(tmp_path, monkeypatch, capsys):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("JETCOHOM_CACHE_DIR", str(env_cache))
    cmd_compute(RunConfig(series="A", rank=1, maxDegree=0, maxEnergy=1))
    assert env_cache.exists() and list(env_cache.glob("*.json"))

    code = main(["show-cache"])
    assert code == 0
    listing = json.loads(capsys.readouterr().out)
    assert listing["cacheDir"] == str(env_cache)
    assert all(e["valid"] for e in listing["entries"])


def test_cached_block_serialization(tmp_path):
    cache = tmp_path / "cache"
    cmd_compute(RunConfig(series="A", rank=1, maxDegree=1, maxEnergy=1, cacheDir=str(cache)))
    record = json.loads(next(iter(sorted(cache.glob("*_p1_k1.json")))).read_text())
    # the cell summary only: the differential is not cached
    assert set(record) == {"algebra_hash", "schema_version", "p", "k", "dim", "rank_d", "harmonic_dim",
                           "harmonic", "checks"}
    assert record["schema_version"] == SCHEMA_VERSION
    assert (record["p"], record["k"], record["dim"], record["rank_d"], record["harmonic_dim"]) == (1, 1, 3, 0, 3)
    assert record["harmonic"] == [{"lowestWeight": ["-1"], "dim": 3, "multiplicity": 1, "energy": 1}]
    assert all(record["checks"].values())


def test_cache_files_with_a_block_payload_give_the_same_report(tmp_path, capsys):
    # cache files written before the differential payload was dropped hold a
    # "block" record and no schema version: a warning, then a recompute that
    # leaves every report byte as it was
    cache = tmp_path / "cache"
    cfg = RunConfig(series="A", rank=1, maxDegree=2, maxEnergy=3, cacheDir=str(cache))
    fresh = {fmt: serialize_report(cmd_compute(cfg), fmt) for fmt in ("json", "csv", "text")}
    data = build_algebra(cfg.algebra_spec)
    paths = sorted(cache.glob("*.json"))
    for path in paths:
        record = json.loads(path.read_text())
        record.pop("schema_version")
        block = oracles.cell_block(data, record["p"], record["k"])  # in the Chevalley basis
        record["block"] = {  # the payload as it was written
            "algebra_hash": record["algebra_hash"],
            "degree": block.basisIn.degree,
            "energy": block.basisIn.energy,
            "dim_in": len(block.basisIn),
            "dim_out": len(block.basisOut),
            "monomials_in": [[list(m) for m in w] for w in block.basisIn.wedges()],
            "monomials_out": [[list(m) for m in w] for w in block.basisOut.wedges()],
            "triples": sorted([r, c, v] for (r, c), v in block.dMatrix.items()),
        }
        record["harmonic"] = []  # a wrong cell that only a recompute can mend
        path.write_text(json.dumps(record, sort_keys=True))
    capsys.readouterr()
    old = cmd_compute(cfg)
    err = capsys.readouterr().err
    assert {fmt: serialize_report(old, fmt) for fmt in fresh} == fresh
    for path in paths:
        assert f"{path} has schema version None, not {SCHEMA_VERSION}; recomputing" in err
        rewritten = json.loads(path.read_text())
        assert "block" not in rewritten and rewritten["schema_version"] == SCHEMA_VERSION


def test_cache_files_of_another_schema_version_are_recomputed(tmp_path, capsys):
    # files written before cells carried a schema version, or for another
    # version, are stale like a wrong algebra hash: a warning, then recompute
    cache = tmp_path / "cache"
    cfg = RunConfig(series="A", rank=1, maxDegree=1, maxEnergy=2, cacheDir=str(cache))
    fresh = serialize_report(cmd_compute(cfg), "json")
    old, other = sorted(cache.glob("*.json"))[:2]
    for path, version in ((old, None), (other, SCHEMA_VERSION + 1)):
        record = json.loads(path.read_text())
        record.pop("schema_version")
        if version is not None:
            record["schema_version"] = version
        record["harmonic"] = []  # a wrong cell that only a recompute can mend
        path.write_text(json.dumps(record, sort_keys=True))
    capsys.readouterr()
    assert serialize_report(cmd_compute(cfg), "json") == fresh
    err = capsys.readouterr().err
    assert f"{old} has schema version None, not {SCHEMA_VERSION}; recomputing" in err
    assert f"{other} has schema version {SCHEMA_VERSION + 1}, not {SCHEMA_VERSION}; recomputing" in err
    for path in (old, other):  # rewritten for the current version
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION


def test_a_cache_file_holding_another_cells_record_is_recomputed(tmp_path, capsys):
    # a cell file copied over another cell's passes the hash, version and key
    # checks; its name is not that of the cell it holds, so it is recomputed
    # with one warning, not reported as the cell that was asked for
    cache = tmp_path / "cache"
    argv = ["compute", "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1",
            "--cache-dir", str(cache), "--format", "json"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    source, target = (next(cache.glob(f"*_p{c}_k{c}.json")) for c in (0, 1))
    target.write_text(source.read_text())
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cold
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [
        f"warning: cache file {target} holds the record of {source.name}; recomputing"]


def test_show_cache_lists_only_current_well_named_records_as_valid(tmp_path, capsys):
    # show-cache cannot know the algebra a file is for, so it checks what a
    # file says of itself: the schema version, the keys, and the name of
    # the cell its hash, p and k give
    cache = tmp_path / "cache"
    cmd_compute(RunConfig(series="A", rank=1, maxDegree=1, maxEnergy=1, cacheDir=str(cache)))
    fresh = sorted(path.name for path in cache.glob("*.json"))
    record = json.loads((cache / fresh[0]).read_text())
    schemaless = {key: x for key, x in record.items() if key != "schema_version"}
    (cache / "schemaless.json").write_text(json.dumps(schemaless))
    (cache / "incomplete.json").write_text(json.dumps({"algebra_hash": "x"}))
    (cache / fresh[-1].replace(".json", "0.json")).write_text(json.dumps(record))  # misnamed
    capsys.readouterr()
    assert main(["show-cache", "--cache-dir", str(cache)]) == 0
    listing = {e["file"]: e["valid"] for e in json.loads(capsys.readouterr().out)["entries"]}
    assert {name for name, valid in listing.items() if valid} == set(fresh)
    assert len(listing) == len(fresh) + 3


@pytest.mark.parametrize("checks", [
    {name: "false" for name in cache_mod.EXACT_CHECKS},  # strings, each of them truthy
    {},
], ids=["string flags", "no flags"])
def test_a_cache_file_without_a_bool_per_exact_check_is_recomputed(tmp_path, capsys, checks):
    # a record whose checks are not the exact checks' bools would pass every
    # check as "ok" (or end the run in a KeyError): it is refused with a
    # warning, recomputed, and listed as invalid
    cache = tmp_path / "cache"
    argv = ["compute", "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1",
            "--cache-dir", str(cache), "--format", "text"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    target = next(cache.glob("*_p1_k1.json"))
    record = json.loads(target.read_text())
    target.write_text(json.dumps({**record, "checks": checks}, sort_keys=True))
    assert main(["show-cache", "--cache-dir", str(cache)]) == 0
    listing = {e["file"]: e["valid"] for e in json.loads(capsys.readouterr().out)["entries"]}
    assert listing.pop(target.name) is False and all(listing.values())
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cold
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and warnings[0].startswith(f"warning: cache file {target} does not map")
    assert json.loads(target.read_text()) == record  # rewritten by the recompute


def _no_multiplicity(record):
    first, *rest = record["harmonic"]
    return {**record, "harmonic": [{key: x for key, x in first.items() if key != "multiplicity"}, *rest]}


@pytest.mark.parametrize("doctor, fault", [
    # a string p keeps the file name, so only its type tells it from the int
    (lambda record: {**record, "p": str(record["p"])}, "lacks a field or has one of the wrong type"),
    (lambda record: {**record, "rank_d": False}, "lacks a field or has one of the wrong type"),  # a bool is no int
    (_no_multiplicity, "has a harmonic summand of the wrong shape"),
    (lambda record: {**record, "harmonic": [{**s, "lowestWeight": [-1]} for s in record["harmonic"]]},
     "has a harmonic summand of the wrong shape"),
], ids=["string p", "bool rank", "summand without multiplicity", "int weight coordinate"])
def test_a_cache_file_with_a_field_of_the_wrong_type_is_recomputed(tmp_path, capsys, doctor, fault):
    # a record whose p is the string "1" would leave degree 1 without its
    # summands (a mismatch, exit 2), and one whose summand has no
    # multiplicity would end the run in a KeyError: each is refused with a
    # warning, recomputed, and listed as invalid
    cache = tmp_path / "cache"
    argv = ["compute", "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1",
            "--cache-dir", str(cache), "--format", "json"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    target = next(cache.glob("*_p1_k1.json"))
    record = json.loads(target.read_text())
    assert record["harmonic"]
    target.write_text(json.dumps(doctor(record), sort_keys=True))
    assert main(["show-cache", "--cache-dir", str(cache)]) == 0
    listing = {e["file"]: e["valid"] for e in json.loads(capsys.readouterr().out)["entries"]}
    assert listing.pop(target.name) is False and all(listing.values())
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cold
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert warnings == [f"warning: cache file {target} {fault}; recomputing"]
    assert json.loads(target.read_text()) == record  # rewritten by the recompute


def test_two_cells_sharing_a_lowest_weight_fail_the_multiplicity_one_audit(tmp_path, capsys):
    # a schema-valid record of the empty cell (1, 0) doctored to hold the
    # summand of cell (1, 1): the one pass over the records counts V(-1)
    # twice, so the audit fails and names it, and the run exits 2
    cache = tmp_path / "cache"
    argv = ["compute", "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1",
            "--cache-dir", str(cache), "--format", "json"]
    assert main(argv) == 0
    capsys.readouterr()
    full, empty = (next(cache.glob(f"*_p1_k{k}.json")) for k in (1, 0))
    record, source = json.loads(empty.read_text()), json.loads(full.read_text())
    assert not record["harmonic"] and source["harmonic"]
    empty.write_text(json.dumps({**record, "harmonic": source["harmonic"], "harmonic_dim": 3}))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "warning" not in err
    audit = json.loads(out)["exact_suite"]["multiplicity_one"]
    assert audit == {"pass": False, "lowest_weights": [["-1"], ["0"]], "violations": [[["-1"], 2]]}


def test_store_cell_writes_through_a_temp_file_of_its_own(tmp_path):
    record = {"algebra_hash": "ab" * 32, "schema_version": SCHEMA_VERSION, "p": 1, "k": 1, "dim": 3,
              "rank_d": 0, "harmonic_dim": 3, "harmonic": [],
              "checks": {name: True for name in cache_mod.EXACT_CHECKS}}
    path = cache_mod.cell_path(tmp_path, record["algebra_hash"], 1, 1)
    taken = path.with_suffix(".tmp")
    taken.mkdir()  # another writer's (or a stale) temp under the cell's plain temp name
    cache_mod.store_cell(tmp_path, record)
    assert cache_mod.load_cell(tmp_path, record["algebra_hash"], 1, 1, SCHEMA_VERSION) == record
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, taken.name])


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_reports_match_the_golden_files(a1_report, a2_report, fmt):
    for name, report in (("a1_3_6", a1_report), ("a2_2_4", a2_report)):
        assert serialize_report(report, fmt).encode() == (GOLDEN / f"{name}.{fmt}").read_bytes(), name


def test_b2_report_matches_its_golden_file():
    # the one benchmark configuration beyond A1 and A2: its weight form has thirds
    report = cmd_compute(RunConfig(series="B", rank=2, maxDegree=2, maxEnergy=4))
    assert serialize_report(report, "json").encode() == (GOLDEN / "b2_2_4.json").read_bytes()


def test_a2_3_5_report_matches_its_golden_file():
    # its degree-3 lowest weights pin the sorted order of the multiplicity-one
    # audit's lowest_weights on two coordinates beyond A2 2/4
    report = cmd_compute(RunConfig(series="A", rank=2, maxDegree=3, maxEnergy=5))
    assert serialize_report(report, "json").encode() == (GOLDEN / "a2_3_5.json").read_bytes()


@pytest.mark.parametrize("name, flags", [
    ("predict_g2_6", ["--series", "G", "--rank", "2", "--max-degree", "6"]),
    ("predict_f4_3", ["--series", "F", "--rank", "4", "--max-degree", "3"]),
])
def test_predict_reports_match_the_golden_files(tmp_path, name, flags):
    out = tmp_path / f"{name}.json"
    assert main(["predict", *flags, "--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name, flags", [
    ("identities_a1_m2_3_g1", ["--series", "A", "--rank", "1", "--kmin", "-2", "--kmax", "3", "--guard", "1"]),
    ("identities_a2_m1_2_g1", ["--series", "A", "--rank", "2", "--kmin", "-1", "--kmax", "2", "--guard", "1"]),
    ("identities_a1_m3_3_g2", ["--series", "A", "--rank", "1", "--kmin", "-3", "--kmax", "3", "--guard", "2"]),
    # not simply laced: structure constants other than +-1
    ("identities_b2_m1_2_g1", ["--series", "B", "--rank", "2", "--kmin", "-1", "--kmax", "2", "--guard", "1"]),
    ("identities_g2_m1_2_g1", ["--series", "G", "--rank", "2", "--kmin", "-1", "--kmax", "2", "--guard", "1"]),
])
def test_identity_reports_match_the_golden_files(tmp_path, name, flags):
    out = tmp_path / f"{name}.json"
    main(["verify-identities", *flags, "--format", "json", "--output", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


_MAIN_THEN_REPORT_MODULES = """
import contextlib, io, sys
import jetcohom.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = jetcohom.cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules, "jetcohom.fock" in sys.modules)
"""


def _fresh_main(argv, env):
    """Exit code, numpy loaded, fock loaded after ``main(argv)`` in a fresh
    interpreter, and its stderr."""
    run = subprocess.run([sys.executable, "-c", _MAIN_THEN_REPORT_MODULES, *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    code, numpy, fock = run.stdout.split()
    return int(code), numpy == "True", fock == "True", run.stderr


def _fresh_env():
    env = {k: v for k, v in os.environ.items() if k != cache_mod.ENV_CACHE_DIR}
    env["PYTHONPATH"] = str(Path(cache_mod.__file__).parent.parent)
    return env


def test_no_command_loads_numpy(tmp_path):
    # the package is standard library only, the identity harness included,
    # and only verify-identities loads that harness
    env = _fresh_env()
    cache = str(tmp_path / "cache")
    a1 = ["--series", "A", "--rank", "1"]
    for argv, loads_fock in (
        (["compute", *a1, "--max-degree", "2", "--max-energy", "3", "--cache-dir", cache], False),
        (["show-cache", "--cache-dir", cache], False),
        (["predict", *a1, "--max-degree", "2", "--max-energy", "3"], False),
        (["verify-identities", *a1, "--kmin", "-1", "--kmax", "2", "--guard", "1"], True),
    ):
        code, numpy, fock, err = _fresh_main(argv, env)
        assert (code, numpy, fock) == (0, False, loads_fock), (argv[0], err)

    # every other module is loaded by the import itself, not deferred into a command
    package = Path(cache_mod.__file__).parent
    expected = sorted(f"jetcohom.{p.stem}" for p in package.glob("*.py") if p.stem not in ("__init__", "fock"))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, jetcohom.cli; print(*sorted(m for m in sys.modules if m.startswith('jetcohom.')))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.stdout.split() == expected, run.stderr


def test_compute_rejects_an_invalid_window_from_its_config_file(tmp_path):
    # every command validates the window, without loading the identity harness
    cfg = tmp_path / "run.cfg"
    cfg.write_text("series = A\nrank = 1\nmaxDegree = 1\nmaxEnergy = 1\nkMin = 1\n")
    cache = tmp_path / "cache"
    cache.mkdir()
    code, _numpy, fock, err = _fresh_main(["compute", "--config", str(cfg), "--cache-dir", str(cache)], _fresh_env())
    assert code == 1 and not fock
    assert err.startswith("error: window must satisfy") and "Traceback" not in err
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("command, flags", [
    ("predict", ["--series", "G", "--rank", "2", "--max-degree", "6"]),
    ("verify-identities", ["--series", "A", "--rank", "1", "--kmin", "-2", "--kmax", "3", "--guard", "1"]),
])
def test_timing_adds_a_timing_block_to_the_golden_report(tmp_path, command, flags):
    golden = {"predict": "predict_g2_6", "verify-identities": "identities_a1_m2_3_g1"}[command]
    out = tmp_path / "report.json"
    assert main([command, *flags, "--timing", "--format", "json", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    timing = report.pop("timing")
    assert list(timing) == ["seconds"] and isinstance(timing["seconds"], float) and timing["seconds"] >= 0
    assert serialize_report(report, "json").encode() == (GOLDEN / f"{golden}.json").read_bytes()


@pytest.mark.parametrize("command, flags, golden", [
    ("compute", ["--series", "A", "--rank", "1", "--max-degree", "3", "--max-energy", "6"], "a1_3_6"),
    ("predict", ["--series", "G", "--rank", "2", "--max-degree", "6"], "predict_g2_6"),
    ("verify-identities", ["--series", "A", "--rank", "1", "--kmin", "-2", "--kmax", "3", "--guard", "1"],
     "identities_a1_m2_3_g1"),
])
def test_timing_adds_one_last_line_to_the_golden_text_report(tmp_path, command, flags, golden):
    # the golden text, or the text of the golden json report, then one timing line
    out = tmp_path / "report.text"
    if command == "compute":
        flags = [*flags, "--cache-dir", str(tmp_path / "cache")]
    assert main([command, *flags, "--timing", "--format", "text", "--output", str(out)]) == 0
    *body, last = out.read_text().splitlines(keepends=True)
    if command == "compute":
        want = (GOLDEN / f"{golden}.text").read_text()
    else:
        want = serialize_report(json.loads((GOLDEN / f"{golden}.json").read_text()), "text")
    assert "".join(body) == want
    assert re.fullmatch(r"timing: \d+\.\d+ s\n", last), last


def test_cli_rejects_csv_with_timing_before_computing(tmp_path, capsys, monkeypatch):
    from jetcohom import cli

    def computed(config):
        raise AssertionError("csv with --timing must be refused before any computation")

    monkeypatch.setattr(cli, "cmd_compute", computed)
    cache = tmp_path / "cache"
    cache.mkdir()
    code = main(["compute", "--series", "A", "--rank", "1", "--max-degree", "1", "--max-energy", "1",
                 "--cache-dir", str(cache), "--timing", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: csv output has no place for timing; use json or text\n"
    assert list(cache.iterdir()) == []
