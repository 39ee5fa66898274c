import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import spinsys.cli
import spinsys.hilbert
import spinsys.models
import spinsys.symmetry
import spinsys.util

from spinsys import (SectorBasis, SpinSpace, XxzParams, aklt, classify_total_spin,
                     frustration_free_check, suq2_generators, xxz)
from spinsys.cli import ConfigError, merge_config, parse_config_file, run

GRAPH4 = "vertices 4\n0 1 1.0\n1 2 1.0\n2 3 1.0\n"


def read(path):
    return path.read_text()


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "threads = 2          # comment\n"
        "[spectrum]\n"
        "L = 5\n"
        "model = heisenberg\n"
    )
    sections = parse_config_file(str(cfg))
    assert sections["common"]["threads"] == "2"
    assert sections["spectrum"]["L"] == "5"


def test_config_unknown_section_and_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[nonsense]\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    with pytest.raises(ConfigError):
        merge_config("spectrum", {"common": {"bogus_key": "1"}}, {})
    with pytest.raises(ConfigError):
        merge_config("spectrum", {}, {"bogus_flag": 1})


@pytest.mark.parametrize("text", ["[spectrum]\nL = abc\n", "[common]\nthreads = 1.5\n"],
                         ids=["L_abc", "threads_1.5"])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("sub", ["liebmattis", "ssep", "spectrum", "foel"])
def test_malformed_graph_file_is_config_error(tmp_path, capsys, sub):
    gfile = tmp_path / "g.txt"
    for text, why in [("0 1 1.0\n1 2 1.0\n", "vertices N"),     # no header
                      ("vertices 2\n0 1 1.0\nspin 0 1e400\n", "bad spin line"),
                      ("vertices 2\n0 1 1.0\nspin 0 1/0\n", "bad spin line"),
                      ("vertices 2\n0 1 1.0\nspin 5 1\n", "vertex 5 outside 0..1"),
                      ("vertices 2\n0 1 1.0\nspin -1 1\n", "vertex -1 outside 0..1")]:
        gfile.write_text(text)
        assert run([sub, "--graph", str(gfile), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert why in lines[0]
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("weight", ["nan", "inf"])
@pytest.mark.parametrize("sub", ["liebmattis", "ssep", "spectrum", "foel"])
def test_non_finite_coupling_is_config_error(tmp_path, capsys, sub, weight):
    gfile = tmp_path / "g.txt"
    gfile.write_text(f"vertices 4\n0 1 1.0\n1 2 {weight}\n2 3 1.0\n3 0 1.0\n")
    assert run([sub, "--graph", str(gfile), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert f"weight {weight}, not a finite number" in lines[0]
    assert not (tmp_path / "x.csv").exists()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[spectrum]\nL = 3\n")
    merged = merge_config("spectrum", parse_config_file(str(cfg)), {"L": 5})
    assert merged["L"] == 5
    merged2 = merge_config("spectrum", parse_config_file(str(cfg)), {})
    assert merged2["L"] == 3


def test_spectrum_roundtrip(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--model", "heisenberg", "--L", "4",
                "--out", str(out)])
    assert code == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "sector_M,index,energy"
    assert len(lines) == 17          # header + 16 states
    manifest = json.loads(read(tmp_path / "spec.csv.manifest.json"))
    assert manifest["subcommand"] == "spectrum"
    assert all(a["passed"] for a in manifest["assertions"])
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_json_format(tmp_path):
    out = tmp_path / "spec.json"
    code = run(["spectrum", "--L", "3", "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(read(out))
    assert set(data) == {"sector_M", "index", "energy"}
    assert len(data["energy"]) == 8


# a small run of every campaign; rings this small fail the droplet
# convergence assertions (exit 1), which still writes the table
JSON_RUNS = {"spectrum": ["--L", "3"], "foel": ["--L", "4", "--spin", "1"],
             "liebmattis": ["--graph", "{graph}"], "ssep": ["--graph", "{graph}"],
             "droplet": ["--q", "0.5", "--n", "2", "--Lmin", "8", "--Lmax", "10"],
             "lightcone": ["--L", "4", "--tsteps", "2", "--tmax", "5"],
             "cluster": ["--L", "4"],
             "perturb": ["--L", "4", "--lambda_min", "0.05", "--lambda_max", "0.05"]}


@pytest.mark.parametrize("sub", sorted(JSON_RUNS))
def test_json_tables_are_strict_json(tmp_path, sub):
    # JSON has no NaN or Infinity: a non-finite float goes out as the text of
    # its CSV cell, so float() reads every value of both formats alike (the
    # light cone has NaN in bound_corollary at x = bsite, and inf where a
    # bound overflows)
    assert set(JSON_RUNS) == set(spinsys.cli.RUNNERS)
    graph = tmp_path / "g.graph"
    graph.write_text(GRAPH4)
    argv = [sub] + [a.format(graph=graph) for a in JSON_RUNS[sub]]
    assert run(argv + ["--out", str(tmp_path / "t.csv")]) in (0, 1)
    assert run(argv + ["--format", "json", "--out", str(tmp_path / "t.json")]) in (0, 1)

    def refuse(name):
        raise ValueError(f"{name} in a JSON table")

    for path in tmp_path.glob("t*.csv"):        # the table and any extra table
        table = json.loads(read(path.with_suffix(".json")), parse_constant=refuse)
        header, *lines = read(path).strip().splitlines()
        columns = header.split(",")
        assert sorted(table) == sorted(columns)
        for k, line in enumerate(lines):
            for c, text in zip(columns, line.split(",")):
                v = table[c][k]
                if isinstance(v, float) or v in ("nan", "inf", "-inf"):
                    assert float(v) == float(text) or np.isnan(float(v)) and text == "nan"
                else:
                    assert str(v) == text
        if sub == "lightcone":
            assert "nan" in table["bound_corollary"] and "inf" in table["bound_thm1"]


EMIT_ROWS = [{"L": 4, "x": 0.1, "y": float("nan"), "name": "a"},
             {"L": 5, "x": -1 / 3, "y": float("inf"), "name": "b"},
             {"L": 6, "x": 1e-300, "y": float("-inf"), "name": "c"}]
# the bytes of both formats for EMIT_ROWS, as the table was written when each
# format was formed whole before one write
EMIT_BYTES = {
    "csv": "L,x,y,name\n4,0.10000000000000001,nan,a\n5,-0.33333333333333331,inf,b\n"
           "6,1e-300,-inf,c\n",
    "json": '{\n "L": [\n  4,\n  5,\n  6\n ],\n "name": [\n  "a",\n  "b",\n  "c"\n ],\n'
            ' "x": [\n  0.1,\n  -0.3333333333333333,\n  1e-300\n ],\n'
            ' "y": [\n  "nan",\n  "inf",\n  "-inf"\n ]\n}\n',
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_streams_the_same_bytes(tmp_path, fmt):
    # both formats byte for byte, non-finite cells included; and the text is
    # never held whole: the traced peak while writing 2000 rows of six floats
    # stays below 64 bytes a row for CSV and 320 for JSON (a CSV of 63 bytes
    # a row formed as a list of lines and then joined peaked at 248, the
    # JSON from one dumps at 607)
    import tracemalloc
    out = tmp_path / f"t.{fmt}"
    spinsys.cli.emit(["L", "x", "y", "name"], EMIT_ROWS, fmt, str(out))
    assert out.read_bytes() == EMIT_BYTES[fmt].encode()
    columns = ["L", "t", "x", "measured", "bound", "ratio"]
    n = 2000
    rows = [{"L": 8, "t": 0.05 * i, "x": i % 8, "measured": 1 / (i + 3),
             "bound": float("inf") if i % 7 == 0 else i / 7, "ratio": float("nan")}
            for i in range(n)]
    tracemalloc.start()
    try:
        spinsys.cli.emit(columns, rows, fmt, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < {"csv": 64, "json": 320}[fmt] * n


def test_foel_emits_level_table(tmp_path):
    out = tmp_path / "foel.csv"
    code = run(["foel", "--L", "4", "--spin", "1", "--out", str(out)])
    assert code == 0
    levels = read(tmp_path / "foel.levels.csv").strip().splitlines()
    assert levels[0] == "twice_S,S,E_min,E_max"
    assert len(levels) == 6          # S = 0..4


def test_foel_on_the_open_xxz_chain_uses_the_suq_ladder(tmp_path):
    # the open chain commutes with S_q+, not with the SU(2) S+: its table is
    # the library's SU_q(2) table, and the ordering is evaluated on it
    out = tmp_path / "foel.csv"
    assert run(["foel", "--model", "xxz_open", "--L", "8", "--q", "0.3",
                "--out", str(out)]) == 0
    [verdict] = json.loads(read(tmp_path / "foel.csv.manifest.json"))["assertions"]
    assert verdict["name"] == "foel_holds" and verdict["passed"]
    assert verdict["detail"].endswith("witness=None")
    p = XxzParams.from_q(8, 0.3)
    want = classify_total_spin(xxz(p), suq2_generators(p), SpinSpace((2,) * 8))
    rows = [ln.split(",") for ln in read(tmp_path / "foel.levels.csv").splitlines()[1:]]
    assert [int(r[0]) for r in rows] == want.spins() == [0, 2, 4, 6, 8]
    assert [float(r[2]) for r in rows] == [want.entries[t] for t in want.spins()]
    assert len(read(out).splitlines()) == 1 + 2 ** 8     # every level of every M


def test_foel_refuses_the_periodic_xxz_chain(tmp_path, capsys):
    out = tmp_path / "foel.csv"
    assert run(["foel", "--model", "xxz_periodic", "--L", "8", "--q", "0.3",
                "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert "periodic XXZ" in lines[0]
    assert not out.exists()


def test_foel_witness_holds_plain_floats(tmp_path):
    # the two-site AKLT bond is antiferromagnetic: FOEL fails, with a witness
    out = tmp_path / "aklt.csv"
    assert run(["foel", "--model", "aklt", "--L", "2", "--out", str(out)]) == 1
    [verdict] = json.loads(read(tmp_path / "aklt.csv.manifest.json"))["assertions"]
    assert not verdict["passed"] and "witness=(2, 0, " in verdict["detail"]
    assert "np.float64" not in verdict["detail"]


def test_ssep_subcommand(tmp_path):
    gfile = tmp_path / "p4.graph"
    gfile.write_text(GRAPH4)
    out = tmp_path / "ssep.csv"
    code = run(["ssep", "--graph", str(gfile), "--out", str(out)])
    assert code == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "n,dim,lambda_n,aldous_margin"
    assert len(lines) == 4


@pytest.mark.parametrize("text, reason", [
    ("vertices 1\n", "at least 2 vertices, got 1"),
    ("vertices 3\n0 1 1.0\n1 2 0.0\n", "rates must be strictly positive"),
    ("vertices 4\n0 1 1.0\n2 3 1.0\n", "graph is disconnected"),
], ids=["one_vertex", "zero_rate", "disconnected"])
def test_ssep_graph_without_gaps_is_config_error(tmp_path, capsys, text, reason):
    gfile = tmp_path / "g.graph"
    gfile.write_text(text)
    assert run(["ssep", "--graph", str(gfile), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and reason in lines[0]
    assert not (tmp_path / "x.csv").exists()


def test_missing_graph_is_config_error(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["ssep", "--out", str(out)]) == 2
    assert run(["ssep", "--graph", str(tmp_path / "absent.graph"),
                "--out", str(out)]) == 2


def test_bad_model_is_config_error(tmp_path):
    assert run(["spectrum", "--model", "bogus",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_unwritable_output_is_output_error(tmp_path):
    assert run(["spectrum", "--L", "3",
                "--out", str(tmp_path / "no_dir" / "x.csv")]) == 4


def test_byte_identical_across_threads(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["cluster", "--L", "6", "--threads", "1", "--out", str(a)]) == 0
    assert run(["cluster", "--L", "6", "--threads", "4", "--out", str(b)]) == 0
    assert read(a) == read(b)


def test_cluster_bound_fails_when_no_row_is_checked(tmp_path, capsys):
    # every vertex of the 3-ring lies at distance 1, where the constant is
    # fitted: nothing is left to check, and the verdict must not pass
    manifests = {}
    for L in (3, 4):
        out = tmp_path / f"c{L}.csv"
        code = run(["cluster", "--L", str(L), "--out", str(out)])
        manifests[L] = (code, {a["name"]: a for a in
                               json.loads(read(tmp_path / f"c{L}.csv.manifest.json"))["assertions"]})
    code, asserts = manifests[3]
    assert code == 1
    assert not asserts["decay_bound_holds"]["passed"]
    assert asserts["decay_bound_holds"]["detail"].endswith(" on 0 checked rows")
    assert [name for name, a in asserts.items() if not a["passed"]] == ["decay_bound_holds"]
    code, asserts = manifests[4]
    assert code == 0 and asserts["decay_bound_holds"]["passed"]
    assert asserts["decay_bound_holds"]["detail"].endswith(" on 5 checked rows")
    assert "[FAIL] decay_bound_holds: " in capsys.readouterr().out


def test_droplet_assertion_failure_is_exit_one(tmp_path):
    # n = 3 at tiny L is far from the infinite-volume value
    out = tmp_path / "drop.csv"
    code = run(["droplet", "--q", "0.5", "--n", "3", "--Lmin", "8",
                "--Lmax", "8", "--out", str(out)])
    assert code == 1
    manifest = json.loads(read(tmp_path / "drop.csv.manifest.json"))
    assert any(not a["passed"] for a in manifest["assertions"])


def test_droplet_thresholds_are_in_units_of_j(tmp_path):
    # every deviation scales with J: at J = 5 the open-chain deviation at
    # L = 16 is 0.0215, past the 2e-2 bound in absolute units
    devs = {}
    for J in ("1", "5"):
        out = tmp_path / f"drop{J}.csv"
        assert run(["droplet", "--q", "0.3", "--n", "2", "--Lmax", "16", "--J", J,
                    "--out", str(out)]) == 0
        manifest = json.loads(read(tmp_path / f"drop{J}.csv.manifest.json"))
        detail = {a["name"]: a["detail"] for a in manifest["assertions"]}
        devs[J] = float(detail["open_suq_converges"].split(" = ")[1].split()[0])
    assert devs["5"] > 2e-2
    assert devs["5"] == pytest.approx(5 * devs["1"], rel=1e-9)


def test_memory_error_is_exit_three(tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 11.9 GiB for an array")

    monkeypatch.setattr(spinsys.cli, "clustering_report", out_of_memory)
    assert run(["cluster", "--L", "6", "--out", str(tmp_path / "c.csv")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "solver error: out of memory: Unable to allocate 11.9 GiB for an array"]


def test_lightcone_small_chain(tmp_path):
    out = tmp_path / "cone.csv"
    assert run(["lightcone", "--L", "4", "--tsteps", "3", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "x,t,measured,bound_thm1,bound_corollary"
    assert len(lines) == 1 + 4 * 3
    manifest = json.loads(read(tmp_path / "cone.csv.manifest.json"))
    assert [a["name"] for a in manifest["assertions"]] == [
        "commutator_below_bound", "eigenbasis_norm_matches_definition"]
    assert all(a["passed"] for a in manifest["assertions"])


def test_lightcone_check_by_definition_catches_a_wrong_grid(tmp_path, monkeypatch):
    # the spot value off by one part in 10^6 is caught by the check by
    # definition, whose tolerance is 1e-9
    growth = spinsys.cli.commutator_growth
    monkeypatch.setattr(spinsys.cli, "commutator_growth",
                        lambda *args: growth(*args) * (1 + 1e-6))
    out = tmp_path / "cone.csv"
    assert run(["lightcone", "--L", "6", "--out", str(out)]) == 1
    manifest = json.loads(read(tmp_path / "cone.csv.manifest.json"))
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert failed == ["eigenbasis_norm_matches_definition"]


def test_lightcone_spin1_bound_overflow_is_infinite(tmp_path):
    # ||Phi||_lambda = 1761 for the spin-1 chain: e^(2 t ||Phi||) overflows at t = 1
    out = tmp_path / "cone.csv"
    assert run(["lightcone", "--L", "4", "--spin", "1", "--tsteps", "2",
                "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "x,t,measured,bound_thm1,bound_corollary"
    assert len(lines) == 1 + 4 * 2
    for line in lines[1:]:
        t, bound = (float(v) for v in line.split(",")[1:4:2])
        assert bound == float("inf") if t == 1.0 else bound < float("inf")


@pytest.mark.parametrize("flags", [["--tsteps", "1"], ["--tsteps", "0"],
                                   ["--bsite", "9"], ["--bsite", "-1"],
                                   ["--tmax", "nan"], ["--tmax", "inf"],
                                   ["--lam", "nan"], ["--lam", "0"], ["--lam", "inf"],
                                   ["--lam", "800"],
                                   ["--spin", "0.7"], ["--spin", "inf"],
                                   ["--J", "nan"], ["--J", "inf"]])
def test_lightcone_bad_grid_is_config_error(tmp_path, capsys, flags):
    assert run(["lightcone", "--L", "4", *flags, "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error: ")


@pytest.mark.parametrize("L", ["0", "-3"])
def test_lightcone_chain_length_is_checked_first(tmp_path, capsys, L):
    assert run(["lightcone", "--L", L, "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"config error: L must be at least 1, got L={L}"]


def test_lightcone_stacks_beyond_memory_are_refused(tmp_path, capsys, monkeypatch):
    # the 256-state eigenbasis fits in 16 MB; the grid's stacks of 400 time
    # steps do not, and are refused before they are formed
    monkeypatch.setattr(spinsys.util, "PHYSICAL_MEMORY", 2 ** 24)
    assert run(["lightcone", "--L", "8", "--tsteps", "400",
                "--out", str(tmp_path / "c.csv")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "solver error: the light-cone stack of 400 time steps at site 0 needs about ")
    assert lines[0].endswith("GiB of physical memory")
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("argv", [
    ["droplet", "--q", "0.5", "--Lmin", "10", "--Lmax", "8"],
    ["droplet", "--q", "0.5", "--n", "0"],
    ["perturb", "--L", "8", "--lambda_step", "0"],
    ["perturb", "--L", "8", "--lambda_min", "0.1", "--lambda_max", "-0.1"],
    ["cluster", "--L", "5", "--lam", "nan"],
    ["cluster", "--L", "5", "--lam", "0"],
    ["cluster", "--L", "5", "--lam", "800"],
    ["droplet", "--q", "1.5"],
    ["droplet", "--q", "nan"],
    ["droplet", "--Delta", "0.5"],
    ["droplet", "--q", "0.5", "--J", "-1"],
    ["droplet", "--q", "0.5", "--J", "nan"],
    ["droplet", "--q", "0.5", "--J", "inf"],
    ["droplet", "--q", "0.5", "--n", "3", "--Lmin", "4", "--Lmax", "6"],
    ["droplet", "--q", "0.5", "--n", "1", "--Lmin", "2", "--Lmax", "2"],
    ["cluster", "--L", "2"],
    ["cluster", "--L", "0"],
    ["foel", "--L", "0"],
    ["foel", "--spin", "0.7"],
    ["foel", "--spin", "nan"],
    ["foel", "--J", "nan"],
    ["spectrum", "--L", "0"],
    ["spectrum", "--model", "aklt", "--L", "1"],
    ["spectrum", "--model", "xxz_periodic", "--q", "0.5", "--L", "2"],
    ["spectrum", "--model", "xxz_open", "--q", "1.5", "--L", "4"],
    ["spectrum", "--model", "xxz_open", "--Delta", "nan", "--L", "4"],
    ["spectrum", "--model", "xxz_open", "--q", "0.5", "--J", "inf", "--L", "4"],
    ["perturb", "--L", "2"],
    ["perturb", "--L", "4", "--lambda_min", "nan"],
    ["perturb", "--L", "4", "--lambda_max", "inf"],
    ["perturb", "--L", "4", "--lambda_step", "nan"],
    ["perturb", "--L", "4", "--lambda_min=-1e308", "--lambda_max", "1e308"],
    ["perturb", "--L", "4", "--threads", "-1"],
    ["cluster", "--L", "5", "--threads", "0"],
    ["cluster", "--L", "5", "--lam", "5e-324"],      # mu underflows to 0
])
def test_range_errors_are_config_errors(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error: ")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv", [["cluster", "--L", "5"],
                                  ["lightcone", "--L", "4", "--tsteps", "2"]])
def test_overflowing_decay_rate_is_refused_before_any_solve(tmp_path, capsys, monkeypatch,
                                                            argv):
    # e^(lam D(X)) overflows a float above lam = 709.78
    def solve(*args, **kwargs):
        raise AssertionError("solved before the config check")

    for name in ("clustering_report", "HeisenbergDynamics", "assemble"):
        monkeypatch.setattr(spinsys.cli, name, solve)
    assert run([*argv, "--lam", "709", "--out", str(tmp_path / "c.csv")]) == 2
    assert run([*argv, "--lam", "1e300", "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: the interaction norm at lam = 709.0 overflows a float",
                   "config error: the interaction norm at lam = 1e+300 overflows a float"]


@pytest.mark.parametrize("delta", ["nan", "inf", "0.5"])
def test_bad_xxz_delta_is_named_in_the_config_error(tmp_path, capsys, delta):
    assert run(["spectrum", "--model", "xxz_open", "--Delta", delta, "--L", "4",
                "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Delta" in err and "q " not in err


def test_wrong_su2_declaration_is_a_solver_error(tmp_path, capsys, monkeypatch):
    # the perturbed AKLT ring with the SU(2) term check forced to pass fails
    # the block commutator check
    monkeypatch.setattr(spinsys.models.Interaction, "su2_invariant", lambda self, space: True)
    assert run(["perturb", "--L", "4", "--lambda_min", "0.05", "--lambda_max", "0.05",
                "--out", str(tmp_path / "p.csv")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error: ")
    assert "SU(2)" in lines[0]
    assert not (tmp_path / "p.csv").exists()


STAR60 = "vertices 61\n" + "".join(f"0 {x} 1.0\n" for x in range(1, 61))


BEYOND_MEMORY = [
    # argv, the physical memory to pretend (None: the machine's), the refusing site
    # spectrum assembles on the full space (the trace check); foel,
    # liebmattis, cluster and perturb only ever on sectors
    (["spectrum", "--L", "60"], None, "assembling H on 1152921504606846976 states"),
    (["foel", "--L", "60"], None, "the M = 0 sector of the 60-site space"),
    (["liebmattis", "--graph", "{star60}"], None, "the M = 0.5 sector of the 61-site space"),
    # ssep: the 8 one-particle configurations fit, the 28 two-particle ones do not
    (["ssep", "--graph", "{ring8}"], 10_000, "dense float64 solve of dimension 28"),
    (["droplet", "--q", "0.5", "--n", "10", "--Lmin", "40", "--Lmax", "40"], None,
     "40-site sector with 10 down spins"),
    # lightcone: H on 256 states fits; the dense result of evolve (1 MiB),
    # its blocks U_b and the temporaries of its largest block pair do not
    (["lightcone", "--L", "8", "--tsteps", "2"], 2 ** 20, "dense 256-state eigenbasis"),
    (["cluster", "--L", "30"], None, "the M = 1 sector of the 30-site space"),
    (["perturb", "--L", "30"], None, "the M = 0 sector of the 30-site space"),
]


@pytest.mark.parametrize("argv, memory, site", BEYOND_MEMORY,
                         ids=[argv[0] for argv, _, _ in BEYOND_MEMORY])
def test_campaign_beyond_memory_is_refused(tmp_path, capsys, monkeypatch, argv, memory,
                                           site):
    # refused by the memory pre-flight before the allocation: exit 3, one line
    # naming the GiB, no output table, no traceback
    if memory is not None:
        monkeypatch.setattr(spinsys.util, "PHYSICAL_MEMORY", memory)
    (tmp_path / "star60.txt").write_text(STAR60)
    (tmp_path / "ring8.txt").write_text("vertices 8\n" + "".join(
        f"{x} {(x + 1) % 8} {1 + x / 8}\n" for x in range(8)))
    argv = [a.format(star60=tmp_path / "star60.txt", ring8=tmp_path / "ring8.txt")
            for a in argv]
    assert run([*argv, "--out", str(tmp_path / "m.csv")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error: ")
    assert site in lines[0] and "GiB, above the" in lines[0]
    assert lines[0].endswith("GiB of physical memory")
    assert not (tmp_path / "m.csv").exists()


OVERSIZED_GRIDS = [
    (["lightcone", "--L", "8", "--tsteps", "100000000"], "the light-cone table of 800000000 rows"),
    (["perturb", "--L", "4", "--lambda_min", "0", "--lambda_max", "1e12", "--lambda_step", "1"],
     "the gap table of 1000000000001 lambda values"),
    # the longest length first: its pre-flight refuses before the range is listed
    (["droplet", "--n", "1", "--q", "0.3", "--Lmin", "4", "--Lmax", "1000000000000"],
     "the 1000000000000-site sector with 1 down spins"),
]


@pytest.mark.parametrize("argv, what", OVERSIZED_GRIDS, ids=[a[0] for a, _ in OVERSIZED_GRIDS])
def test_oversized_grids_are_refused_before_they_are_built(tmp_path, capsys, argv, what):
    # refused from the grid's length alone: without the pre-flight each grid
    # is a list that grows toward the physical memory
    assert run([*argv, "--out", str(tmp_path / "g.csv")]) == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(f"solver error: {what} needs about ")
    assert not (tmp_path / "g.csv").exists()


def test_droplet_past_64_bit_indices_is_refused(tmp_path, capsys):
    # 2^64 states: a stride of 2^63 does not fit a 64-bit index
    assert run(["droplet", "--q", "0.5", "--n", "1", "--Lmin", "64", "--Lmax", "64",
                "--out", str(tmp_path / "d.csv")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error: ") and "2^63" in lines[0]
    assert not (tmp_path / "d.csv").exists()


def test_droplet_at_L40_runs_on_its_sectors(tmp_path, capsys):
    # the 2^40-state space is never built: the one-down-spin run completes
    assert run(["droplet", "--q", "0.5", "--n", "1", "--Lmin", "40", "--Lmax", "40",
                "--out", str(tmp_path / "d.csv")]) == 0
    assert capsys.readouterr().err == ""
    lines = read(tmp_path / "d.csv").strip().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[2] == "40"


def run_module(*args):
    env = dict(os.environ)
    src = str(Path(spinsys.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "spinsys.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_m_spinsys_cli_runs(tmp_path):
    out = tmp_path / "m.csv"
    proc = run_module("spectrum", "--L", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(read(out).strip().splitlines()) == 1 + 8
    manifest = json.loads(read(tmp_path / "m.csv.manifest.json"))
    assert manifest["subcommand"] == "spectrum"


def test_tol_is_not_an_option(tmp_path):
    proc = run_module("cluster", "--tol", "1e-6", "--out", str(tmp_path / "c.csv"))
    assert proc.returncode == 2
    assert "--tol" in proc.stderr
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-6\n")
    assert run(["cluster", "--L", "4", "--config", str(cfg),
                "--out", str(tmp_path / "c.csv")]) == 2
    assert not (tmp_path / "c.csv").exists()


def test_foel_mirrors_the_negative_sectors(tmp_path, monkeypatch):
    # the Heisenberg chain is flip-invariant: the rows M < 0 repeat those of
    # -M, and match the direct solves made when the flip check is switched off
    solves = []
    spectrum = spinsys.cli.sector_spectrum

    def counted(H, sector, *args, **kwargs):
        solves.append(sector.label)
        return spectrum(H, sector, *args, **kwargs)

    monkeypatch.setattr(spinsys.cli, "sector_spectrum", counted)
    mirrored, solved = tmp_path / "mirrored.csv", tmp_path / "solved.csv"
    assert run(["foel", "--L", "7", "--out", str(mirrored)]) == 0
    assert solves == []
    monkeypatch.setattr(spinsys.models.Interaction, "flip_invariant", lambda self: False)
    assert run(["foel", "--L", "7", "--out", str(solved)]) == 0
    assert solves == [("M", -M) for M in (0.5, 1.5, 2.5, 3.5)]

    def rows(path):
        out = {}
        for line in read(path).strip().splitlines()[1:]:
            m, e = line.split(",")
            out.setdefault(float(m), []).append(float(e))
        return out

    got, want = rows(mirrored), rows(solved)
    assert got.keys() == want.keys()
    for m in got:
        assert got[m] == got[abs(m)]
        np.testing.assert_allclose(got[m], want[m], rtol=1e-12, atol=1e-12)


def test_liebmattis_on_a_graph_that_is_not_bipartite_is_config_error(tmp_path, capsys):
    gfile = tmp_path / "triangle.graph"
    gfile.write_text("vertices 3\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    assert run(["liebmattis", "--graph", str(gfile), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        f"config error: {gfile}: edge (1,2) does not cross the declared parts; "
        "graph is not bipartite for them"]
    assert not (tmp_path / "x.csv").exists()


def test_liebmattis_takes_no_spin(tmp_path, capsys):
    # the spins come from the graph file alone
    gfile = tmp_path / "p4.graph"
    gfile.write_text(GRAPH4)
    argv = ["liebmattis", "--graph", str(gfile), "--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--spin", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --spin 1" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[liebmattis]\nspin = 1\n")
    assert run([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "config error: unknown key 'spin' in section [liebmattis]"]
    assert not (tmp_path / "x.csv").exists()


def test_parser_is_built_once_and_survives_a_bad_flag(tmp_path, capsys):
    assert spinsys.cli.build_parser() is spinsys.cli.build_parser()
    argv = ["foel", "--L", "4", "--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--bogus", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
    assert run(argv) == 0
    assert (tmp_path / "x.csv").exists()


def test_liebmattis_classifies_once(tmp_path, monkeypatch):
    gfile = tmp_path / "p4.graph"
    gfile.write_text(GRAPH4)
    calls = []
    classify = spinsys.symmetry.classify_total_spin

    def counted(*args, **kwargs):
        calls.append(1)
        return classify(*args, **kwargs)

    for module in (spinsys.symmetry, spinsys.cli):
        monkeypatch.setattr(module, "classify_total_spin", counted)
    out = tmp_path / "lm.csv"
    assert run(["liebmattis", "--graph", str(gfile), "--out", str(out)]) == 0
    assert len(calls) == 1
    lines = read(out).strip().splitlines()
    assert lines[0] == "twice_S,S,E_min,E_max"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "2", "4"]


def test_sweeps_build_nothing_beyond_their_sectors(tmp_path, monkeypatch):
    # every embedding of these campaigns (H, the ladders, the observables,
    # and the perturbation whose norm perturb's Weyl bound reads) stays on
    # sectors; the SU(2) term check builds S+_X and S3_X on the two-site
    # space of a bond alone, never on the campaign's space
    full = []
    embed = spinsys.hilbert._embed

    def spy(basis, products, target=None):
        if not (isinstance(basis, SectorBasis) and isinstance(target or basis, SectorBasis)) \
                and basis.n_sites > 2:
            full.append([m for product in products for _, m in product])
        return embed(basis, products, target)

    monkeypatch.setattr(spinsys.hilbert, "_embed", spy)
    ring6 = tmp_path / "ring6.txt"
    ring6.write_text("vertices 6\n" + "".join(f"{x} {(x + 1) % 6} 1.0\n" for x in range(6)))
    for argv in (["cluster", "--L", "6"], ["foel", "--L", "8"],
                 ["liebmattis", "--graph", str(ring6)], ["ssep", "--graph", str(ring6)]):
        assert run([*argv, "--out", str(tmp_path / "o.csv")]) == 0, argv
    frustration_free_check(aklt(6, periodic=True), SpinSpace((3,) * 6), v0_size=1)
    assert run(["perturb", "--L", "4", "--lambda_min", "0.05", "--lambda_max", "0.05",
                "--out", str(tmp_path / "p.csv")]) == 0
    assert full == []
