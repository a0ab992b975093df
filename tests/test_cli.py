"""Config resolution, CSV emission, sidecar metadata, exit codes."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from capmimo import SweepRow, SystemConfig, cli, spectra, sweep_transceiver
from capmimo.cli import (
    CSV_COLUMNS,
    ConfigError,
    RunConfig,
    _row_record,
    _write_csv,
    main,
    parse_config,
)


def read_rows_csv(path: Path) -> list[SweepRow]:
    """Inverse of the sweep CSV's writer over the SweepRow fields (mi_bits is derived)."""
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}: {reader.fieldnames}")
        for rec in reader:
            tag = rec["model_tag"]
            error = None
            if tag.startswith("error:"):
                tag, error = "error", tag[len("error:"):]
            rows.append(SweepRow(
                scenario=rec["scenario"], d_m=float(rec["d_m"]),
                m1=int(rec["m1"]) if rec["m1"] else None, m2=int(rec["m2"]),
                ref_m=int(rec["ref_m"]),
                mi_nats=float(rec["mi_nats"]) if rec["mi_nats"] else None,
                mi_ref_nats=float(rec["mi_ref_nats"]) if rec["mi_ref_nats"] else None,
                abs_gap=float(rec["abs_gap"]) if rec["abs_gap"] else None,
                n_used=float(rec["n_used"]) if rec["n_used"] else None,
                model_tag=tag, wall_time_s=float(rec["wall_time_s"]), error=error))
    return rows


def test_defaults_from_empty_file(tmp_path):
    cfg_file = tmp_path / "empty.cfg"
    cfg_file.write_text("")
    command, rc = parse_config(["sweep-receiver", "--config", str(cfg_file)])
    assert command == "sweep-receiver"
    assert rc.length == 2.0
    assert rc.wavelength == 0.04
    assert rc.power == 1.0
    assert rc.noise == 2.0
    assert rc.distances == (10.0, 1.0, 0.1)
    assert rc.m_list == (5, 10, 20, 40, 80, 100, 160)
    resolved = rc.resolved_dict(command)
    assert resolved["ref_m"] == 1600
    assert resolved["inner_points"] == 800


def test_flag_overrides_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("distance = 50\nscenario = filed  # comment\n")
    _, rc = parse_config(["dof", "--config", str(cfg_file), "--distance", "100"])
    assert rc.distance == 100.0
    assert rc.scenario == "filed"


def test_unknown_key_rejected(tmp_path, capsys):
    # a misspelled key, or the key of a setting that no longer exists: exit 2,
    # one stderr line, nothing on stdout and no output file
    cfg_file = tmp_path / "bad.cfg"
    out = tmp_path / "x.csv"
    for line in ("wavelenght = 0.04", "timings = true", "log_base = 2"):
        cfg_file.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(["dof", "--config", str(cfg_file)])
        assert main(["sweep-receiver", "--config", str(cfg_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg_file}:1: unknown config key")
        assert captured.err.count("\n") == 1
        assert not out.exists()


def test_invalid_value_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("ref_m = soon\n")
    with pytest.raises(ConfigError):
        parse_config(["dof", "--config", str(cfg_file)])


def test_misspelled_boolean_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("keep_going = ture\n")
    with pytest.raises(ConfigError):
        parse_config(["sweep-receiver", "--config", str(cfg_file)])
    assert main(["sweep-receiver", "--config", str(cfg_file)]) == 2
    for raw, value in (("No", False), ("YES", True)):
        cfg_file.write_text(f"keep_going = {raw}\n")
        assert parse_config(["sweep-receiver", "--config", str(cfg_file)])[1].keep_going is value


def test_config_file_comments_and_malformed_lines(tmp_path, capsys):
    # blank and comment-only lines are skipped; a line without '=', a key
    # set twice (not the last one kept) and a file that cannot be read or
    # is not UTF-8 are refused in one line: exit 2, nothing on stdout and
    # no output file
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# a comment line\n\n   \ndistance = 50\n")
    assert parse_config(["dof", "--config", str(cfg_file)])[1].distance == 50.0
    cfg_file.write_text("# header\ndistance 50\n")
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("wavelength = 0.04\n# again\nwavelength = 0.02\n")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("scenario = caf\xe9\n".encode("latin-1"))
    missing = tmp_path / "missing.cfg"
    out = tmp_path / "x.csv"
    for path, message in ((cfg_file, f"{cfg_file}:2: expected 'key = value', got 'distance 50'"),
                          (repeated, f"{repeated}:3: config key 'wavelength' repeats line 1\n"),
                          (latin1, f"cannot read config file {latin1}: 'utf-8' codec can't"),
                          (missing, f"cannot read config file {missing}: ")):
        assert main(["sweep-receiver", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
    assert not out.exists()


def test_config_file_hash_inside_a_value_is_kept(tmp_path):
    # '#' starts a comment only at the start of a line or after whitespace
    cfg_file = tmp_path / "run.cfg"
    out = tmp_path / "results#1.csv"
    cfg_file.write_text(f"scenario = run#2\nout = {out}\ndistance = 50\t# a comment\n")
    _, rc = parse_config(["dof", "--config", str(cfg_file)])
    assert (rc.scenario, rc.out, rc.distance) == ("run#2", str(out), 50.0)


@pytest.mark.parametrize("argv, key", [
    (["dof", "--wavelength", "abc"], "wavelength"),
    (["dof", "--ref-m", "1e3"], "ref_m"),
    (["sweep-receiver", "--distances", "10,x", "--out", "x.csv"], "distances"),
    # the sidecar is the CSV path with a .meta suffix, so it would replace the CSV
    (["dof", "--distance", "100", "--ref-m", "64", "--out", "x.meta"], "out"),
])
def test_malformed_flag_values_fail_like_config_values(argv, key, tmp_path, monkeypatch,
                                                       capsys):
    # a flag string and a config value go through the setting's one parser:
    # ConfigError naming the key, one stderr line, exit 2, nothing written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match=key):
        parse_config(argv)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key}: ") and captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())
    raw = argv[argv.index("--" + key.replace("_", "-")) + 1]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {raw}\n")
    with pytest.raises(ConfigError, match=key):
        parse_config([argv[0], "--config", str(cfg_file)])


# one raw string per setting, each parsing to a value other than its default
SETTING_SAMPLES = {
    "scenario": "lab", "wavelength": "0.05", "length": "1.5", "distance": "20",
    "distances": "20,5", "power": "3", "noise": "1", "ref_m": "128", "inner_points": "512",
    "m_list": "2,4", "m1_list": "3,6", "m2_list": "5", "out": "o.csv", "keep_going": "true",
}

COMMANDS = ("sweep-receiver", "sweep-transceiver", "sweep-grid", "dof", "bounds")

# the subcommands that read each setting not read by all five
READERS = {
    "distance": ("sweep-grid", "dof", "bounds"),
    "distances": ("sweep-receiver", "sweep-transceiver"),
    "ref_m": ("sweep-receiver", "sweep-transceiver", "sweep-grid", "dof"),
    "inner_points": ("sweep-receiver", "bounds"),
    "m_list": ("sweep-receiver", "sweep-transceiver", "bounds"),
    "m1_list": ("sweep-grid",),
    "m2_list": ("sweep-grid",),
    "keep_going": ("sweep-receiver", "sweep-transceiver", "sweep-grid"),
}
UNREAD = [(command, key) for key, readers in READERS.items()
          for command in COMMANDS if command not in readers]


@pytest.mark.parametrize("command, key", UNREAD)
def test_unread_setting_refused_in_one_line(command, key, tmp_path, capsys):
    # a setting the subcommand does not read would change nothing, so its
    # flag and its config key are refused once the value has parsed: exit
    # 2, nothing on stdout, one stderr line naming the subcommands that
    # read it, and no output file
    out = tmp_path / "x.csv"
    raw = SETTING_SAMPLES[key]
    flag = "--" + key.replace("_", "-")
    switch = key == "keep_going"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {raw}\n")
    *rest, last = READERS[key]
    readers = f"{', '.join(rest)} and {last}" if rest else last
    for argv in ([command, flag, *([] if switch else [raw]), "--out", str(out)],
                 [command, "--config", str(cfg_file), "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} is read only by {readers}, not by {command}\n"
    assert not out.exists() and not out.with_suffix(".meta").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_resolved_config_holds_only_the_settings_read(command):
    read = {f.name for f in dataclasses.fields(RunConfig)
            if command in READERS.get(f.name, COMMANDS)}
    assert set(parse_config([command])[1].resolved_dict(command)) == read


def test_each_setting_is_declared_once(tmp_path, capsys):
    # every RunConfig field is both a config key and a flag read by the same
    # parser (a switch sets true), each subcommand that reads it accepts both,
    # and every subcommand's --help lists --config and one flag per field it
    # reads, none for a field it refuses
    fields = dataclasses.fields(RunConfig)
    assert {f.name for f in fields} == set(SETTING_SAMPLES)
    assert len(UNREAD) == 21
    cfg_file = tmp_path / "run.cfg"
    for f in fields:
        raw = SETTING_SAMPLES[f.name]
        flag = "--" + f.name.replace("_", "-")
        switch = f.metadata["parse"] is cli._parse_bool
        assert f.metadata["read_by"] == READERS.get(f.name, COMMANDS), f.name
        for command in f.metadata["read_by"]:
            _, from_flag = parse_config([command, flag] + ([] if switch else [raw]))
            cfg_file.write_text(f"{f.name} = {raw}\n")
            _, from_file = parse_config([command, "--config", str(cfg_file)])
            value = getattr(from_flag, f.name)
            assert value == getattr(from_file, f.name) != f.default, (f.name, command)
    for command in COMMANDS:
        expected = sorted(["--help", "--config"] + ["--" + f.name.replace("_", "-")
                                                    for f in fields
                                                    if command in f.metadata["read_by"]])
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", capsys.readouterr().out, re.M)
        assert sorted(listed) == expected, command


def test_zero_wavelength_rejected():
    assert main(["dof", "--wavelength", "0"]) == 2


def test_malformed_list_rejected():
    assert main(["sweep-receiver", "--m-list", "4,five", "--out", "x.csv"]) == 2


@pytest.mark.parametrize("flag", ["--m-list", "--distances"])
def test_empty_list_rejected_in_one_line(flag, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep-receiver", flag, ",", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[2:].replace('-', '_')}: list must be nonempty\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep-receiver", "--m-list", "5,,10"], "m_list: empty entry in '5,,10'"),
    (["sweep-receiver", "--m-list", "5,10,"], "m_list: empty entry in '5,10,'"),
    (["sweep-receiver", "--distances", "10, ,1"], "distances: empty entry in '10, ,1'"),
    (["sweep-receiver", "--m-list", "5,5"], "m_list: repeated entry in '5,5'"),
    (["sweep-receiver", "--distances", "10,10.0"], "distances: repeated entry in '10,10.0'"),
    (["sweep-grid", "--m2-list", "100,0100"], "m2_list: repeated entry in '100,0100'"),
])
def test_list_entry_empty_or_repeated_rejected_in_one_line(argv, message, tmp_path, capsys):
    # an empty entry is refused, not dropped, and so is a repeated distance or
    # count, which would write identical CSV rows under one sidecar key: exit
    # 2, one stderr line naming the setting, nothing on stdout, no output file
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_missing_out_is_config_error(capsys):
    assert main(["sweep-receiver", "--m-list", "2,4", "--ref-m", "64",
                 "--distances", "10"]) == 2
    assert "out" in capsys.readouterr().err


def _run_small_sweep(tmp_path, name="sweep.csv", extra=()):
    out = tmp_path / name
    code = main(["sweep-receiver", "--distances", "10", "--m-list", "2,4,8",
                 "--ref-m", "64", "--inner-points", "512", "--out", str(out), *extra])
    return code, out


@pytest.mark.parametrize("argv", [
    ["sweep-receiver", "--distances", "10", "--m-list", "2,4,8", "--ref-m", "64",
     "--inner-points", "512"],
    ["dof", "--distance", "100", "--ref-m", "64"],
    ["bounds", "--m-list", "10,50", "--inner-points", "512"],
])
def test_a_run_resolves_its_settings_once(argv, tmp_path, monkeypatch):
    # the printout, the sidecar's resolved_config and dof's ref_m column all
    # read one resolution, made (and sized) once per invocation
    calls = []
    resolve = RunConfig.resolved_dict

    def counted(self, command):
        calls.append(command)
        return resolve(self, command)

    monkeypatch.setattr(RunConfig, "resolved_dict", counted)
    out = tmp_path / "once.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert calls == [argv[0]]
    resolved = json.loads(out.with_suffix(".meta").read_text())["resolved_config"]
    assert resolved["out"] == str(out)


def test_sweep_ladder_may_exceed_ref_m(tmp_path):
    out = tmp_path / "large.csv"
    assert main(["sweep-receiver", "--m-list", "100", "--ref-m", "64",
                 "--inner-points", "128", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4  # header + three default distances


def test_sweep_receiver_writes_csv_and_meta(tmp_path, capsys):
    code, out = _run_small_sweep(tmp_path)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wavelength = 0.04" in stdout  # resolved config printed up front
    text = out.read_text()
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 4
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert meta["tool"] == "capmimo"
    assert meta["command"] == "sweep-receiver"
    assert meta["resolved_config"]["ref_m"] == 64
    assert "slope_fits" in meta and "timings" in meta


def test_default_ref_m_resolved_per_distance(tmp_path):
    # the node rule resolves min(wavelength, d): at d = 1 mm a 0.11 m
    # aperture needs 16 * 110 = 1760 reference nodes, at d = 1 m the floor
    # of 1600; each row reports its own, the sidecar the largest
    out = tmp_path / "close.csv"
    assert main(["sweep-receiver", "--length", "0.11", "--distances", "1,0.001",
                 "--m-list", "2", "--out", str(out)]) == 0
    assert {(r.d_m, r.ref_m) for r in read_rows_csv(out)} == {(1.0, 1600), (0.001, 1760)}
    resolved = json.loads(out.with_suffix(".meta").read_text())["resolved_config"]
    assert (resolved["ref_m"], resolved["inner_points"]) == (1760, 1760)


def test_csv_round_trip(tmp_path):
    _, out = _run_small_sweep(tmp_path)
    rows = read_rows_csv(out)
    assert len(rows) == 3
    echo = tmp_path / "echo.csv"
    _write_csv(echo, CSV_COLUMNS, [_row_record(r) for r in rows])
    assert echo.read_bytes() == out.read_bytes()


def test_rerun_byte_identical(tmp_path):
    _, first = _run_small_sweep(tmp_path, "a.csv")
    _, second = _run_small_sweep(tmp_path, "b.csv")
    assert first.read_bytes() == second.read_bytes()


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the d = 0.1 m reference's last digits followed the BLAS's thread count
    # while its solve ran on the BLAS's own threads; a solve this small runs
    # on one, so a fresh process on one thread and one on two write the same
    # bytes
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = subprocess.run([sys.executable, "-m", "capmimo.cli", "sweep-receiver",
                               "--distances", "0.1", "--m-list", "5", "--out", str(out)],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_grid_meta_has_symmetry(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["sweep-grid", "--distance", "10", "--m1-list", "2,4",
                 "--m2-list", "2,4", "--ref-m", "64", "--out", str(out)])
    assert code == 0
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert meta["symmetry_gap"] == 0.0
    rows = read_rows_csv(out)
    assert {(r.m1, r.m2) for r in rows} == {(2, 2), (2, 4), (4, 2), (4, 4)}


def test_sweep_transceiver_command_matches_library(tmp_path):
    # the command's CSV rows are the library sweep's, value for value
    out = tmp_path / "trx.csv"
    assert main(["sweep-transceiver", "--distances", "10", "--m-list", "2,4", "--ref-m", "64",
                 "--out", str(out)]) == 0
    rows = sweep_transceiver(SystemConfig(), [10.0], [2, 4], 64, scenario="sweep-transceiver")
    assert read_rows_csv(out) == [dataclasses.replace(r, wall_time_s=0.0) for r in rows]


def test_sweep_meta_records_cache_counts(tmp_path):
    # the geometry caches' hits and misses over the process: the grid's
    # mirrored cells (2, 3) and (3, 2) share one solve, and the sidecar's
    # reference and effective-rank counts read the reference the sweep returned
    from capmimo import models
    argv = ["sweep-grid", "--distance", "10", "--m1-list", "2,3", "--m2-list", "2,3",
            "--ref-m", "64"]
    warm = tmp_path / "warm.csv"
    assert main([*argv, "--out", str(warm)]) == 0
    for cache in (models._spectrum, models._unit_trace):
        cache.cache_clear()
    out = tmp_path / "cold.csv"
    assert main([*argv, "--out", str(out)]) == 0
    caches = json.loads(out.with_suffix(".meta").read_text())["caches"]
    # three cells and one reference solved; one mirrored cell hits
    assert caches["spectrum"] == {"hits": 1, "misses": 4}
    assert caches["unit_trace"]["misses"] == 1
    assert out.read_bytes() == warm.read_bytes()


def test_sidecar_solves_no_reference_the_sweep_solved(tmp_path):
    # one reference and 100 cells are 101 distinct solves, more than the
    # spectrum cache holds: the sidecar writes the reference the sweep
    # solved, so nothing is solved twice and nothing is read back
    from capmimo import models
    models._spectrum.cache_clear()
    out = tmp_path / "ladder.csv"
    assert main(["sweep-receiver", "--distances", "10", "--m-list",
                 ",".join(map(str, range(2, 102))), "--ref-m", "64", "--out", str(out)]) == 0
    caches = json.loads(out.with_suffix(".meta").read_text())["caches"]
    assert caches["spectrum"] == {"hits": 0, "misses": 101}


@pytest.mark.parametrize("argv, solves", [
    (["sweep-receiver"], 24),
    (["sweep-grid", "--distance", "10", "--m1-list", "100,200,400,800,1200",
      "--m2-list", "100,200,400,800,1200"], 16),
])
def test_default_sweeps_solve_each_spectrum_once(argv, solves, tmp_path):
    # one cache holds every model spectrum: the default receiver sweep
    # solves 3 references and 3 x 7 cells, the 5 x 5 grid one reference
    # and 15 cells, its mirrored cells sharing one solve
    from capmimo import models
    models._spectrum.cache_clear()
    out = tmp_path / "default.csv"
    assert main([*argv, "--out", str(out)]) == 0
    caches = json.loads(out.with_suffix(".meta").read_text())["caches"]
    assert set(caches) == {"spectrum", "unit_trace"}
    assert caches["spectrum"]["misses"] == solves


@pytest.mark.parametrize("extra, ref_m", [([], 1600), (["--ref-m", "65"], 65)])
def test_dof_table_writes_the_solved_reference_count(extra, ref_m, tmp_path):
    out = tmp_path / "dof.csv"
    assert main(["dof", *extra, "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert int(row["ref_m"]) == ref_m


def test_bounds_sizes_its_trace_rule_before_any_output(monkeypatch, capsys):
    # at wavelength 2.5e-5 m the trace's rule has 16 * 2 / 2.5e-5 = 1.28e6
    # nodes, over 90 MB with its |G|^2 pass, though the bounds step itself is
    # small: with 64 MB of physical memory the command is refused before any
    # rule is built
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (64 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    code = main(["bounds", "--wavelength", "2.5e-5", "--inner-points", "64", "--m-list", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: a 1280000-node Gauss-Legendre rule needs about")
    assert captured.err.count("\n") == 1 and "physical memory" in captured.err


def test_dof_prints_counts(capsys):
    code = main(["dof", "--distance", "100", "--ref-m", "128"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "eigen_count =" in stdout
    assert "analytic_dof = 1.0" in stdout


def test_bounds_table_all_within(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--m-list", "10,50", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "gap_bound" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.BOUNDS_COLUMNS)
    assert all(line.endswith("true") for line in lines[1:])


def test_failed_cells_exit_nonzero_without_keep_going(tmp_path, monkeypatch):
    from capmimo import experiments as experiments_mod
    real = experiments_mod.mi_discrete_rx

    def flaky(m, cfg, inner_points=None):
        if m == 4:
            raise RuntimeError("synthetic")
        return real(m, cfg, inner_points)

    monkeypatch.setattr(experiments_mod, "mi_discrete_rx", flaky)
    code, out = _run_small_sweep(tmp_path, "fail.csv")
    assert code == 1
    rows = read_rows_csv(out)
    assert any(r.error for r in rows)  # failed cell recorded, not dropped
    code2, _ = _run_small_sweep(tmp_path, "kept.csv", extra=("--keep-going",))
    assert code2 == 0


def test_unwritable_output_path(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code, _ = _run_small_sweep(tmp_path, "blocker/out.csv")
    assert code == 1
    out = str(blocker / "out.csv")
    for argv in (["dof", "--distance", "100", "--ref-m", "64", "--out", out],
                 ["bounds", "--m-list", "10", "--inner-points", "512", "--out", out]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


def test_failed_cells_and_unwritable_output_both_reported(tmp_path, monkeypatch, capsys):
    # the sweep reports its failed cells before the one write, so a run whose
    # write also fails names both on stderr, and exits 1
    from capmimo import experiments as experiments_mod
    real = experiments_mod.mi_discrete_rx

    def flaky(m, cfg, inner_points=None):
        if m == 4:
            raise RuntimeError("synthetic")
        return real(m, cfg, inner_points)

    monkeypatch.setattr(experiments_mod, "mi_discrete_rx", flaky)
    (tmp_path / "blocker").write_text("file, not a directory")
    code, out = _run_small_sweep(tmp_path, "blocker/out.csv")
    assert code == 1
    failed, unwritten = capsys.readouterr().err.splitlines()
    assert failed == "1 cell(s) failed"
    assert unwritten.startswith(f"error: cannot write {out}: ")


def test_bounds_gap_above_its_bound_writes_its_table_and_exits_1(tmp_path, monkeypatch, capsys):
    # a gap above its bound fails the table, not the write: the CSV still
    # holds every step, the failing one marked false
    real = cli.noise_rx

    def loose(grid, cfg, inner_points=None):
        control = real(grid, cfg, inner_points)
        if grid.m == 50:
            return dataclasses.replace(control, gap=2.0 * control.gap_bound)
        return control

    monkeypatch.setattr(cli, "noise_rx", loose)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--m-list", "10,50", "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-2].endswith(" NO")
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.BOUNDS_COLUMNS)
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["true", "false"]


def test_csv_reports_both_nats_and_bits(tmp_path):
    import math
    _, out = _run_small_sweep(tmp_path)
    lines = out.read_text().splitlines()
    idx_nats = CSV_COLUMNS.index("mi_nats")
    idx_bits = CSV_COLUMNS.index("mi_bits")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[idx_bits]) == pytest.approx(
            float(cells[idx_nats]) / math.log(2.0), rel=1e-12)


def test_infeasible_reference_fails_fast(tmp_path, capsys):
    # l = 10 m at wavelength 1 mm asks for a 160000 x 160000 reference
    # matrix, of which the top 80000 rows are evaluated (about 1.4 TB while
    # evaluating): refused before any array is allocated, with one line on
    # stderr and exit 2
    out = tmp_path / "huge.csv"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["sweep-receiver", "--length", "10", "--wavelength", "0.001",
                     "--out", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: a 80000 x 160000 complex matrix needs")
    assert err.count("\n") == 1 and "physical memory" in err
    assert not out.exists()
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_infeasible_reference_refused_before_any_output(tmp_path, capsys):
    # every distance's reference is sized while the settings are parsed, so
    # the refusal comes before the resolved config is printed; bounds solves
    # no reference and is not refused
    out = tmp_path / "huge.csv"
    argv = ["--length", "10", "--wavelength", "0.001", "--out", str(out)]
    for command in ("sweep-receiver", "sweep-transceiver", "sweep-grid", "dof"):
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.startswith("error: a 80000 x 160000 complex matrix needs"), command
        assert captured.err.count("\n") == 1, command
    assert not out.exists()
    assert parse_config(["bounds", *argv])[0] == "bounds"


@pytest.mark.parametrize("argv, shape", [
    (["sweep-grid", "--m1-list", "100,400000", "--m2-list", "400000"], "200000 x 400000"),
    (["sweep-transceiver", "--m-list", "5,400000"], "200000 x 400000"),
    (["sweep-receiver", "--m-list", "5,4000000"], "2000000 x 800"),
])
def test_infeasible_discrete_cell_refused_before_any_output(argv, shape, tmp_path, capsys,
                                                            monkeypatch):
    # the command's largest discrete matrix is sized with the references
    # while the settings are parsed: one error line, exit 2, nothing on
    # stdout, no CSV and no solve
    from capmimo import models

    def no_solve(*args, **kwargs):
        raise AssertionError("a spectrum was solved before the cells were sized")

    monkeypatch.setattr(models, "centrosymmetric_spectrum", no_solve)
    out = tmp_path / "big.csv"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: a {shape} complex matrix needs")
    assert captured.err.count("\n") == 1 and "physical memory" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, sizes", [
    (["--m-list", "100000000000"], "100000000000 antennas and 800 source nodes"),
    (["--m-list", "10", "--inner-points", "100000000000"],
     "10 antennas and 100000000000 source nodes"),
])
def test_infeasible_bounds_step_refused_before_any_output(argv, sizes, tmp_path, capsys):
    # the antenna and source arrays of bounds' largest step are sized while
    # the settings are parsed: one error line, exit 2, nothing on stdout,
    # no table, and nothing allocated for them
    out = tmp_path / "b.csv"
    tracemalloc.start()
    try:
        code = main(["bounds", *argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: a bounds step on {sizes} needs about")
    assert captured.err.count("\n") == 1 and "physical memory" in captured.err
    assert not out.exists()
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ["sweep-receiver", "--noise", "1e-320", "--distances", "10", "--m-list", "5,10,20"],
    ["dof", "--power", "1e308", "--noise", "1"],
    # 2 P / n0 is finite, but P times the top eigenvalue is not
    ["dof", "--power", "1e306", "--noise", "1", "--ref-m", "64"],
])
def test_overflowing_snr_scale_refused_before_any_output(argv, tmp_path, capsys):
    # 2 / n0 or 2 P / n0 beyond the largest float would reach the spectrum
    # as inf, and a model value as nan or inf: refused in one line, exit 2
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: power_density ") and captured.err.count("\n") == 1
    assert "make the SNR scale 2 / n0 or 2 P / n0 overflow" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, geometry", [
    (["dof", "--distance", "1e200", "--ref-m", "64"], "0.04, aperture_m 2.0 and distance_m 1e+200"),
    (["dof", "--wavelength", "1e-300", "--ref-m", "64"],
     "1e-300, aperture_m 2.0 and distance_m 10.0"),
    (["sweep-receiver", "--distances", "10,1e160", "--m-list", "5"],
     "0.04, aperture_m 2.0 and distance_m 1e+160"),
])
def test_overflowing_geometry_refused_before_any_output(argv, geometry, tmp_path, capsys):
    # a geometry whose own arithmetic overflows is blamed on the geometry,
    # not on the power and noise: exit 2, one stderr line, nothing written
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: wavelength_m {geometry} overflow ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["dof", "--wavelenght", "0.04"], "unrecognized arguments: --wavelenght 0.04"),
    (["dof", "--ref-m"], "argument --ref-m: expected one argument"),
    ([], "required: command"),
    (["sweep-everything"], "invalid choice: 'sweep-everything'"),
    # switches that once copied an output elsewhere are unknown flags now
    (["sweep-receiver", "--timings", "--out", "x.csv"], "unrecognized arguments: --timings"),
    (["sweep-receiver", "--log-base", "2", "--out", "x.csv"],
     "unrecognized arguments: --log-base 2"),
])
def test_argument_mistakes_fail_in_one_line(argv, message, tmp_path, monkeypatch, capsys):
    # an unknown flag, a flag without its value, and a missing or unknown
    # subcommand are setting errors like the others: ConfigError, exit 2,
    # one stderr line, no usage block and no output file; --help still exits 0
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match=message):
        parse_config(argv)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not list(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(["dof", "--help"])
    assert exc.value.code == 0


def test_setting_given_twice_on_the_command_line_is_refused(tmp_path, monkeypatch, capsys):
    # a flag given twice is refused, as a config key set twice is, not kept
    # at its last value; so is a second --config, which would have replaced
    # the first file, and a switch given twice: exit 2, one stderr line,
    # nothing on stdout and no output file
    monkeypatch.chdir(tmp_path)
    for name in ("a.cfg", "b.cfg"):
        (tmp_path / name).write_text("distance = 100\nref_m = 64\n")
    for argv, flag in (
            (["dof", "--wavelength", "0.04", "--wavelength", "0.02", "--ref-m", "64",
              "--distance", "100"], "--wavelength"),
            (["dof", "--config", "a.cfg", "--config", "b.cfg"], "--config"),
            (["sweep-receiver", "--keep-going", "--distances", "10", "--m-list", "5",
              "--ref-m", "64", "--keep-going", "--out", "x.csv"], "--keep-going")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument {flag}: given more than once\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "b.cfg"]
    # each once still runs
    assert main(["dof", "--config", "a.cfg", "--wavelength", "0.02"]) == 0
    assert "wavelength = 0.02\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["dof", "--ref-m", "2"], "ref_m must be >= 64"),
    (["sweep-receiver", "--distances", "10", "--m-list", "0,5"], "m_list: antenna counts"),
    (["sweep-grid", "--m2-list", "-3"], "m2_list: antenna counts"),
    (["sweep-receiver", "--distances", "10", "--m-list", "2", "--inner-points", "1"],
     "inner_points must be >= 2"),
    (["bounds", "--m-list", "10,0"], "m_list: antenna counts"),
    (["sweep-receiver", "--distances", "10,-1", "--m-list", "4"],
     "distance_m must be positive, got -1.0"),
    # an --out in argv takes the place of the test's own (a flag is given once)
    (["sweep-receiver", "--distances", "10", "--m-list", "5", "--ref-m", "64", "--out", "."],
     "out: '.' is a directory"),
])
def test_invalid_counts_fail_before_any_solve(argv, message, tmp_path, capsys, monkeypatch):
    # a count no model accepts is refused while the settings are parsed:
    # exit 2, one line on stderr, nothing on stdout, no CSV, no solve
    from capmimo import models

    def no_solve(*args, **kwargs):
        raise AssertionError("a spectrum was solved before the counts were checked")

    monkeypatch.setattr(models, "centrosymmetric_spectrum", no_solve)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "x.csv"
    own = [] if "--out" in argv else ["--out", str(out)]
    assert main([argv[0], *own, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_meta_records_reference_health_and_environment(tmp_path, monkeypatch):
    # each distance's reference node counts and effective rank come from the
    # spectrum the sweep cached (six solves, three references and three
    # cells, no more), next to the numpy / BLAS versions and thread settings
    # of the run
    import numpy as np

    from capmimo import models
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    models._spectrum.cache_clear()
    out = tmp_path / "health.csv"
    assert main(["sweep-receiver", "--m-list", "5", "--out", str(out)]) == 0
    assert models._spectrum.cache_info().misses == 6
    meta = json.loads(out.with_suffix(".meta").read_text())
    counts = {d: (ref["ref_m"], ref["source_nodes"], ref["eigen_count_1e-3"],
                  ref["eigen_count_1e-12"]) for d, ref in meta["references"].items()}
    assert counts == {"10.0": (1600, 800, 13, 21), "1.0": (1600, 800, 66, 77),
                      "0.1": (1600, 800, 98, 135)}
    env = meta["environment"]
    assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
    assert (env["OMP_NUM_THREADS"], env["OPENBLAS_NUM_THREADS"]) == ("1", None)
    assert set(env["blas"] or {}) <= {"name", "version"}
    # the thread rule: the BLAS's count outside solves, where it can be set,
    # and the work below which a solve runs on one thread
    assert env["blas_threads"] == spectra.blas_threads()
    assert env["blas_threads"] is None or env["blas_threads"] >= 1
    assert env["serial_work"] == spectra.SERIAL_WORK
    # the idle-spin exponent OpenBLAS read when numpy loaded it (0 for its
    # default), where the BLAS reports it
    assert env["blas_thread_timeout"] == spectra.blas_thread_timeout()
    assert env["blas_thread_timeout"] is None or env["blas_thread_timeout"] >= 0
    # the LAPACK QR that formed each sketch's basis, or null for numpy's
    lapack = spectra._sketch_routines()
    assert env["sketch_qr"] == (None if lapack is None else lapack[0].__name__)
    # a numpy whose show_config takes no mode has no BLAS dict to record
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert cli._environment()["blas"] is None
