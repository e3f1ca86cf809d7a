import errno
import os
import warnings
import xml.etree.ElementTree as ET

import pytest

from pencilpow.errors import ConvergenceError, RankDeficientStackWarning
from pencilpow.harness import cli
from pencilpow.harness.emit import parse_csv
from pencilpow.harness.experiments import EXPERIMENTS


def test_run_writes_csv_svg_manifest(tmp_path):
    out = tmp_path / "results"
    rc = cli.main([
        "run", "--experiment", "toy_identity", "--n", "8", "--trials", "2",
        "--p-max", "3", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    experiment, records = parse_csv(out / "toy_identity.csv")
    assert experiment == "toy_identity"
    assert len(records) == 6
    ET.parse(out / "toy_identity.svg")  # well-formed XML
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 4" in manifest and "experiment = toy_identity" in manifest


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = toy_identity\n"
        "n = 8\n"
        "trials = 2\n"
        "p_max = 2\n"
        "seed = 11\n"
        "# a comment\n"
        f"output_dir = {tmp_path / 'from_file'}\n"
    )
    out = tmp_path / "override"
    rc = cli.main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)])
    assert rc == 0
    _, records = parse_csv(out / "toy_identity.csv")
    assert {r.trial for r in records} == {0}  # --trials overrode the file


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 3\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", str(cfg)])
    assert info.value.code == 2


def test_config_file_rejects_bad_value_with_location(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = toy_identity\nn = 8.0\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", str(cfg)])
    assert info.value.code == 2
    assert capsys.readouterr().err == f"pencilpow: error: {cfg}:2: n expects int, got '8.0'\n"


def test_config_file_line_without_equals_is_refused_with_location(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\nn 8\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", str(cfg)])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        f"pencilpow: error: {cfg}:2: expected 'key = value', got 'n 8\\n'\n")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_is_a_run_choice_that_dispatches(tmp_path, experiment):
    # the config's vocabulary is exactly what `run --experiment` offers and run_experiment runs
    out = tmp_path / "out"
    rc = cli.main(["run", "--experiment", experiment, "--n", "2", "--trials", "1",
                   "--p-max", "1", "--out", str(out)])
    assert rc == 0
    name, records = parse_csv(out / f"{experiment}.csv")
    assert name == experiment and len(records) == 1


def test_precision_alias(tmp_path):
    out = tmp_path / "f32"
    rc = cli.main([
        "run", "--experiment", "toy_identity", "--n", "8", "--trials", "1",
        "--p-max", "2", "--precision", "f32", "--out", str(out),
    ])
    assert rc == 0
    assert "precision = binary32" in (out / "manifest.txt").read_text()


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "bounds"
    rc = cli.main(["bounds", "--n", "8", "--p-max", "2", "--out", str(out)])
    assert rc == 0
    text = (out / "bound_report.csv").read_text()
    assert text.splitlines()[0] == "p,err_irs,bound_irs,ratio_irs,err_es,bound_es,ratio_es"
    # the manifest records the pencil actually drawn and the measured loop's kernel calls
    manifest = (out / "manifest.txt").read_text().splitlines()
    for line in ("experiment = general_square", "spectrum = annulus", "annulus_r_lo = 0.9",
                 "conditioning = well", "trials = 1",
                 "kernel_calls = KernelCounts(matmul=9, qr=2, inv=3)"):
        assert line in manifest


def test_run_bound_report_experiment(tmp_path):
    # the bound report has one command, and it takes only the settings it reads
    for argv in (["run", "--experiment", "bound_report"], ["bounds", "--trials", "3"],
                 ["bounds", "--config", "x"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--out", str(tmp_path / "br")])
        assert info.value.code == 2
    assert not (tmp_path / "br").exists()


def test_bounds_singular_a_p_writes_empty_fields(tmp_path):
    # A_10 of this pencil is numerically singular: the implicit error and its
    # ratio are sentinels, written as empty fields, and the report carries on
    out = tmp_path / "bounds"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientStackWarning)
        rc = cli.main(["bounds", "--n", "16", "--p-max", "10", "--seed", "0", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in (out / "bound_report.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 11))
    assert rows[-1][1] == "" and rows[-1][3] == ""
    assert all(row[4] for row in rows)  # the explicit path still has every error
    # ten steps and ten conversions of which the last raised before its
    # product, plus D_0 and ten explicit squarings
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "kernel_calls = KernelCounts(matmul=40, qr=10, inv=11)" in manifest


def test_invalid_config_exits_2_before_creating_the_output_dir(tmp_path, capsys):
    def config_file(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    cfg = config_file("report.cfg", "experiment = bound_report\n")
    ring = config_file("ring.cfg", "spectrum = ring\n")
    wide = config_file("wide.cfg", "spectrum = annulus\nannulus_r_hi = inf\n")
    unknown = config_file("unknown.cfg", "banana = 3\n")
    mistyped = config_file("mistyped.cfg", "n = 8.0\n")
    missing = str(tmp_path / "missing.cfg")
    folder = tmp_path / "folder.cfg"
    folder.mkdir()
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xffn = 4\n")
    # |d| >= 1e199 overflows the p = 1 oracle, so every trial stops before its first row
    huge = config_file("huge.cfg", "spectrum = annulus\nannulus_r_lo = 1e199\n"
                       "annulus_r_hi = 1e200\ntrials = 1\np_max = 3\n")
    cases = [
        (["run", "--n", "1"], "config requires trials >= 1, n >= 2, p_max >= 1"),
        (["bounds", "--n", "1"], "config requires trials >= 1, n >= 2, p_max >= 1"),
        (["run", "--config", cfg], "unknown experiment 'bound_report'; expected "
         "('toy_identity', 'general_square', 'condition_evolution', 'expm_compare')"),
        # a bad or unreadable config file takes the same path as a bad value
        (["run", "--config", unknown], f"{unknown}:1: unknown config key 'banana'"),
        (["run", "--config", mistyped], f"{mistyped}:1: n expects int, got '8.0'"),
        (["run", "--config", missing],
         f"{missing}: cannot read config file: {os.strerror(errno.ENOENT)}"),
        (["run", "--config", str(folder)],
         f"{folder}: cannot read config file: {os.strerror(errno.EISDIR)}"),
        (["run", "--config", str(binary)], f"{binary}: cannot read config file: 'utf-8' codec "
         "can't decode byte 0xff in position 0: invalid start byte"),
        # flags and config files pass the same checks, before anything is drawn
        (["run", "--n", "4", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["bounds", "--n", "4", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["run", "--n", "4", "--conditioning", "ill", "--delta", "0"],
         "delta must be in (0, 1], got 0.0"),
        (["run", "--n", "4", "--experiment", "expm_compare", "--delta", "2"],
         "delta must be in (0, 1], got 2.0"),
        (["run", "--n", "4", "--config", ring],
         "unknown spectrum region 'ring'; expected ('circle', 'disk', 'annulus')"),
        (["run", "--n", "4", "--config", wide],
         "annulus bounds must satisfy 0 < r_lo < r_hi < inf"),
        # a valid config whose run measures no row writes nothing either
        (["run", "--n", "4", "--config", huge], "general_square measured no row: every "
         "trial's oracle V D^(2^p) V^H overflows at p = 1"),
    ]
    for argv, message in cases:
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--out", str(out)])
        assert info.value.code == 2
        assert capsys.readouterr().err == f"pencilpow: error: {message}\n"
        assert not out.exists()
    # an empty --out is refused before os.makedirs('') can fail
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--n", "4", "--out", ""])
    assert info.value.code == 2
    assert capsys.readouterr().err == "pencilpow: error: output_dir must be a non-empty path\n"


@pytest.mark.parametrize("flags", [["--experiment", "foo"], ["--n", "8.5"]],
                         ids=["unknown-choice", "non-integer"])
def test_flag_argparse_rejects_exits_2_before_creating_the_output_dir(tmp_path, capsys, flags):
    # argparse refuses these itself: its usage text and one "pencilpow run: error:" line
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        cli.main(["run", *flags, "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pencilpow run") and "\npencilpow run: error: " in err
    assert not out.exists()


@pytest.mark.parametrize("command, runner", [
    (["run", "--experiment", "toy_identity", "--trials", "1"], "run_experiment"),
    (["bounds"], "run_bound_report"),
])
def test_out_that_is_not_a_directory_exits_2(tmp_path, capsys, monkeypatch, command, runner):
    # an existing file is refused before the computation; a path below a file
    # fails in os.makedirs after it, and takes the same one-line exit
    calls = []
    compute = getattr(cli, runner)
    monkeypatch.setattr(cli, runner, lambda config: calls.append(config) or compute(config))
    file = tmp_path / "file"
    file.write_text("kept\n")
    cases = [
        (file, 0, f"{file}: --out exists and is not a directory"),
        (file / "sub", 1, "cannot write output: "
         f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{file / 'sub'}'"),
    ]
    for out, n_calls, message in cases:
        with pytest.raises(SystemExit) as info:
            cli.main(command + ["--n", "4", "--p-max", "2", "--out", str(out)])
        assert info.value.code == 2
        assert len(calls) == n_calls
        assert tuple(capsys.readouterr()) == ("", f"pencilpow: error: {message}\n")
    assert file.read_text() == "kept\n"


@pytest.mark.parametrize("command, runner", [
    (["run", "--experiment", "toy_identity", "--trials", "1"], "run_experiment"),
    (["bounds"], "run_bound_report"),
])
def test_structured_error_from_the_computation_exits_2(tmp_path, capsys, monkeypatch,
                                                       command, runner):
    # a PencilPowError raised past the config checks takes the one refusal path too:
    # no traceback, one line, and no <out>/ (bounds --p-max 30 is a real instance)
    def fail(config):
        raise ConvergenceError("svd did not converge")

    monkeypatch.setattr(cli, runner, fail)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        cli.main(command + ["--n", "4", "--p-max", "2", "--out", str(out)])
    assert info.value.code == 2
    assert tuple(capsys.readouterr()) == ("", "pencilpow: error: svd did not converge\n")
    assert not out.exists()
