import warnings
import xml.etree.ElementTree as ET

import pytest

from pencilpow.errors import RankDeficientStackWarning
from pencilpow.harness import cli
from pencilpow.harness.emit import parse_csv


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
    with pytest.raises(SystemExit):
        cli.main(["run", "--config", str(cfg)])


def test_config_file_rejects_bad_value_with_location(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = toy_identity\nn = 8.0\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", str(cfg)])
    assert str(info.value).startswith(f"{cfg}:2: ")
    assert "'8.0'" in str(info.value)


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
    for line in ("spectrum = annulus", "annulus_r_lo = 0.9", "conditioning = well",
                 "trials = 1", "kernel_calls = KernelCounts(matmul=9, qr=2, inv=3)"):
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
    cfg = tmp_path / "report.cfg"
    cfg.write_text("experiment = bound_report\n")
    cases = [
        (["run", "--n", "1"], "config requires trials >= 1, n >= 2, p_max >= 1"),
        (["bounds", "--n", "1"], "config requires trials >= 1, n >= 2, p_max >= 1"),
        (["run", "--config", str(cfg)], "run_experiment cannot dispatch 'bound_report'"),
    ]
    for argv, message in cases:
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--out", str(out)])
        assert info.value.code == 2
        assert capsys.readouterr().err == f"pencilpow: error: {message}\n"
        assert not out.exists()
