import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pencilpow.harness.emit import (
    CSV_HEADER,
    _series_stats,
    emit_bound_csv,
    emit_csv,
    emit_svg,
    parse_csv,
    write_manifest,
)
from pencilpow.harness.experiments import BoundReportRow, ExperimentConfig, TrialRecord


def sample_records():
    return [
        TrialRecord(trial=0, p=1, err_irs=1.25e-13, err_es=3e-13,
                    kappa_a_input=42.5, kappa_ap=17.0, sigma_n_ap=0.3),
        TrialRecord(trial=0, p=2, err_irs=2.5e-13, err_es=float("nan"),
                    kappa_a_input=42.5, kappa_ap=11.0, sigma_n_ap=0.4),
        TrialRecord(trial=1, p=1, err_irs=0.125 + 2 ** -40, err_es=9e-12,
                    kappa_a_input=7.0, kappa_ap=5.0, sigma_n_ap=0.5, s_selected=6),
    ]


def test_csv_single_record(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv(sample_records()[:1], path, "toy_identity")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("toy_identity,0,1,")


def test_csv_round_trip_exact(tmp_path):
    path = tmp_path / "rt.csv"
    records = sample_records()
    emit_csv(records, path, "general_square")
    experiment, parsed = parse_csv(path)
    assert experiment == "general_square"
    assert len(parsed) == len(records)
    for orig, back in zip(records, parsed):
        for f in ("trial", "p", "s_selected"):
            assert getattr(orig, f) == getattr(back, f)
        for f in ("err_irs", "err_es", "kappa_a_input", "kappa_ap", "sigma_n_ap"):
            o, b = getattr(orig, f), getattr(back, f)
            assert (math.isnan(o) and math.isnan(b)) or o == b


def test_csv_sentinels_serialize_empty(tmp_path):
    path = tmp_path / "s.csv"
    emit_csv(sample_records(), path, "x")
    row_with_nan = path.read_text().splitlines()[2]
    cells = row_with_nan.split(",")
    assert cells[4] == ""   # NaN err_es
    assert cells[8] == ""   # absent s_selected


@pytest.mark.parametrize("line, edit", [
    (2, lambda ln: ln.rsplit(",", 1)[0]),          # a short row
    (3, lambda ln: ln + ",7"),                     # a long row
    (4, lambda ln: "other" + ln[len("x"):]),       # another experiment's row
    pytest.param(2, lambda ln: "x,0,," + ln[len("x,0,1,"):], id="empty-p"),
    pytest.param(3, lambda ln: "x,0,1,abc,,,,,", id="non-numeric-float"),
])
def test_parse_csv_refuses_a_malformed_row_with_its_location(tmp_path, line, edit):
    path = tmp_path / "bad.csv"
    emit_csv(sample_records(), path, "x")
    lines = path.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{path}:{line}: "):
        parse_csv(path)


@pytest.mark.parametrize("row, column", [
    ("x,0,,1,,,,,", "p"),
    ("x,,1,abc,,,,,", "trial"),
    ("x,0,1,abc,,,,,", "err_irs"),
])
def test_parse_csv_names_the_column_of_a_malformed_cell(tmp_path, row, column):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n{row}\n")
    with pytest.raises(ValueError, match=f"^{path}:2: column '{column}' "):
        parse_csv(path)


def test_parse_csv_refuses_a_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("experiment,trial\nx,0\n")
    with pytest.raises(ValueError, match=f"^{path}: missing or unexpected header"):
        parse_csv(path)


def test_bound_csv_cells(tmp_path):
    # NaN (a failed step) is the only empty field; +-inf are values; the
    # ratios keep 6 significant digits
    nan, inf = float("nan"), float("inf")
    rows = [
        BoundReportRow(p=1, err_irs=nan, bound_irs=inf, err_es=3.0, bound_es=1.0),
        BoundReportRow(p=2, err_irs=0.0, bound_irs=0.1, err_es=2.0, bound_es=-inf),
    ]
    path = tmp_path / "bound_report.csv"
    assert emit_bound_csv(rows, path) == path
    assert path.read_text().splitlines() == [
        "p,err_irs,bound_irs,ratio_irs,err_es,bound_es,ratio_es",
        "1,,inf,,3,1,0.333333",
        "2,0,0.10000000000000001,inf,2,-inf,-inf",
    ]


def test_csv_requires_records(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "empty.csv", "x")


def test_csv_rows_sorted(tmp_path):
    path = tmp_path / "sorted.csv"
    records = list(reversed(sample_records()))
    emit_csv(records, path, "x")
    rows = [ln.split(",")[1:3] for ln in path.read_text().splitlines()[1:]]
    assert rows == sorted(rows)


def test_svg_well_formed_with_one_polyline_per_algorithm(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg(sample_records(), path, title="demo")
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2
    classes = {p.get("class") for p in polylines}
    assert classes == {"mean-irs", "mean-es"}


def test_svg_title_escaped_as_xml_sax_escapes_it(tmp_path):
    from xml.sax.saxutils import escape

    title = "a&b<c>\"d'"
    path = tmp_path / "title.svg"
    emit_svg(sample_records(), path, title=title)
    assert f'font-size="14">{escape(title)}</text>' in path.read_text()
    assert ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}text").text == title


def test_svg_kappa_fallback(tmp_path):
    records = [
        TrialRecord(trial=0, p=p, kappa_a_input=50.0, kappa_ap=50.0 / p, sigma_n_ap=0.1)
        for p in (1, 2, 3)
    ]
    path = tmp_path / "kappa.svg"
    emit_svg(records, path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 1
    assert polylines[0].get("class") == "mean-kappa_Ap"


def test_series_stats_finite_for_huge_errors():
    # err_es of an exploding expm_compare run: squaring 1.7e288 overflows
    records = [TrialRecord(trial=t, p=3, err_es=v) for t, v in enumerate([1.7e288, 3e287, 2e-2])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(p, mean, std)] = _series_stats(records, "err_es")
    assert p == 3
    assert mean == pytest.approx((1.7e288 + 3e287 + 2e-2) / 3, rel=1e-15)
    assert math.isfinite(std)
    assert std == pytest.approx(1e288 * np.std([1.7, 0.3, 2e-290], ddof=1), rel=1e-14)


def test_svg_skips_infinite_kappa(tmp_path):
    # kappa_2(A_p) is inf where sigma_n(A_p) is exactly 0; the CSV writes that
    # cell as inf and the plot leaves the value out
    records = [
        TrialRecord(trial=t, p=p, kappa_a_input=3.0, kappa_ap=k, sigma_n_ap=0.0)
        for t, (p, k) in enumerate([(1, 1.0), (1, float("inf")), (2, 2.0), (2, 4.0)])
    ]
    path = tmp_path / "kappa.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = _series_stats(records, "kappa_ap")
        emit_svg(records, path)
    assert stats[0] == (1, 1.0, 0.0)
    assert all(math.isfinite(x) for row in stats for x in row)
    root = ET.parse(path).getroot()
    points = [el.get("points") for el in root.iter() if el.get("points") is not None]
    assert points
    assert not any("nan" in pts or "inf" in pts for pts in points)


@pytest.mark.parametrize("kappa_ap", [float("inf"), float("nan")])
def test_svg_without_finite_values_has_axes_and_no_series(tmp_path, kappa_ap):
    path = tmp_path / "empty.svg"
    emit_svg([TrialRecord(trial=0, p=1, kappa_ap=kappa_ap)], path, title="empty")
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}line")) == 2  # the two axes, no legend
    assert not root.findall(f"{ns}polyline") and not root.findall(f"{ns}polygon")
    assert "empty" in [el.text for el in root.findall(f"{ns}text")]


def test_series_stats_scaling_is_exact():
    # ordinary data gives bit-identical statistics with and without the scaling
    records = sample_records()
    vals = [r.err_irs for r in records if r.p == 1]
    [(_, mean, std), _] = _series_stats(records, "err_irs")
    assert mean == float(np.mean(vals))
    assert std == float(np.std(vals, ddof=1))


def test_manifest_contents(tmp_path):
    config = ExperimentConfig(experiment="toy_identity", n=8, trials=2, p_max=3, seed=99)
    path = tmp_path / "manifest.txt"
    write_manifest(path, config, extra={"note": "hello"})
    text = path.read_text()
    assert "seed = 99" in text
    assert "pencilpow version" in text
    assert "note = hello" in text


def test_svg_of_no_records_is_refused(tmp_path):
    path = tmp_path / "none.svg"
    with pytest.raises(ValueError, match="at least one record"):
        emit_svg([], path)
    assert not path.exists()
