"""Report JSON round trips, sentinel encoding and timing stripping."""

import json
import math

import pytest

from lmhbrtf.report import RunReport, strip_timing


def test_default_reports_share_no_container():
    a, b = RunReport(command="x"), RunReport(command="x")
    for name in ("config", "results", "trace", "timing"):
        assert getattr(a, name) is not getattr(b, name)
        assert not getattr(b, name)


def test_roundtrip_lossless(tmp_path):
    report = RunReport(
        command="denoise",
        config={"seed": 7, "tol": 1e-4, "shape": [3, 3, 2]},
        results={"psnr": 26.020599913279625, "x_err": 1.9573e-4},
        trace=[{"iteration": 1, "fit": 0.25, "rel_change": 0.125}],
        timing={"run_s": 1.25},
    )
    path = tmp_path / "r.json"
    report.save(path)
    back = RunReport.load(path)
    assert back.as_dict() == report.as_dict()


def test_nonfinite_sentinels_are_strict_json(tmp_path):
    report = RunReport(command="metrics",
                       results={"psnr": math.inf, "neg": -math.inf})
    path = tmp_path / "r.json"
    report.save(path)
    raw = json.loads(path.read_text())  # strict parse must succeed
    assert raw["results"]["psnr"] == "+inf"
    assert raw["results"]["neg"] == "-inf"
    back = RunReport.load(path)
    assert back.results["psnr"] == math.inf
    assert back.results["neg"] == -math.inf


def test_nan_roundtrip(tmp_path):
    report = RunReport(command="x", results={"v": math.nan})
    path = tmp_path / "r.json"
    report.save(path)
    back = RunReport.load(path)
    assert math.isnan(back.results["v"])


def test_schema_version_checked(tmp_path):
    report = RunReport(command="x")
    path = tmp_path / "r.json"
    report.save(path)
    raw = json.loads(path.read_text())
    raw["schema_version"] = 99
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="schema"):
        RunReport.load(path)


def test_unserializable_report_leaves_no_file_and_keeps_an_old_one(tmp_path):
    path = tmp_path / "r.json"
    bad = RunReport(command="x", results={"when": object()})
    with pytest.raises(TypeError):
        bad.save(path)
    assert not path.exists()
    RunReport(command="x").save(path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        bad.save(path)
    assert path.read_bytes() == before


def test_strip_timing_removes_all_timing_fields():
    doc = {
        "timing": {"run_s": 1.0},
        "results": {"cells": [{"x": 1, "timing": {"generate_s": 2.0},
                               "run_s": 3.0}]},
        "kept": 5,
    }
    stripped = strip_timing(doc)
    assert stripped == {"results": {"cells": [{"x": 1}]}, "kept": 5}


def test_version_echoed():
    from lmhbrtf import __version__
    assert RunReport(command="x").version == __version__
