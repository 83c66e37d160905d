"""Deterministic serialization: JSON formatting and CSV round trips."""

import enum
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from eternalprofile import exponents_from_beta, integrate_profile, make_params
from eternalprofile.report import (
    CSV_HEADER,
    RunReport,
    collect_versions,
    dumps,
    export_profile_csv,
    parse_profile_csv,
    write_report,
)


def test_json_keys_sorted():
    text = dumps({"zeta": 1, "alpha": 2, "mid": {"b": 1, "a": 2}})
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')
    assert text.index('"a"') < text.index('"b"')


def test_json_floats_round_trip():
    values = [1.0 / 3.0, 0.1, 2.0, -0.0, 5e-324, 1.7976931348623157e308]
    back = json.loads(dumps({"v": values}))["v"]
    assert back == values
    assert all(type(v) is float for v in back)
    assert math.copysign(1.0, back[3]) == -1.0


def test_json_special_floats():
    text = dumps({"a": float("nan"), "b": float("inf"), "c": -float("inf")})
    assert '"NaN"' in text and '"Infinity"' in text and '"-Infinity"' in text


def test_json_is_valid_and_round_trips():
    payload = {
        "f": 0.1,
        "arr": np.array([1.5, 2.5]),
        "n": np.int64(3),
        "flag": True,
        "none": None,
        "s": 'quo"te\nline',
    }
    text = dumps(payload)
    back = json.loads(text)
    assert back["arr"] == [1.5, 2.5]
    assert back["n"] == 3
    assert back["s"] == 'quo"te\nline'
    assert back["f"] == 0.1


def test_json_escapes_control_and_non_ascii():
    s = "tab\there\x01 \u03be\u2028"
    text = dumps({"s": s})
    assert text.isascii()
    assert json.loads(text)["s"] == s


class Kind(enum.Enum):
    A = "a"


@dataclass
class Record:
    kind: Kind
    values: np.ndarray
    dense: object = None


def test_json_enums_and_dataclasses():
    record = Record(Kind.A, np.array([np.nan, 1.0]), dense=lambda x: x)
    assert json.loads(dumps({"r": record})) == {
        "r": {"kind": "a", "values": ["NaN", 1.0]}}


def test_dumps_deterministic():
    payload = {"b": [1.0, 2.0], "a": {"k": 1e-300}}
    assert dumps(payload) == dumps(payload)


def test_dumps_of_a_forward_run_is_deterministic():
    # a forward run keeps its DOP853 dense solution, whose repr holds an
    # object address; dumps leaves it out like the dense evaluator
    p = make_params(2.0, 0.5, 1)
    texts = [dumps(integrate_profile(p, exponents_from_beta(p, 0.5)))
             for _ in range(2)]
    assert texts[0] == texts[1]
    data = json.loads(texts[0])
    assert "odesol" not in data and "dense" not in data


def test_dumps_rejects_a_callable():
    with pytest.raises(TypeError):
        dumps({"f": lambda x: x})


def test_write_report_writes_exactly_the_report_keys(tmp_path):
    report = RunReport(config={"m": 2.0}, mode="solve")
    path = tmp_path / "report.json"
    write_report(report, path)
    data = json.loads(path.read_text())
    assert list(data) == ["config", "mode", "results", "status", "versions"]
    assert data["mode"] == "solve"
    assert data["config"] == {"m": 2.0}


def test_collect_versions_names_dependencies():
    versions = collect_versions()
    assert {"eternalprofile", "numpy", "scipy"} <= set(versions)


def test_csv_header_and_round_trip(tmp_path, solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    path = tmp_path / "profile.csv"
    export_profile_csv(sol, path)
    first = path.read_text().splitlines()
    assert first[0] == f"# m={sol.params.m!r}"
    assert CSV_HEADER in first
    meta, cols = parse_profile_csv(path)
    assert meta["classification"] == "CandidateB"
    assert float(meta["beta"]) == sol.exps.beta
    np.testing.assert_array_equal(cols["xi"], sol.grid)
    np.testing.assert_array_equal(cols["F"], sol.F_values)
    np.testing.assert_array_equal(cols["f"], sol.f_values)


def test_csv_export_byte_identical(tmp_path, solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_profile_csv(sol, a)
    export_profile_csv(sol, b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# m=2.0\nxi,F\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        parse_profile_csv(path)
