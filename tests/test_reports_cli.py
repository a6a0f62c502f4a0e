import dataclasses
import json
import math
import os
import shlex
import struct
import subprocess
import sys

import numpy as np
import pytest

from disclab import (ParameterError, default_angle_grid, exact_discrepancy, generate,
                     interpolate, make_algorithm, overlap_histogram, psi_sbp,
                     enumerate_solutions, resample_suffix, run_online, search_ogp_tuples,
                     search_xi_disc, search_xi_sbp)
import disclab
from disclab.cli import build_parser, main
from disclab.experiment import parse_config, parse_seed_range, run_experiment
from disclab.philox import derive_seed
from disclab.reports import emit_report, histogram_csv, render_json


def _roundtrip_equal(a, b):
    if isinstance(a, dict):
        return set(a) == set(b) and all(_roundtrip_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_roundtrip_equal(x, y) for x, y in zip(a, b))
    return a == b


def test_render_json_roundtrip_floats():
    payload = {"a": 0.1, "b": 1.0 / 3.0, "c": 1e300, "d": 5e-324, "e": -0.0,
               "f": [1, 2.5, True, None, "s"], "g": {"h": 2 ** 60}}
    text = render_json(payload)
    back = json.loads(text)
    assert _roundtrip_equal(back, payload)


def test_render_json_nonfinite():
    # NaN and +-inf have no JSON value, at any depth; the writer used to
    # write NaN and +-Infinity
    for x in (math.inf, -math.inf, math.nan, np.float32("nan")):
        for payload in (x, {"a": [1.0, {"b": x}]}, _Holder(np.array([0.5, x]))):
            with pytest.raises(ParameterError,
                               match=f"JSON has no value for the float {float(x)!r}"):
                render_json(payload)


def test_render_json_nonfinite_names_its_field():
    # the refusal says where the value sits: dict keys and dataclass fields
    # joined by dots, list and array positions in brackets
    with pytest.raises(ParameterError, match=r"float -inf at log2_value$"):
        render_json({"value": 0.0, "log2_value": -math.inf})
    payload = {"results": [{"x": 1.0}, {"a": {"b": [2.0, math.inf]}}]}
    with pytest.raises(ParameterError, match=r"float inf at results\[1\]\.a\.b\[1\]$"):
        render_json(payload)
    with pytest.raises(ParameterError, match=r"float nan at runs\[0\]\.x\[2\]$"):
        render_json({"runs": [_Holder(np.array([0.5, 1.0, np.nan]))]})
    with pytest.raises(ParameterError, match=r"float nan at x$"):
        render_json(_Holder(math.nan))


@dataclasses.dataclass
class _Holder:
    x: object


# value -> what the writer makes of it, at any depth
_WALK_CASES = {
    "int8-1d": (np.array([1, -1, 1], np.int8), "+-+"),
    "int8-2d": (np.array([[1, -1], [-1, -1]], np.int8), ["+-", "--"]),
    "bool-array": (np.array([True, False, True]), [1, 0, 1]),
    "int64-array": (np.array([[3, -4], [5, 2**40]], np.int64), [3, -4, 5, 2**40]),
    "float-array": (np.array([0.1, -2.5, 1e300]), [0.1, -2.5, 1e300]),
    "numpy-int": (np.int16(-3), -3),
    "numpy-float": (np.float32(0.1), float(np.float32(0.1))),
    "numpy-bool": (np.bool_(True), True),
    "dataclass": (_Holder(np.array([-1, 1], np.int8)), {"x": "-+"}),
    "empty-dict": ({}, {}),
}


@pytest.mark.parametrize("case", sorted(_WALK_CASES))
def test_render_json_walks_arrays_and_dataclasses_at_any_depth(case):
    value, expected = _WALK_CASES[case]
    as_field = render_json(_Holder(value))
    assert render_json({"x": value}) == as_field == render_json({"x": expected})
    in_list = render_json(_Holder([value, value]))
    assert render_json({"x": [value, value]}) == in_list == render_json({"x": [expected] * 2})
    assert json.loads(in_list) == {"x": [expected] * 2}


def test_render_json_refuses_a_type_it_has_no_rule_for():
    assert render_json({}) == "{}"
    with pytest.raises(ParameterError, match="cannot serialize value of type"):
        render_json(object())


def test_discrepancy_result_payload_shape():
    res = exact_discrepancy(generate(2, 6, "rademacher", 4))
    payload = json.loads(render_json(res))
    assert list(payload.keys()) == ["value", "argmin", "row_sums"]
    assert isinstance(payload["argmin"], str)
    assert set(payload["argmin"]) <= {"+", "-"}
    back = json.loads(emit_report(res))
    assert back["value"] == res.value


def test_exponent_report_payload_terms_sum():
    rep = psi_sbp(0.1, 3, 0.7, 0.2)
    back = json.loads(emit_report(rep))
    assert abs(sum(back["terms"].values()) - back["value"]) < 1e-12
    assert back["scale"] == "per_n"


def test_histogram_csv_format():
    sols = enumerate_solutions(generate(2, 8, "gaussian", 3), 1.5)
    hist = overlap_histogram(sols, 5)
    text = histogram_csv(hist)
    lines = text.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 6
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    s = sols.shape[0]
    assert total == s * (s - 1) // 2


def test_parse_seed_range():
    assert parse_seed_range("3..6") == [3, 4, 5, 6]
    assert parse_seed_range([7, 9]) == [7, 9]
    assert parse_seed_range([]) == []
    assert parse_seed_range("3..3") == [3]
    assert parse_seed_range([0, 2**64 - 1]) == [0, 2**64 - 1]
    for bad in ("3-6", "3..1", "-1..2", f"0..{2**64}", [-1, 2], [2**64], [1.0], [True]):
        with pytest.raises(ParameterError):
            parse_seed_range(bad)


def test_experiment_manifest_deterministic(tmp_path):
    cfg = {"kind": "online", "alg": "greedy", "rows": 3, "cols": 24,
           "disorder": "rademacher", "seeds": "1..3"}
    m1 = run_experiment(dict(cfg), out_dir=str(tmp_path / "a"))
    m2 = run_experiment(dict(cfg), out_dir=str(tmp_path / "b"))
    assert [t["sha256"] for t in m1["tasks"]] == [t["sha256"] for t in m2["tasks"]]
    assert len(m1["tasks"]) == 3
    assert (tmp_path / "a" / "online_2.json").exists()
    man_a = (tmp_path / "a" / "manifest.json").read_text()
    man_b = (tmp_path / "b" / "manifest.json").read_text()
    assert man_a == man_b


def test_experiment_empty_seed_range(tmp_path):
    man = run_experiment({"kind": "exact", "rows": 2, "cols": 6,
                          "disorder": "gaussian", "seeds": []},
                         out_dir=str(tmp_path))
    assert man["tasks"] == []


def test_experiment_task_error_recorded(tmp_path):
    man = run_experiment({"kind": "exact", "rows": 2, "cols": 40,
                          "disorder": "gaussian", "seeds": [1]},
                         out_dir=str(tmp_path))
    assert man["tasks"][0]["status"].startswith("error:")
    assert man["tasks"][0]["file"] is None


def test_experiment_config_validation():
    with pytest.raises(ParameterError):
        parse_config({"kind": "bogus", "rows": 2, "cols": 2, "seeds": []})
    with pytest.raises(ParameterError):
        parse_config({"kind": "sbp-count", "rows": 2, "cols": 2,
                      "seeds": [], "disorder": "rademacher"})


def test_experiment_sbp_count_matches_library(tmp_path):
    man = run_experiment({"kind": "sbp-count", "rows": 3, "cols": 10,
                          "disorder": "gaussian", "kappa": 1.0, "seeds": [5]},
                         out_dir=str(tmp_path))
    data = json.loads((tmp_path / "sbp-count_5.json").read_text())
    want = enumerate_solutions(generate(3, 10, "gaussian", 5), 1.0).shape[0]
    assert data["count"] == want
    assert man["tasks"][0]["status"] == "ok"


def test_cli_gen_disc_roundtrip(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    assert main(["gen", "--rows", "3", "--cols", "8", "--disorder", "rademacher",
                 "--seed", "11", "--out", str(path)]) == 0
    assert main(["disc", "--in", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    want = exact_discrepancy(generate(3, 8, "rademacher", 11))
    assert out["value"] == want.value


def test_cli_sbp_membership(capsys):
    assert main(["sbp", "--rows", "2", "--cols", "4", "--seed", "3",
                 "--kappa", "5.0", "--sigma", "++--"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["satisfies"] in (True, False)


def test_cli_online_sweep(tmp_path):
    path = tmp_path / "res.json"
    assert main(["online", "--alg", "greedy", "--rows", "4", "--cols", "32",
                 "--disorder", "rademacher", "--seeds", "2..4",
                 "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert len(data["results"]) == 3
    assert all(set(r["sigma"]) <= {"+", "-"} for r in data["results"])


def test_cli_landscape_and_theory(tmp_path, capsys):
    assert main(["landscape", "histogram", "--rows", "2", "--cols", "8",
                 "--seed", "3", "--kappa", "1.5", "--bins", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"

    assert main(["landscape", "xi-sbp", "--rows", "3", "--cols", "10",
                 "--seed", "2", "--k", "3", "--kappa", "5.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is True

    assert main(["theory", "alpha-c", "--kappa", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["alpha_c"] - 1.8157) < 1e-3

    assert main(["theory", "ogp-params", "--C1", "1", "--c2", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 16

    assert main(["theory", "be-bound", "--length", "1.0", "--rows", "144"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] == 0.25

    assert main(["theory", "expected-count", "--n", "12", "--rows", "3",
                 "--m", "2", "--k", "4", "--kappa", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["expected_count"] > 0

    assert main(["landscape", "xi-disc", "--rows", "3", "--cols", "9",
                 "--disorder", "rademacher", "--seed", "4", "--cu", "0.04"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is False        # odd row sums, threshold below 1

    assert main(["landscape", "ogp", "--rows", "2", "--cols", "8", "--seed", "1",
                 "--m", "2", "--beta", "0.75", "--eta", "0.25", "--K", "6.0",
                 "--grid", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "found" in out

    assert main(["theory", "psi-sbp", "--delta", "0.04", "--m", "100",
                 "--alpha", "0.04", "--kappa", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "negative"

    assert main(["theory", "psi-disc", "--m", "16", "--beta", "0.9583",
                 "--eta", "0.0013", "--c", "0.0625", "--n", "1024",
                 "--rows", "256", "--K", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(sum(out["terms"].values()) - out["value"]) < 1e-9

    assert main(["theory", "cov", "--m", "4", "--beta", "0.9", "--eta", "0.01"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pd"] is True

    assert main(["theory", "box-bound", "--m", "2", "--beta", "0.5", "--eta", "0",
                 "--K", "1", "--n", "4", "--samples", "20000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mc_estimate"] <= out["bound"] + 3 * out["mc_std_error"]

    assert main(["theory", "stable-constants", "--eta", "0.4", "--L", "1",
                 "--m", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["C"] - 0.0001) < 1e-18

    assert main(["gen", "--rows", "2", "--cols", "4", "--seed", "1",
                 "--out", str(tmp_path / "raw.bin"), "--body", "raw"]) == 0
    assert main(["disc", "--in", str(tmp_path / "raw.bin")]) == 0
    json.loads(capsys.readouterr().out)


def test_cli_stability(capsys):
    assert main(["landscape", "stability", "--alg", "greedy", "--rho", "1.0",
                 "--trials", "5", "--rows", "3", "--cols", "16",
                 "--threshold", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["quantiles"]["q100"] == 0.0


def test_cli_parameter_error_exit_code(capsys):
    assert main(["sbp", "--rows", "2", "--cols", "4", "--seed", "1",
                 "--kappa", "-1.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_capacity_error_exit_code(capsys):
    assert main(["disc", "--rows", "2", "--cols", "40", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_out_of_range_seed_exit_code(capsys):
    for seeds in (f"{2**64}..{2**64}", "3..1"):
        assert main(["online", "--alg", "greedy", "--rows", "2", "--cols", "4",
                     "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["online", "--alg", "greedy", "--lambda", "0.5", "--rows", "2", "--cols", "4",
     "--seeds", "0..1"],
    ["landscape", "stability", "--alg", "greedy", "--lambda", "0.5", "--rho", "0.9",
     "--rows", "2", "--cols", "4", "--trials", "3", "--threshold", "1"]])
def test_cli_lambda_without_potential_is_one_error_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


_BOX_BOUND = ["theory", "box-bound", "--m", "2", "--beta", "0.5"]


@pytest.mark.parametrize("argv", [
    _BOX_BOUND + ["--K", "1", "--n", "0"],
    _BOX_BOUND + ["--K", "1", "--n", "-4"],
    _BOX_BOUND + ["--K", "-1", "--n", "4"],
    _BOX_BOUND + ["--K", "nan", "--n", "4"],
    _BOX_BOUND + ["--K", "1", "--n", "nan"],
    _BOX_BOUND + ["--K", "inf", "--n", "4"],
    ["online", "--alg", "potential", "--lambda", "inf", "--rows", "2", "--cols", "4",
     "--seeds", "0..0"],
    ["landscape", "stability", "--alg", "greedy", "--rho", "0.9", "--rows", "2",
     "--cols", "4", "--trials", "3", "--threshold", "nan"],
    ["landscape", "stability", "--alg", "greedy", "--rho", "0.9", "--rows", "0",
     "--cols", "8", "--threshold", "1", "--trials", "3"],
    ["landscape", "stability", "--alg", "greedy", "--rho", "0.9", "--rows", "-2",
     "--cols", "8", "--threshold", "1", "--trials", "3"],
    ["theory", "expected-count", "--n", "0", "--rows", "1", "--m", "2",
     "--hamming-delta", "0", "--K", "1"],
    ["theory", "box-bound", "--m", "0", "--beta", "0.5", "--K", "1", "--n", "4"],
    _BOX_BOUND + ["--K", "1", "--n", "4", "--eta", "nan"],
    ["theory", "alpha-c", "--kappa", "10"],
    ["theory", "alpha-c", "--kappa", "inf"],
    ["theory", "ogp-params", "--C1", "inf", "--c2", "0.5"],
    ["theory", "psi-sbp", "--delta", "0.1", "--m", "2", "--alpha", "inf", "--kappa", "1"],
    ["theory", "psi-disc", "--m", "2", "--beta", "0.5", "--eta", "0.1", "--c", "0.1",
     "--n", "inf", "--rows", "2", "--K", "1"],
    ["theory", "psi-disc", "--m", "2", "--beta", "0.5", "--eta", "0.1", "--c", "0.1",
     "--n", "100", "--rows", "2", "--K", "inf"],
    ["theory", "psi-disc", "--m", "2", "--beta", "0.5", "--eta", "0.1", "--c", "inf",
     "--n", "100", "--rows", "2", "--K", "1"],
    ["theory", "psi-sbp", "--delta", "0.1", "--m", "2", "--alpha", "1", "--kappa", "inf"],
    ["theory", "stable-constants", "--eta", "0.5", "--L", "inf", "--m", "2"],
    ["theory", "expected-count", "--n", "12", "--rows", "3", "--m", "2", "--k", "4",
     "--kappa", "inf"],
    ["theory", "be-bound", "--length", "inf", "--rows", "4"],
    ["sbp", "--rows", "2", "--cols", "8", "--kappa", "inf"],
    ["sbp", "--rows", "2", "--cols", "8", "--kappa", "inf", "--sigma", "++++++++"],
    ["landscape", "histogram", "--rows", "2", "--cols", "8", "--kappa", "inf"],
    ["landscape", "xi-sbp", "--rows", "2", "--cols", "8", "--k", "2", "--kappa", "inf"],
    ["landscape", "xi-disc", "--rows", "2", "--cols", "8", "--disorder", "rademacher",
     "--cu", "inf"],
    ["landscape", "ogp", "--rows", "2", "--cols", "8", "--beta", "0.5", "--eta", "0.1",
     "--K", "inf"],
    ["theory", "expected-count", "--n", "12", "--rows", "3", "--m", "2",
     "--hamming-delta", "4", "--K", "inf"],
    _BOX_BOUND[:-2] + ["--beta", "nan", "--K", "1", "--n", "4"],
    _BOX_BOUND[:-2] + ["--beta", "inf", "--K", "1", "--n", "4"],
    # finite input whose float64 arithmetic overflows
    ["theory", "psi-sbp", "--delta", "0.04", "--m", "3", "--alpha", "1e308",
     "--kappa", "0.1"],
    ["theory", "psi-disc", "--m", "2", "--beta", "0.5", "--eta", "0.1", "--c", "1e308",
     "--n", "1e308", "--rows", "2", "--K", "1"],
    ["theory", "psi-disc", "--m", "2", "--beta", "0.5", "--eta", "0.1", "--c", "0.1",
     "--n", "1e308", "--rows", "2", "--K", "1"],
    _BOX_BOUND + ["--K", "1e300", "--n", "1e-300"],
    _BOX_BOUND + ["--K", "1e200", "--n", "1"],
    ["theory", "stable-constants", "--eta", "1e-200", "--L", "1", "--m", "2"],
    ["theory", "stable-constants", "--eta", "1e-160", "--L", "1", "--m", "2"],
    ["theory", "expected-count", "--n", "2000", "--rows", "1", "--m", "2", "--k", "4",
     "--kappa", "10"],
    ["theory", "expected-count", "--n", "2000", "--rows", "1", "--m", "2",
     "--hamming-delta", "1000", "--K", "100"],
    # finite input whose float64 arithmetic underflows, or whose result is not finite
    ["theory", "psi-disc", "--m", "2", "--beta", "0.5", "--eta", "0.1", "--c", "0.1",
     "--n", "100", "--rows", "2", "--K", "1e-200"],
    ["theory", "expected-count", "--n", "12", "--rows", "3", "--m", "2",
     "--hamming-delta", "4", "--K", "1e-200"],
    ["theory", "be-bound", "--length", "1e308", "--rows", "1", "--p", "1e-300"],
    # perceptron membership is gaussian only; the count used to print 288 and exit 0
    ["sbp", "--rows", "3", "--cols", "10", "--disorder", "rademacher", "--kappa", "1"],
    # and so is the solution set: the histogram used to pair 41,328 and exit 0
    ["landscape", "histogram", "--rows", "3", "--cols", "10", "--disorder", "rademacher",
     "--kappa", "1", "--bins", "4"],
    # 16 C1 used to overflow in math.ceil, a traceback and exit 1
    ["theory", "ogp-params", "--C1", "1e308", "--c2", "0.5"]])
def test_cli_non_finite_or_non_positive_parameters_are_one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["disc"],
    ["disc", "--rows", "3"],
    ["landscape", "histogram", "--rows", "2", "--cols", "8", "--kappa", "1e-9"],
    ["theory", "expected-count", "--n", "12", "--rows", "3", "--m", "2",
     "--hamming-delta", "4"],
    ["theory", "expected-count", "--n", "12", "--rows", "3", "--m", "2", "--k", "4"]])
def test_cli_incomplete_requests_are_one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")            # a numpy overflow warning fails the test
@pytest.mark.parametrize("argv", [
    ["online", "--alg", "potential", "--lambda", "1e308", "--rows", "3", "--cols", "6",
     "--seeds", "1..1"],
    ["landscape", "stability", "--alg", "potential", "--lambda", "1e308", "--rho", "0.9",
     "--rows", "3", "--cols", "6", "--trials", "3", "--threshold", "1"]])
def test_cli_lambda_that_overflows_float64_is_one_error_line(argv, capsys):
    # it used to print numpy warnings and sign by NaN comparisons, exit 0
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "overflow float64" in captured.err


def test_cli_expected_count_whose_box_probability_underflows_is_zero(capsys):
    # log2 of the underflowed probability used to raise a math domain error
    assert disclab.equicorrelated_box_probability(2, 1.0 - 4 / 12, 1e-200) == 0.0
    assert main(["theory", "expected-count", "--n", "12", "--rows", "3", "--m", "2",
                 "--k", "4", "--kappa", "1e-200"]) == 0
    assert '"expected_count": 0\n' in capsys.readouterr().out


def test_cli_ogp_params_takes_no_K(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theory", "ogp-params", "--C1", "2", "--c2", "0.5", "--K", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --K 1" in capsys.readouterr().err


def test_cli_experiment(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "online", "alg": "random", "rows": 2,
                               "cols": 16, "disorder": "gaussian",
                               "seeds": "1..2", "out_dir": str(tmp_path / "out")}))
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "2/2 tasks ok" in capsys.readouterr().out
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("case", ["gen", "disc", "experiment-under-file",
                                  "experiment-is-file"])
def test_cli_unwritable_output_path_is_one_error_line(case, tmp_path, capsys):
    # each used to end in an OSError traceback
    regular = tmp_path / "file"
    regular.write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "online", "rows": 2, "cols": 4, "seeds": "0..1"}))
    target = {"gen": tmp_path / "missing" / "x", "disc": tmp_path / "missing" / "x.json",
              "experiment-under-file": regular / "sub", "experiment-is-file": regular}[case]
    argv = {"gen": ["gen", "--rows", "2", "--cols", "4", "--out", str(target)],
            "disc": ["disc", "--rows", "2", "--cols", "4", "--out", str(target)]}.get(
        case, ["experiment", "--config", str(cfg), "--out-dir", str(target)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(disclab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, disclab.cli; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_successive_calls_get_fresh_namespaces(capsys):
    # the parser is built once per process; one call's flags must not leak
    argv = ["sbp", "--rows", "2", "--cols", "6", "--seed", "3", "--kappa", "2.0"]
    assert main(argv + ["--list"]) == 0
    assert "solutions" in json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    assert "solutions" not in json.loads(capsys.readouterr().out)


def _raw_header(rows, cols, disorder="gaussian"):
    header = {"rows": rows, "cols": cols, "disorder": disorder, "seed": 1, "body": "raw"}
    return json.dumps(header).encode("ascii") + b"\n"


BAD_INSTANCE_FILES = {
    "missing": None,
    "one-byte": b"x",
    "cut-header": _raw_header(2, 3)[:17],
    "missing-keys": b'{"rows": 2, "cols": 3}\n1,2,3\n4,5,6\n',
    "short-raw-body": _raw_header(2, 3) + b"\0" * 47,
    "long-raw-body": _raw_header(2, 3) + b"\0" * 61,
    "ragged-csv": (b'{"rows": 2, "cols": 3, "disorder": "rademacher", "seed": 1, '
                   b'"body": "csv"}\n1,-1,1\n-1,1\n'),
    "bernoulli-without-p": (b'{"rows": 2, "cols": 3, "disorder": "bernoulli", "seed": 1, '
                            b'"body": "csv"}\n0,1,1\n1,0,0\n'),
    "rademacher-with-p": (b'{"rows": 2, "cols": 3, "disorder": "rademacher", "p": 0.5, '
                          b'"seed": 1, "body": "csv"}\n1,-1,1\n-1,1,1\n'),
    # a rademacher file holds only -1 and +1, a bernoulli file only 0 and 1
    "int64-overflow-row": _raw_header(1, 5, "rademacher") + struct.pack(
        "<5d", 3e18, 3e18, 3e18, 3e18, 1),
    "integer-raw-body-holds-half": _raw_header(1, 3, "rademacher") + struct.pack(
        "<3d", 1.0, 0.5, -1.0),
    "rademacher-csv-of-fives": (b'{"rows": 1, "cols": 12, "disorder": "rademacher", '
                                b'"seed": 1, "body": "csv"}\n' + b",".join([b"5"] * 12)
                                + b"\n"),
    "bernoulli-csv-holds-minus-one": (b'{"rows": 2, "cols": 3, "disorder": "bernoulli", '
                                      b'"p": 0.5, "seed": 1, "body": "csv"}\n'
                                      b'0,1,1\n1,-1,0\n'),
    # a gaussian file holds finite numbers only
    "gaussian-csv-nan-inf": (b'{"rows": 1, "cols": 3, "disorder": "gaussian", "seed": 1, '
                             b'"body": "csv"}\nnan,1.0,inf\n'),
    "gaussian-raw-nan": _raw_header(1, 3) + struct.pack("<3d", 0.5, math.nan, -1.0),
    "header-list": b'[2, 3]\n1,2,3\n4,5,6\n',
    "body-xml": (b'{"rows": 1, "cols": 2, "disorder": "rademacher", "seed": 1, '
                 b'"body": "xml"}\n1,-1\n'),
    "csv-not-ascii": (b'{"rows": 1, "cols": 2, "disorder": "gaussian", "seed": 1, '
                      b'"body": "csv"}\n0.5,\xb51\n'),
    "csv-too-few-rows": (b'{"rows": 2, "cols": 2, "disorder": "gaussian", "seed": 1, '
                         b'"body": "csv"}\n0.5,1\n'),
    "csv-value-does-not-parse": (b'{"rows": 1, "cols": 2, "disorder": "gaussian", '
                                 b'"seed": 1, "body": "csv"}\n0.5,x\n'),
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCE_FILES))
def test_cli_malformed_instance_file_is_one_error_line(case, tmp_path, capsys):
    path = tmp_path / "inst.txt"
    if BAD_INSTANCE_FILES[case] is not None:
        path.write_bytes(BAD_INSTANCE_FILES[case])
    for command in (["disc"], ["landscape", "xi-disc"]):
        assert main([*command, "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_load_instance_raises_instance_format_error(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_bytes(BAD_INSTANCE_FILES["short-raw-body"])
    with pytest.raises(disclab.InstanceFormatError):
        disclab.load_instance(path)
    # trailing bytes used to be ignored
    path.write_bytes(BAD_INSTANCE_FILES["long-raw-body"])
    with pytest.raises(disclab.InstanceFormatError, match="holds 61 bytes.* need 48"):
        disclab.load_instance(path)
    path.write_bytes(_raw_header(2, 3) + b"\0" * 48)
    assert disclab.load_instance(path).entries.shape == (2, 3)


def test_experiment_rejects_unknown_config_keys(tmp_path, capsys):
    with pytest.raises(ParameterError, match="bogus"):
        parse_config({"kind": "exact", "rows": 2, "cols": 6, "seeds": [1], "bogus": 1})
    with pytest.raises(ParameterError, match="rows, cols"):
        parse_config({"kind": "exact", "seeds": [1]})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "exact", "rows": 2, "cols": 6, "seeds": [1, 2],
                               "bogus": 1}))
    assert main(["experiment", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, key, value", [
    ("exact", "kappa", 0.1), ("exact", "alg", "potential"), ("exact", "lam", 0.5),
    ("sbp-count", "alg", "greedy"), ("sbp-count", "lam", 0.5), ("online", "max_n", 3)])
def test_experiment_rejects_keys_its_kind_ignores(kind, key, value):
    raw = {"kind": kind, "rows": 2, "cols": 6, "seeds": [1], key: value}
    if kind == "sbp-count":
        raw["kappa"] = 0.5
    with pytest.raises(ParameterError, match=f"does not use {key}"):
        parse_config(raw)


def test_experiment_online_uses_alg_lam_and_kappa():
    cfg = parse_config({"kind": "online", "rows": 2, "cols": 6, "seeds": [1],
                        "alg": "potential", "lam": 0.5, "kappa": 0.6})
    assert (cfg["alg"], cfg["lam"], cfg["kappa"]) == ("potential", 0.5, 0.6)


@pytest.mark.parametrize("mode, disorder, bound", [
    ("xi-sbp", "gaussian", ["--kappa", "1.0"]),
    ("xi-disc", "rademacher", ["--cu", "1.0"])])
def test_cli_xi_default_seed_and_instance_file(mode, disorder, bound, tmp_path, capsys):
    shape = ["--rows", "4", "--cols", "12", "--disorder", disorder]
    search = ["landscape", mode, "--k", "4", *bound]
    assert main(search + shape + ["--seed", "0"]) == 0
    want = capsys.readouterr().out
    assert json.loads(want)["found"] is True
    assert main(search + shape) == 0                # --seed defaults to 0
    assert capsys.readouterr().out == want
    path = tmp_path / "inst.txt"
    assert main(["gen", *shape, "--seed", "0", "--out", str(path)]) == 0
    assert main(search + ["--in", str(path)]) == 0
    assert capsys.readouterr().out == want


def _xi_sbp_from_documented_seeds():
    base = generate(4, 12, "gaussian", 9)
    members = resample_suffix(base, 4, 3, [derive_seed(9, i, 1) for i in (1, 2)])
    cert = search_xi_sbp(members, 4, 1.0)
    assert cert is not None
    return emit_report(cert)


def _xi_disc_from_documented_seeds():
    base = generate(4, 12, "rademacher", 9)
    members = resample_suffix(base, 4, 3, [derive_seed(9, i, 1) for i in (1, 2)])
    cert = search_xi_disc(members, 4, 1.0)
    assert cert is not None
    return emit_report(cert)


def _ogp_from_documented_seeds():
    base = generate(3, 10, "gaussian", 9)
    fresh = [generate(3, 10, "gaussian", derive_seed(9, i, 2)) for i in (0, 1)]
    cert = search_ogp_tuples(base, fresh, default_angle_grid(4), (0.5, 0.75, 1.5, 2))
    assert cert is not None
    return emit_report(cert)


def _stability_from_documented_seeds():
    # the per-trial columns; the statistics are functions of them
    tau, d_h, fro, ok = math.acos(0.9), [], [], []
    for t in range(5):
        base = generate(3, 16, "gaussian", derive_seed(9, t, 0))
        pert = interpolate(base, generate(3, 16, "gaussian", derive_seed(9, t, 1)), tau)
        runs = [run_online(make_algorithm("greedy", None), inst, omega=derive_seed(9, t, 2))
                for inst in (base, pert)]
        d_h.append(int(np.count_nonzero(runs[0].sigma != runs[1].sigma)))
        fro.append(float(np.linalg.norm(base.entries - pert.entries)))
        ok.append([run.value <= 1.5 for run in runs])
    return {"success_rate": float(np.mean([o[0] for o in ok])),
            "success_rate_perturbed": float(np.mean([o[1] for o in ok])),
            "d_hamming": d_h, "frobenius": fro}


@pytest.mark.parametrize("argv, rebuild", [
    (["xi-sbp", "--rows", "4", "--cols", "12", "--seed", "9", "--k", "4", "--m", "3",
      "--kappa", "1.0"], _xi_sbp_from_documented_seeds),
    (["xi-disc", "--rows", "4", "--cols", "12", "--disorder", "rademacher", "--seed", "9",
      "--k", "4", "--m", "3", "--cu", "1.0"], _xi_disc_from_documented_seeds),
    (["ogp", "--rows", "3", "--cols", "10", "--seed", "9", "--beta", "0.75", "--eta", "0.25",
      "--K", "1.5", "--grid", "4"], _ogp_from_documented_seeds),
    (["stability", "--rho", "0.9", "--trials", "5", "--rows", "3", "--cols", "16",
      "--threshold", "1.5", "--seed", "9"], _stability_from_documented_seeds)],
    ids=["xi-sbp", "xi-disc", "ogp", "stability"])
def test_cli_ensemble_output_rebuilds_from_the_documented_seeds(argv, rebuild, capsys):
    # README: member i >= 1 of an xi ensemble redraws its suffix from
    # derive_seed(seed, i, 1), ogp partner i is derive_seed(seed, i, 2), and
    # stability trial t draws derive_seed(seed, t, 0), (seed, t, 1) and aux
    # seed (seed, t, 2); library calls on those seeds give the command's output
    assert main(["landscape", *argv]) == 0
    out = capsys.readouterr().out
    want = rebuild()
    if isinstance(want, str):
        assert out == want
    else:
        got = json.loads(out)
        assert {key: got[key] for key in want} == want


_GOOD_CONFIG = {"kind": "exact", "rows": 2, "cols": 6, "seeds": [1, 2]}
_ONLINE_CONFIG = {"kind": "online", "rows": 2, "cols": 6, "seeds": [1, 2]}
BAD_CONFIGS = {
    "missing": None,
    "not-json": "{",
    "list": "[1, 2]",
    "rows-string": json.dumps({**_GOOD_CONFIG, "rows": "3"}),
    "rows-float": json.dumps({**_GOOD_CONFIG, "rows": 3.5}),
    "seeds-int": json.dumps({**_GOOD_CONFIG, "seeds": 5}),
    "seeds-not-a-range": json.dumps({**_GOOD_CONFIG, "seeds": "a..b"}),
    "exact-with-kappa": json.dumps({**_GOOD_CONFIG, "kappa": 0.1}),
    "gaussian-with-p": json.dumps({**_GOOD_CONFIG, "disorder": "gaussian", "p": 0.3}),
    "seeds-backwards": json.dumps({**_GOOD_CONFIG, "seeds": "3..1"}),
    "seeds-out-of-range": json.dumps({**_GOOD_CONFIG, "seeds": [-1, 2**64]}),
    "online-with-max-n": json.dumps({**_ONLINE_CONFIG, "max_n": 3}),
    "random-with-lam": json.dumps({**_ONLINE_CONFIG, "alg": "random", "lam": 0.5}),
    "potential-negative-lam": json.dumps({**_ONLINE_CONFIG, "alg": "potential", "lam": -1}),
    "online-nan-kappa": json.dumps({**_ONLINE_CONFIG, "kappa": math.nan}),
    "online-negative-kappa": json.dumps({**_ONLINE_CONFIG, "kappa": -1.0}),
    "sbp-count-infinite-kappa": json.dumps({**_GOOD_CONFIG, "kind": "sbp-count",
                                            "kappa": math.inf}),
    # it used to list exact_1.json twice in the manifest, over one file
    "seeds-repeated": json.dumps({**_GOOD_CONFIG, "seeds": [1, 1]}),
    "max-n-float": json.dumps({**_GOOD_CONFIG, "max_n": 3.5}),
    "lam-string": json.dumps({**_ONLINE_CONFIG, "alg": "potential", "lam": "x"}),
    "out-dir-int": json.dumps({**_GOOD_CONFIG, "out_dir": 5}),
    "sbp-count-without-kappa": json.dumps({**_GOOD_CONFIG, "kind": "sbp-count"}),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_cli_bad_experiment_config_is_one_error_line(case, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if BAD_CONFIGS[case] is not None:
        cfg.write_text(BAD_CONFIGS[case])
    assert main(["experiment", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_cov_eta_vec_must_be_numbers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theory", "cov", "--m", "3", "--beta", "0.9", "--eta", "0.1",
              "--eta-vec", "0.1,x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("disclab theory cov: error: argument --eta-vec")


def _readme_cli_examples() -> list:
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme.split("## CLI examples", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("disclab ")]


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert len(examples) >= 19          # one per leaf subcommand
    for argv in examples:
        args = build_parser().parse_args(argv)
        assert callable(args.task), argv


def _refuse_constant(token):
    raise ValueError(f"non-JSON token {token}")


def _readme_sweep_config() -> dict:
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme.split("A sweep config is a JSON object", 1)[1]
    return json.loads(block.split("```json", 1)[1].split("```", 1)[0])


def test_readme_cli_examples_run_and_print_json(tmp_path, monkeypatch, capsys):
    # every example, in the README's order, where its files are: gen writes
    # the inst.txt that disc reads, and the sweep reads the README's config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(json.dumps(_readme_sweep_config()))
    examples = _readme_cli_examples()
    assert len(examples) == 19          # one per leaf subcommand
    for argv in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--out" in argv:
            assert out == "", argv
            path = argv[argv.index("--out") + 1]
            if path.endswith(".json"):
                json.loads(open(path).read(), parse_constant=_refuse_constant)
        elif argv[:2] == ["landscape", "histogram"]:
            assert out.startswith("bin_lo,bin_hi,count\n"), argv
        elif argv[0] == "experiment":
            assert out == "50/50 tasks ok; manifest written\n"
        else:
            json.loads(out, parse_constant=_refuse_constant)


def test_readme_module_table_names_every_module():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    table = readme.split("## What is in the box", 1)[1].split("\n## ", 1)[0]
    modules = sorted(name[:-3] for name in os.listdir(os.path.dirname(disclab.__file__))
                     if name.endswith(".py") and name != "__init__.py")
    assert [m for m in modules if f"`disclab.{m}`" not in table] == []


def test_readme_sweep_config_parses():
    cfg = parse_config(_readme_sweep_config())
    assert cfg["kind"] == "online" and cfg["seeds"]
