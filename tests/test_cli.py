import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral import cli, verify
from psi_umbral.cli import main
from psi_umbral.errors import JobSpecError
from psi_umbral.exprparse import MAX_NESTING, OperatorContext, parse_operator
from test_acceptance import _solve_with_x_in_p3


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_job(capsys, tmp_path, command, keys, *argv):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(dict(keys, command=command)))
    return run(capsys, command, "--job", str(job), *argv)


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "--cap", "4", "--psi", "q:2")
    assert code == 0
    assert err == ""
    assert "15" in out          # the weight of 4 at q = 2
    assert "21" in out          # 3-factorial: 1 * 3 * 7
    assert "binomial triangle" in out


def test_basic_text_golden(capsys):
    code, out, _ = run(capsys, "basic", "--op", "Delta", "--n", "4")
    assert code == 0
    assert "x^4 - 6*x^3 + 11*x^2 - 6*x" in out
    assert "closed form ok" in out


def test_basic_json(capsys):
    code, out, _ = run(capsys, "basic", "--op", "Delta", "--n", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form_agrees"] is True
    assert doc["polys"][2] == ["0", "-1", "1"]


def test_basic_triangular_only_note(capsys):
    # q-dilated difference composed with X*Dpsi is degree-preserving, so use
    # an operator that lowers degree but is not shift-invariant
    code, out, _ = run(capsys, "basic", "--op", "D + D0*D0", "--n", "3")
    assert code == 0
    assert "triangular solve only" in out


def test_basic_not_lowering_is_a_computation_failure(capsys):
    code, _, err = run(capsys, "basic", "--op", "X", "--n", "3")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (("detect", "--op", "0", "--cap", "4"),
     "error: base image of x^1 is zero, expected degree 0\n"),
    (("basic", "--op", "Dpsi^2", "--n", "2"),
     "error: image of x^1 is zero, expected degree 0\n"),
])
def test_zero_image_is_named_without_a_degree_sentinel(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == message
    assert "inf" not in err


def test_basic_at_cap_zero_reads_past_the_table(capsys):
    # a delta operator needs the image of x, which a cap-0 table lacks
    code, _, err = run(capsys, "basic", "--op", "Dpsi", "--n", "0",
                       "--cap", "0")
    assert code == 1
    assert err == "error: operator table stops at degree 0, image of x^1 requested\n"


def test_basic_at_a_big_cap_prints_the_small_cap_bytes(capsys):
    # p_0..p_3 read only the indicator's first terms, so a cap of 300 under
    # q = 1/2, whose factorials run to thousands of digits, prints what a
    # cap of 64 prints
    argv = ("basic", "--op", "Delta", "--psi", "q:1/2", "--n", "3")
    small = run(capsys, *argv, "--cap", "64")
    assert small[0] == 0 and "p_3" in small[1]
    assert run(capsys, *argv, "--cap", "300") == small


def test_expand_with_conjugation(capsys):
    code, out, _ = run(capsys, "expand", "--t", "X*D", "--q", "D",
                       "--lambda", "1,1/2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reconstructs"] is True
    assert doc["conjugation"]["ok"] is True
    assert len(doc["conjugation"]["samples"]) == 2


def test_detect_accepts_series(capsys):
    code, out, _ = run(capsys, "detect", "--op", "D*X*D")
    assert code == 0
    assert "is a series" in out
    assert "1, 4, 9" in out


def test_detect_rejects_with_exit_one(capsys):
    code, out, _ = run(capsys, "detect", "--op", "1/2*D*X*D - 1/3*D^3")
    assert code == 1
    assert "NOT" in out
    assert "n=4, k=3" in out


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ghw", "--cap", "6")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert ", 0 failed" in out


def test_verify_all_is_every_suite_in_order(capsys):
    code, out, _ = run(capsys, "verify", "--cap", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    singles = []
    for suite in verify.SUITES:
        code, out, _ = run(capsys, "verify", "--suite", suite, "--cap", "6",
                           "--format", "json")
        assert code == 0
        singles.extend(json.loads(out)["rows"])
    assert len(rows) == 148 and rows == singles


def test_unknown_suite_is_a_job_spec_error_at_the_suite():
    # the error a job file with "suite": "nope" gets from its validator
    with pytest.raises(JobSpecError) as err:
        verify.run_suite("nope", 6)
    assert err.value.to_json() == {
        "code": "job_spec", "details": {"pointer": "/suite"},
        "message": "unknown suite 'nope' (have: ghw, binomial, rodrigues, "
                   "expansion, leibniz, integration, poisson, special)"}


SMALL_CAP_ERROR = {
    "code": "job_spec", "details": {"pointer": "/cap"},
    "message": "verify needs cap at least 6 (counterexample witnesses live "
               "at degree 4)"}


@pytest.mark.parametrize("cap", range(verify.MIN_CAP))
def test_the_suites_refuse_a_cap_below_the_floor(cap):
    for entry in [verify.run_all] + [partial(verify.run_suite, name)
                                     for name in verify.SUITES]:
        with pytest.raises(JobSpecError) as err:
            entry(cap)
        assert err.value.to_json() == SMALL_CAP_ERROR


def test_the_suites_pass_at_the_floor():
    assert verify.MIN_CAP == 6
    groups = verify.run_all(verify.MIN_CAP)
    assert [name for name, _ in groups] == list(verify.SUITES)
    assert all(row.passed for _, rows in groups for row in rows)


def test_verify_rejects_small_cap(capsys):
    code, _, err = run(capsys, "verify", "--cap", "4")
    assert code == 2
    assert "at least 6" in err


SMALL_VERIFY_CAP = ("verify needs --cap at least 6 (counterexample witnesses "
                    "live at degree 4)")


def test_verify_cap_floor_points_at_the_flag_or_the_job_key(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--suite", "ghw", "--cap", "4")
    assert (code, out, err) == (2, "", "error: %s\n" % SMALL_VERIFY_CAP)
    code, out, err = run(capsys, "verify", "--suite", "ghw", "--cap", "4",
                         "--format", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "job_spec", "message": SMALL_VERIFY_CAP,
                               "details": {"pointer": "--cap"}}
    code, out, err = run_job(capsys, tmp_path, "verify", {"cap": 4},
                             "--format", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "job_spec", "message": SMALL_VERIFY_CAP,
                               "details": {"pointer": "/cap"}}


def test_integrate_q(capsys):
    code, out, _ = run(capsys, "integrate", "--kind", "q", "--q", "2",
                       "--poly", "0,0,1")
    assert code == 0
    assert "1/7*x^3" in out
    assert "yes" in out


def test_integrate_missing_poly(capsys):
    code, _, err = run(capsys, "integrate")
    assert code == 2
    assert "--poly" in err


def test_translate_q_zero(capsys):
    code, out, _ = run(capsys, "translate", "--psi", "q:0", "--y", "1",
                       "--poly", "0,0,1")
    assert code == 0
    assert "x^2 + x + 1" in out


def test_csv_has_header(capsys):
    code, out, _ = run(capsys, "translate", "--poly", "0,1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "input,y,result"


def test_job_file(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "translate", "cap": 8, "psi": {"kind": "q", "q": "0"},
        "y": "1", "poly": ["0", "0", "1"]}))
    code, out, _ = run(capsys, "translate", "--job", str(job))
    assert code == 0
    assert "x^2 + x + 1" in out


def test_job_conflicts_with_flags(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "translate", "poly": ["0", "1"]}))
    code, _, err = run(capsys, "translate", "--job", str(job), "--y", "2")
    assert code == 2
    assert "--y" in err


def test_job_command_mismatch(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "table"}))
    code, _, err = run(capsys, "detect", "--job", str(job))
    assert code == 2
    assert "table" in err


def test_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("PSI_UMBRAL_CAP", "5")
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "cap 5" in out


def test_cap_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("PSI_UMBRAL_CAP", "many")
    code, _, err = run(capsys, "table")
    assert code == 2
    assert "PSI_UMBRAL_CAP" in err


def test_cap_env_negative(capsys, monkeypatch):
    monkeypatch.setenv("PSI_UMBRAL_CAP", "-1")
    code, _, err = run(capsys, "table")
    assert code == 2
    assert err == "error: PSI_UMBRAL_CAP must be nonnegative\n"


def test_cap_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("PSI_UMBRAL_CAP", "5")
    code, out, _ = run(capsys, "table", "--cap", "3")
    assert code == 0
    assert "cap 3" in out


def test_bad_psi_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--psi", "q:1")
    assert code == 2
    assert "q = 1" in err


def test_short_custom_psi_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--cap", "8", "--psi", "custom:1,2")
    assert code == 2
    assert "inadmissible" in err


def test_json_error_report(capsys):
    code, _, err = run(capsys, "detect", "--op", "D +", "--format", "json")
    assert code == 2
    doc = json.loads(err)
    assert doc["code"] == "parse"


def test_deep_nesting_is_a_usage_error(capsys):
    op = "(" * 300 + "D" + ")" * 300
    code, out, err = run(capsys, "detect", "--op", op, "--format", "json")
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["code"] == "parse"
    assert doc["details"]["position"] == str(MAX_NESTING)


@pytest.mark.parametrize("flags, keys, pointer", [
    (["--kind", "q", "--q", "1", "--poly", "1,2"],
     {"kind": "q", "q": "1", "poly": ["1", "2"]}, "/q"),
    (["--kind", "r", "--q", "1", "--r-num=-1,1", "--r-den", "1", "--poly", "1"],
     {"kind": "r", "q": "1", "r_num": ["-1", "1"], "r_den": ["1"],
      "poly": ["1"]}, "/r_num"),
], ids=["q", "r"])
def test_integrate_inadmissible_weights_exit_two(capsys, tmp_path, flags, keys,
                                                  pointer):
    flag_run = run(capsys, "integrate", *flags, "--format", "json")
    job_run = run_job(capsys, tmp_path, "integrate", keys, "--format", "json")
    assert flag_run == job_run
    code, _, err = flag_run
    assert code == 2
    assert json.loads(err)["details"]["pointer"] == pointer
    assert "inadmissible" in err


# One bad value per parameter kind, given once as flags and once as a job.
PARITY_CASES = [
    ("basic", ["--n", "-1"], {"n": -1}),
    ("basic", ["--formula", "9"], {"formula": 9}),
    ("translate", ["--poly", "1,x"], {"poly": ["1", "x"]}),
    ("translate", ["--poly", "1", "--y", "y"], {"poly": ["1"], "y": "y"}),
    ("expand", ["--t", "X*D", "--lambda", "x"],
     {"t": "X*D", "lambda_samples": ["x"]}),
    ("detect", ["--op", "D +"], {"op": "D +"}),
    ("detect", [], {}),
]


@pytest.mark.parametrize("command, flags, keys", PARITY_CASES,
                         ids=["n", "formula", "poly", "y", "lambda", "op",
                              "required"])
def test_flag_and_job_routes_report_the_same_error(capsys, tmp_path, command,
                                                   flags, keys):
    flag_run = run(capsys, command, *flags, "--format", "json")
    job_run = run_job(capsys, tmp_path, command, keys, "--format", "json")
    assert flag_run[0] == 2
    assert flag_run == job_run


def test_verify_takes_no_weights(capsys, tmp_path):
    # argparse rejects the flag before any validator sees it, so the two
    # messages differ in wording; both refuse with exit 2 and name psi
    with pytest.raises(SystemExit) as info:
        main(["verify", "--psi", "classical", "--cap", "6"])
    assert info.value.code == 2
    assert "--psi" in capsys.readouterr().err
    code, _, err = run_job(capsys, tmp_path, "verify",
                           {"cap": 6, "psi": {"kind": "classical"}},
                           "--format", "json")
    assert code == 2
    assert json.loads(err)["details"]["pointer"] == "/psi"


# Where an argparse error points: the job key of a schema parameter or of
# the command, as the flag route's own checks report it, or else the flag.
ARGPARSE_POINTERS = {"--suite": "/suite", "--n": "/n",
                     "--lambda": "/lambda_samples", "--psi": "--psi",
                     "--cap": "--cap", "--format": "--format", "--job": "--job",
                     "--form": "--form", "--formula": "/formula",
                     "command": "/command"}


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--suite", "nope", "--format", "json"], "--suite"),
    (["basic", "--n", "abc", "--format", "json"], "--n"),
    (["basic", "--n=abc", "--format=json"], "--n"),
    (["verify", "--psi", "classical", "--format", "json"], "--psi"),
    (["expand", "--format", "json", "--lambda"], "--lambda"),
    (["basic", "--cap", "x", "--format", "json"], "--cap"),
    (["table", "--format=json", "--format", "xml"], "--format"),
    (["table", "--format", "json", "--job"], "--job"),
    (["bogus", "--format", "json"], "command"),
    # an ambiguous prefix points at the option as typed
    (["basic", "--form", "2", "--format", "json"], "--form"),
    (["basic", "--form=2", "--format", "json"], "--form"),
    # a command's flag before the command is refused by name
    (["--format", "json", "table"], "--format"),
    (["--format=json", "table"], "--format"),
    (["--format", "json"], "--format"),
    (["--cap", "6", "table", "--format", "json"], "--cap"),
    (["--n", "3", "basic", "--format", "json"], "--n"),
    # a unique prefix of one reads like the flag; a prefix of several is
    # the ambiguous option, never the command
    (["--ca", "6", "table", "--format", "json"], "--cap"),
    (["--ca=6", "table", "--format", "json"], "--cap"),
    (["--formu", "2", "basic", "--format=json"], "--formula"),
    (["--form", "json", "table", "--format", "json"], "--form"),
    (["--form=json", "table", "--format", "json"], "--form"),
    # a unique prefix of --format asks for JSON as the flag does
    (["basic", "--forma", "json", "--cap", "x"], "--cap"),
    (["basic", "--forma=json", "--cap", "x"], "--cap"),
    (["table", "--fo", "json", "--cap", "x"], "--cap"),
])
def test_argparse_errors_arrive_as_json(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["code"] == "job_spec"
    assert flag in doc["message"]
    assert doc["details"]["pointer"] == ARGPARSE_POINTERS[flag]



def test_argparse_errors_in_text_mode_keep_the_usage_text(capsys,
                                                          monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    with pytest.raises(SystemExit) as info:
        main(["table", "--format", "xml", "--cap", "6"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: psi-umbral table [-h] [--cap CAP] [--psi PSI]\n"
        "                        [--format {text,json,csv}] [--job JOB]\n"
        "psi-umbral table: error: argument --format: invalid choice: 'xml' "
        "(choose from 'text', 'json', 'csv')\n")
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nope"])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: psi-umbral verify")


def test_a_flag_before_the_command_is_a_usage_error(capsys):
    for argv in (["--format", "text", "table"], ["--job", "job.json"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "psi-umbral: error: argument %s: give it after the command\n"
            % argv[0])
    with pytest.raises(SystemExit) as info:
        main(["--help", "--format", "json"])
    assert info.value.code == 0


@pytest.mark.parametrize("argv,message", [
    (["--ca", "6", "table"], "argument --cap: give it after the command"),
    (["--ca=6", "table"], "argument --cap: give it after the command"),
    (["--form", "json", "table"],
     "ambiguous option: --form could match --format, --formula"),
    (["--form=json", "table"],
     "ambiguous option: --form=json could match --format, --formula"),
])
def test_a_flag_prefix_before_the_command_is_a_usage_error(capsys, argv,
                                                           message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("psi-umbral: error: %s\n" % message)
    assert "invalid choice" not in err


@pytest.mark.parametrize("argv,flags", [
    (["--=x", "table"], "--cap, --format, --formula, --help, --job, --kind, "
                        "--lambda, --n, --op, --poly, --psi, --q, --r-den, "
                        "--r-num, --suite, --t, --y"),
    (["table", "--=x"], "--help, --cap, --psi, --format, --job"),
])
def test_a_bare_double_dash_prefix_is_ambiguous_on_either_side(capsys, argv,
                                                               flags):
    # "--" abbreviates every flag, --help among them, before the command
    # as after it
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: ambiguous option: --=x could match %s\n" % flags)


def test_a_prefix_of_a_top_level_option_stays_that_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--he"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: psi-umbral")
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == out


def invalid_command(value):
    return ("argument command: invalid choice: %r (choose from 'basic', "
            "'expand', 'detect', 'verify', 'integrate', 'translate', 'table')"
            % value)


@pytest.mark.parametrize("argv,message", [
    (["--zz", "3", "basic"], "unrecognized arguments: --zz"),
    (["--zz", "basic"], "unrecognized arguments: --zz"),
    (["--zz=3", "basic"], "unrecognized arguments: --zz=3"),
    (["--"], "the following arguments are required: command"),
    (["-x", "3", "basic"], "unrecognized arguments: -x"),
    (["-x=3", "basic"], "unrecognized arguments: -x=3"),
    # after a leading "--", the next argument is the command
    (["--", "-x", "3", "basic"], invalid_command("-x")),
    (["--", "-h"], invalid_command("-h")),
    # -h takes no value, and -5 reads as a value, here the command
    (["-h3", "basic"], "argument -h/--help: ignored explicit argument '3'"),
    (["-5", "basic"], invalid_command("-5")),
])
def test_an_unknown_flag_before_the_command_is_unrecognized(capsys,
                                                            monkeypatch,
                                                            argv, message):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: psi-umbral [-h]\n"
        "                  {basic,expand,detect,verify,integrate,translate,"
        "table} ...\n"
        "psi-umbral: error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["--zz", "3", "basic", "--format", "json"],
    ["--zz", "basic", "--format", "json"],
    ["--zz=3", "basic", "--format", "json"],
])
def test_an_unknown_flag_before_the_command_in_json_mode(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": "job_spec", "details": {"pointer": "--zz"},
        "message": "unrecognized arguments: %s" % argv[0]}


@pytest.mark.parametrize("argv,pointer,message", [
    (["-x", "3", "basic"], "-x", "unrecognized arguments: -x"),
    (["-x=3", "basic"], "-x", "unrecognized arguments: -x=3"),
    (["-h3", "basic"], "-h/--help",
     "argument -h/--help: ignored explicit argument '3'"),
    (["-5", "basic"], "/command", invalid_command("-5")),
    # after a leading "--", the next argument is the command
    (["--", "--format", "json"], "/command", invalid_command("--format")),
])
def test_a_single_dash_or_ended_flag_before_the_command_in_json_mode(
        capsys, argv, pointer, message):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": "job_spec", "details": {"pointer": pointer},
        "message": message}


@pytest.mark.parametrize("argv", [["-h"], ["-h", "--format", "json"]])
def test_short_help_before_the_command_is_help(capsys, argv):
    with pytest.raises(SystemExit):
        main(["--help"])
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr() == want
    assert want.out.startswith("usage: psi-umbral")


@pytest.mark.parametrize("argv,pointer,message", [
    (["basic", "--cap=--"], "--cap",
     "argument --cap: invalid int value: '--'"),
    (["basic", "--formula=--"], "/formula",
     "argument --formula: invalid int value: '--'"),
    (["verify", "--suite=--"], "/suite",
     "argument --suite: invalid choice: '--' (choose from 'all', 'ghw', "
     "'binomial', 'rodrigues', 'expansion', 'leibniz', 'integration', "
     "'poisson', 'special')"),
    (["translate", "--y=--", "--poly", "1"], "/y", "not a rational: '--'"),
])
def test_an_attached_double_dash_is_the_flag_value(capsys, argv, pointer,
                                                   message):
    # converted and refused as any other value would be, on every Python
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "job_spec",
                               "details": {"pointer": pointer},
                               "message": message}


@pytest.mark.parametrize("argv,help_", [
    (["basic", "-hh"], True), (["basic", "-h=h"], True),
    (["basic", "--cap", "3", "-hhh"], True), (["basic", "-h3"], False),
    (["translate", "-hhx"], False), (["basic", "-h="], False),
])
def test_short_help_after_the_command_reads_as_before_it(capsys, argv,
                                                         help_):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == (0 if help_ else 2)
    if help_:
        assert captured.out.startswith("usage: psi-umbral %s" % argv[0])
    else:
        value = argv[-1][2:].removeprefix("=").lstrip("h")
        assert captured.err.endswith(
            "error: argument -h/--help: ignored explicit argument %r\n"
            % value)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_leading_double_dash_ends_the_options(capsys, fmt):
    argv = ["table", "--cap", "3", "--format", fmt]
    want = run(capsys, *argv)
    assert want[0] == 0
    assert run(capsys, "--", *argv) == want


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def outcome(capsys, argv):
    """(exit code, stdout, stderr), with a SystemExit as ("SystemExit", code)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # usage errors in text and JSON mode, a success and help, twice in one
    # process: the same bytes each time, all from the one build_parser()
    # result and its command parsers
    parser = cli.build_parser()
    parsers = []

    def recording(method):
        def record(self, *args, **kwargs):
            parsers.append(self)
            return method(self, *args, **kwargs)
        return record

    for name in ("parse_known_args", "print_help"):
        monkeypatch.setattr(cli._Parser, name,
                            recording(getattr(cli._Parser, name)))
    argvs = [["basic", "--n=abc"], ["basic", "--n", "abc", "--format", "json"],
             ["table", "--psi", "q:1/2", "--cap", "6"], ["--help"]]
    first = [outcome(capsys, argv) for argv in argvs]
    second = [outcome(capsys, argv) for argv in argvs]
    assert first == second
    assert [code for code, _, _ in first] == [("SystemExit", 2), 2, 0,
                                              ("SystemExit", 0)]
    assert first[0][2].endswith(
        "psi-umbral basic: error: argument --n: invalid int value: 'abc'\n")
    assert json.loads(first[1][2])["details"]["pointer"] == "/n"
    basic, table = parser.commands["basic"], parser.commands["table"]
    assert parsers == [basic, basic, table, parser] * 2
    assert cli.build_parser() is parser


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_closed_stdout_exits_one_without_a_traceback(fmt):
    # over 160 kB of output, more than a pipe holds, so a write meets the
    # closed pipe whatever the timing
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "psi_umbral.cli", "table", "--cap", "400",
         "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    # no traceback, and no "Exception ignored" when Python flushes at exit
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_basic_past_the_cap_is_a_computation_error(capsys):
    code, out, err = run(capsys, "basic", "--n", "10", "--cap", "8")
    assert (code, out, err) == (1, "", "error: n_max 10 beyond operator cap 8\n")


def test_basic_closed_form_does_not_grow_with_the_cap(capsys):
    # p_0..p_3 read the closed form's series only through z^3, so a large
    # cap prints the same bytes; inverting the whole cap-63 series on
    # q = 1/2 weights would cost seconds
    argv = ["basic", "--op", "Delta", "--psi", "q:1/2", "--n", "3"]
    small = run(capsys, *argv, "--cap", "8")
    large = run(capsys, *argv, "--cap", "64")
    assert small[0] == 0
    assert large == small


def test_output_is_deterministic(capsys):
    argv = ["verify", "--suite", "binomial", "--cap", "6", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# -- weights are checked at the cap the command runs on ----------------------

FIVE_WEIGHTS = {"kind": "custom", "n_psi": ["1", "2", "3", "4", "5"]}


def test_job_weights_checked_at_env_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PSI_UMBRAL_CAP", "4")
    flag_run = run(capsys, "table", "--psi", "custom:1,2,3,4,5",
                   "--format", "json")
    job_run = run_job(capsys, tmp_path, "table", {"psi": FIVE_WEIGHTS},
                      "--format", "json")
    assert flag_run == job_run
    assert flag_run[0] == 0
    assert json.loads(flag_run[1])["cap"] == 4


@pytest.mark.parametrize("psi, pointer", [
    ({"kind": "custom", "n_psi": ["1", "2", "3"]}, "/psi"),
    ({"kind": "q", "q": "-1"}, "/psi/q"),
], ids=["custom", "q"])
def test_job_weights_short_of_env_cap_keep_pointer(capsys, tmp_path,
                                                   monkeypatch, psi, pointer):
    monkeypatch.setenv("PSI_UMBRAL_CAP", "4")
    code, _, err = run_job(capsys, tmp_path, "table", {"psi": psi},
                           "--format", "json")
    assert code == 2
    doc = json.loads(err)
    assert doc["details"]["pointer"] == pointer
    assert "at cap 4" in doc["message"]


def test_job_with_own_cap_ignores_invalid_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PSI_UMBRAL_CAP", "many")
    code, out, _ = run_job(capsys, tmp_path, "table",
                           {"cap": 3, "psi": FIVE_WEIGHTS}, "--format", "json")
    assert code == 0
    assert json.loads(out)["cap"] == 3


@pytest.mark.parametrize("flags, keys, pointer", [
    (["--kind", "q", "--q", "-1"], {"kind": "q", "q": "-1"}, "/q"),
    (["--kind", "r", "--q", "-1", "--r-num=-1,1", "--r-den", "1"],
     {"kind": "r", "q": "-1", "r_num": ["-1", "1"], "r_den": ["1"]}, "/r_num"),
    (["--psi", "q:-1"], {"psi": {"kind": "q", "q": "-1"}}, "--psi"),
], ids=["q", "r", "psi"])
def test_integrate_checks_weights_to_degree_plus_one(capsys, tmp_path, flags,
                                                     keys, pointer):
    # at q = -1 the weight of 1 is nonzero and the weight of 2 vanishes
    # (1 + q, and R(q^2) for R(x) = x - 1), so checking to --cap 1 misses it
    code, _, err = run(capsys, "integrate", "--cap", "1", "--poly", "1,1",
                       *flags, "--format", "json")
    assert code == 2
    doc = json.loads(err)
    assert doc["details"]["pointer"] == pointer
    assert doc["message"].startswith("weights inadmissible up to n=2 (cap 1)")
    code, _, err = run_job(capsys, tmp_path, "integrate",
                           dict(keys, cap=1, poly=["1", "1"]), "--format", "json")
    assert code == 2
    assert json.loads(err)["details"]["pointer"] == (
        "/psi/q" if pointer == "--psi" else pointer)


@pytest.mark.parametrize("flags, pointer, message", [
    (["--kind", "q", "--poly", "1,2"], "/q", "--q is required for kind=q"),
    (["--kind", "r", "--q", "2", "--poly", "1"], "/r_num",
     "--r-num is required for kind=r"),
    (["--kind", "r", "--q", "2", "--poly", "1", "--r-num", "1", "--r-den", "0"],
     "/r_den", "rational function with zero denominator"),
], ids=["q", "r_num", "r_den"])
def test_integrate_kind_needs_its_parameters(capsys, flags, pointer, message):
    code, _, err = run(capsys, "integrate", *flags, "--format", "json")
    assert code == 2
    doc = json.loads(err)
    assert doc["message"] == message
    assert doc["details"]["pointer"] == pointer


def test_integrate_within_cap_is_unchanged(capsys):
    code, out, _ = run(capsys, "integrate", "--psi", "q:-1", "--cap", "1",
                       "--poly", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["integral"] == ["0", "1"]


def test_integrate_q_ignores_unused_weights(capsys):
    # kind q reads its own weights; the --psi ones, short at n=2, go unread
    code, out, _ = run(capsys, "integrate", "--kind", "q", "--q", "2",
                       "--psi", "q:-1", "--cap", "1", "--poly", "1,1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["derivative_roundtrip"] is True


@pytest.mark.parametrize("psi_text, psi_doc, job_pointer, cap, poly", [
    ("q:-1", {"kind": "q", "q": "-1"}, "/psi/q", 1, "1,1,1"),
    ("custom:1,2", {"kind": "custom", "n_psi": ["1", "2"]}, "/psi", 2,
     "1,1,1,1"),
])
def test_translate_checks_weights_to_the_degree(capsys, tmp_path, psi_text,
                                                psi_doc, job_pointer, cap,
                                                poly):
    # translate reads the weights up to deg p, past a smaller --cap
    where = "weights inadmissible up to n=%d (cap %d)" % (
        len(poly.split(",")) - 1, cap)
    code, _, err = run(capsys, "translate", "--psi", psi_text, "--cap",
                       str(cap), "--y", "1", "--poly", poly,
                       "--format", "json")
    assert code == 2
    doc = json.loads(err)
    assert doc["details"]["pointer"] == "--psi"
    assert doc["message"].startswith(where)
    code, _, err = run_job(capsys, tmp_path, "translate",
                           {"psi": psi_doc, "cap": cap, "y": "1",
                            "poly": poly.split(",")}, "--format", "json")
    assert code == 2
    doc = json.loads(err)
    assert doc["details"]["pointer"] == job_pointer
    assert doc["message"].startswith(where)


def test_translate_with_exactly_the_degree_of_weights(capsys):
    code, out, _ = run(capsys, "translate", "--psi", "custom:1,2,3", "--cap",
                       "3", "--y", "1", "--poly", "1,1,1,1")
    assert code == 0
    assert "x^3 + 4*x^2 + 6*x + 4" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_number_past_the_digit_limit_is_a_structured_error(capsys, fmt):
    # the weighted factorials at cap 1700 pass the interpreter's default
    # 4300-digit limit for converting an int to a string
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "table", "--cap", "1700", "--format", fmt)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    message = ("number too long to print: over the %d-digit limit for "
               "converting an int to a string" % limit)
    if fmt == "json":
        assert json.loads(err) == {"code": "cap_exceeded", "message": message,
                                   "details": {"limit": str(limit)}}
    else:
        assert err == "error: %s\n" % message


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_failure_names_its_first_failing_case(capsys, monkeypatch, fmt):
    # the solve with x added to p_3 breaks all 15 binomial rows at n = 4,
    # y = 1; the 6 parity rows do not read the solve and pass
    monkeypatch.setattr(verify, "basic_sequence_solve",
                        _solve_with_x_in_p3(verify.basic_sequence_solve))
    code, out, err = run(capsys, "verify", "--suite", "binomial", "--cap", "6",
                         "--format", fmt)
    assert code == 1
    assert err == ""
    if fmt == "text":
        lines = out.splitlines()
        assert lines[0] == (
            "FAIL binomial     binomial[classical,derivative] translation "
            "splits over the basis, n<=6 at 11 points  [first failing case: "
            "n=4, y=1]")
        assert sum("[first failing case: n=4, y=1]" in line
                   for line in lines) == 15
        assert lines[-1] == "21 checks, 15 failed"
    elif fmt == "json":
        rows = json.loads(out)["rows"]
        assert [row.get("witness") for row in rows] == (
            ["n=4, y=1"] * 15 + [None] * 6)
    else:
        table = list(csv.reader(io.StringIO(out)))
        assert table[0] == ["suite", "check", "passed", "witness"]
        assert len(table) == 22
        assert [row[2:] for row in table[1:]] == (
            [["False", "n=4, y=1"]] * 15 + [["True", ""]] * 6)


def test_verify_csv_header_covers_a_failing_row_after_passing_ones(
        capsys, monkeypatch):
    # twice the weight multiplier fails only the factoring row, which
    # follows ten passing rows
    real = verify.weight_op
    monkeypatch.setattr(verify, "weight_op", lambda psi, cap: 2 * real(psi, cap))
    code, out, err = run(capsys, "verify", "--suite", "integration", "--cap",
                         "6", "--format", "csv")
    assert code == 1
    assert err == ""
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["suite", "check", "passed", "witness"]
    assert all(len(row) == 4 for row in table)
    assert [row[2:] for row in table[1:] if row[2] == "False"] == [
        ["False", "weights=classical"]]


@pytest.mark.parametrize("argv, position", [
    (["basic", "--op", "%s*D", "--n", "1", "--cap", "2"], 0),
    (["detect", "--op", "D^%s", "--cap", "2", "--format", "json"], 2),
])
def test_integer_literal_past_the_digit_limit_is_a_parse_error(capsys, argv,
                                                                position):
    # one digit past the interpreter's limit for converting a string to an
    # int, as a scalar and as an exponent
    limit = sys.get_int_max_str_digits()
    argv = [a % ("1" * (limit + 1)) if "%s" in a else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    message = ("integer literal longer than the %d-digit limit for converting "
               "a string to an int" % limit)
    if "json" in argv:
        assert json.loads(err) == {"code": "parse", "message": message,
                                   "details": {"position": str(position)}}
    else:
        assert err == "error: %s\n" % message


def test_integer_literal_at_the_digit_limit_parses():
    limit = sys.get_int_max_str_digits()
    op = parse_operator("1" * limit, OperatorContext(2))
    assert op.image(0).constant_term == int("1" * limit)


# -- one input route: the flags are a job document ---------------------------

# The flag a flag-route error carries for a job pointer: the cap, and the
# weights object with everything in it ("/psi/q", "/psi/n_psi/0", ...).
JOB_POINTERS_AS_FLAGS = {"cap": "--cap", "psi": "--psi"}


def _as_flag_run(run_result):
    """A job run's output with each job pointer replaced by its flag."""
    code, out, err = run_result
    if code == 2 and err.startswith("{"):
        doc = json.loads(err)
        pointer = doc["details"]["pointer"]
        head = pointer.split("/")[1] if pointer.startswith("/") else ""
        doc["details"]["pointer"] = JOB_POINTERS_AS_FLAGS.get(head, pointer)
        err = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return code, out, err


@pytest.mark.parametrize("flags, keys, pointer, message", [
    (["--psi", "q:-1", "--cap", "4"],
     {"psi": {"kind": "q", "q": "-1"}, "cap": 4}, "--psi",
     "weights inadmissible at cap 4: weight vanishes at n=2 (n=2)"),
    (["--psi", "q:1"], {"psi": {"kind": "q", "q": "1"}}, "--psi",
     "weights inadmissible at cap 16: Jackson weights are undefined at "
     "q = 1 (n=1)"),
    (["--cap=-1"], {"cap": -1}, "--cap", "cap must be a nonnegative integer"),
    (["--psi", '{"kind":"custom","n_psi":["1","0"]}', "--cap", "3"],
     {"psi": {"kind": "custom", "n_psi": ["1", "0"]}, "cap": 3}, "--psi",
     "weights inadmissible at cap 3: weight vanishes at n=2 (n=2)"),
    (["--psi", '{"kind":"rational","R_num":["1"],"R_den":["-1/4","1"],'
               '"q":"1/2"}', "--cap", "4"],
     {"psi": {"kind": "rational", "R_num": ["1"], "R_den": ["-1/4", "1"],
              "q": "1/2"}, "cap": 4}, "--psi",
     "weights inadmissible at cap 4: rational function denominator "
     "vanishes at 1/4 (n=2)"),
], ids=["q-1", "q1", "cap", "custom", "rational-pole"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_weights_and_cap_give_one_message_on_both_routes(
        capsys, tmp_path, monkeypatch, flags, keys, pointer, message, fmt):
    monkeypatch.delenv("PSI_UMBRAL_CAP", raising=False)
    flag_run = run(capsys, "table", *flags, "--format", fmt)
    job_run = run_job(capsys, tmp_path, "table", keys, "--format", fmt)
    assert flag_run == _as_flag_run(job_run)
    code, out, err = flag_run
    assert (code, out) == (2, "")
    if fmt == "json":
        assert json.loads(err) == {"code": "job_spec", "message": message,
                                   "details": {"pointer": pointer}}
    else:
        assert err == "error: %s\n" % message


@pytest.mark.parametrize("psi, pointer, message", [
    ({"kind": "custom", "n_psi": "123"}, "/psi/n_psi",
     "expected a list of rational strings"),
    ({"kind": "custom", "n_psi": ["1", 2]}, "/psi/n_psi/1",
     "expected a rational string"),
    ({"kind": "custom", "n_psi": ["1", "x"]}, "/psi/n_psi/1",
     "not a rational: 'x'"),
    ({"kind": "rational", "q": "2", "R_num": "1", "R_den": ["1"]},
     "/psi/R_num", "expected a list of rational strings"),
    ({"kind": "rational", "q": "2", "R_num": ["1"], "R_den": "12"},
     "/psi/R_den", "expected a list of rational strings"),
], ids=["n_psi-string", "n_psi-int", "n_psi-word", "R_num", "R_den"])
def test_weight_lists_must_be_lists_of_rational_strings(capsys, tmp_path, psi,
                                                        pointer, message):
    # a string used to be read as the list of its characters
    flag_run = run(capsys, "table", "--cap", "3", "--psi", json.dumps(psi),
                   "--format", "json")
    job_run = run_job(capsys, tmp_path, "table", {"cap": 3, "psi": psi},
                      "--format", "json")
    assert json.loads(job_run[2]) == {"code": "job_spec", "message": message,
                                      "details": {"pointer": pointer}}
    assert job_run[:2] == (2, "")
    assert flag_run == _as_flag_run(job_run)
    assert json.loads(flag_run[2])["details"]["pointer"] == "--psi"


@pytest.mark.parametrize("psi, flag, message", [
    ({"kind": "q", "q": "abc"}, "q:abc", "not a rational: 'abc'"),
    ({"kind": "q", "q": "1/0"}, "q:1/0", "not a rational: '1/0'"),
    ({"kind": "q", "q": 2}, None, "expected a rational string"),
    ({"kind": "rational", "q": "abc", "R_num": ["1"], "R_den": ["1"]}, None,
     "not a rational: 'abc'"),
    ({"kind": "rational", "q": "1/0", "R_num": ["1"], "R_den": ["1"]}, None,
     "not a rational: '1/0'"),
], ids=["q-word", "q-zero-den", "q-int", "rational-word", "rational-zero-den"])
def test_the_weights_q_must_be_a_rational_string(capsys, tmp_path, psi, flag,
                                                 message):
    # Fraction's own text ("Invalid literal for Fraction: 'abc'",
    # "Fraction(1, 0)") used to come through as "bad weight sequence"
    job_run = run_job(capsys, tmp_path, "table", {"cap": 3, "psi": psi},
                      "--format", "json")
    assert job_run[:2] == (2, "")
    assert json.loads(job_run[2]) == {"code": "job_spec", "message": message,
                                      "details": {"pointer": "/psi/q"}}
    for text in filter(None, (flag, json.dumps(psi))):
        assert run(capsys, "table", "--cap", "3", "--psi", text,
                   "--format", "json") == _as_flag_run(job_run)


@pytest.mark.parametrize("env, flags, keys, message", [
    ("x", [], {}, "PSI_UMBRAL_CAP must be an integer, got 'x'"),
    ("-1", [], {}, "PSI_UMBRAL_CAP must be nonnegative"),
    ("4", ["--suite", "ghw"], {"suite": "ghw"},
     "verify needs --cap at least 6 (counterexample witnesses live at "
     "degree 4)"),
], ids=["word", "negative", "verify-floor"])
def test_a_cap_from_the_environment_is_blamed_there(capsys, tmp_path,
                                                    monkeypatch, env, flags,
                                                    keys, message):
    # neither --cap nor the job key "cap" is in the request
    monkeypatch.setenv("PSI_UMBRAL_CAP", env)
    command = "verify" if keys else "table"
    want = (2, "", json.dumps({"code": "job_spec", "message": message,
                               "details": {"pointer": "$PSI_UMBRAL_CAP"}},
                              indent=2, sort_keys=True) + "\n")
    assert run(capsys, command, *flags, "--format", "json") == want
    assert run_job(capsys, tmp_path, command, keys, "--format", "json") == want


def test_unknown_weights_name_lists_the_forms(capsys):
    code, out, err = run(capsys, "basic", "--psi", "nonsense",
                         "--format", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": "job_spec", "details": {"pointer": "--psi"},
        "message": "unrecognized weight sequence 'nonsense' (try classical, "
                   "divided_difference, q:RAT, custom:V1,V2,... or JSON)"}


@pytest.mark.parametrize("psi", ['{"kind":"q"}', '{"kind":"custom","n_psi":5}',
                                 '{"a":' * 3000])
def test_json_weights_missing_or_mistyped_are_usage_errors(capsys, psi):
    code, out, err = run(capsys, "table", "--cap", "3", "--psi", psi,
                         "--format", "json")
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["code"] == "job_spec"
    assert doc["details"]["pointer"] == "--psi"


RATIONAL_KEYS = {"kind": "rational", "q": "2", "R_num": ["1"], "R_den": ["1"]}


@pytest.mark.parametrize("psi, key", [
    ({"kind": "q"}, "q"),
    ({"kind": "custom"}, "n_psi"),
] + [({k: v for k, v in RATIONAL_KEYS.items() if k != key}, key)
     for key in ("q", "R_num", "R_den")],
    ids=["q", "custom", "rational-q", "rational-R_num", "rational-R_den"])
def test_a_missing_weights_key_is_named(capsys, tmp_path, psi, key):
    message = "%s is required for kind %s" % (key, psi["kind"])
    code, out, err = run(capsys, "table", "--cap", "3", "--psi",
                         json.dumps(psi), "--format", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "job_spec", "message": message,
                               "details": {"pointer": "--psi"}}
    code, out, err = run_job(capsys, tmp_path, "table", {"psi": psi},
                             "--format", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "job_spec", "message": message,
                               "details": {"pointer": "/psi/" + key}}
    code, out, err = run_job(capsys, tmp_path, "table", {"psi": psi})
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("psi, message", [
    ({"kind": "zz"}, "unknown weight sequence kind 'zz'"),
    ({"n_psi": ["1"]}, "unknown weight sequence kind None"),
    (dict(RATIONAL_KEYS, R_den=["0"]), "rational function with zero "
                                       "denominator"),
], ids=["unknown-kind", "no-kind", "zero-denominator"])
def test_a_weights_object_that_cannot_be_built_is_a_bad_weight_sequence(
        capsys, tmp_path, psi, message):
    code, out, err = run_job(capsys, tmp_path, "table", {"psi": psi},
                             "--format", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "job_spec",
                               "message": "bad weight sequence: " + message,
                               "details": {"pointer": "/psi"}}


def test_deeply_nested_job_file_is_invalid_json(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text('{"a":' * 3000)
    code, out, err = run(capsys, "table", "--job", str(job))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth")


BIG = "1" * 5000  # past the interpreter's digit limit for int()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("content, message", [
    (None, "cannot read job file: [Errno 21] Is a directory: "),
    (b"\xff\xfe{}", "cannot read job file: 'utf-8' codec can't decode byte "
                    "0xff in position 0: invalid start byte"),
    (b'{"cap": %s}' % BIG.encode(), "invalid JSON: Exceeds the limit "),
], ids=["directory", "not-utf-8", "digit-limit"])
def test_an_unreadable_job_file_is_a_bad_job_file(capsys, tmp_path, fmt,
                                                  content, message):
    job = tmp_path / "job.json"
    if content is None:
        job.mkdir()
    else:
        job.write_bytes(content)
    code, out, err = run(capsys, "table", "--job", str(job), "--format", fmt)
    assert (code, out) == (2, "")
    if fmt == "text":
        assert err.startswith("error: " + message)
    else:
        doc = json.loads(err)
        assert (doc["code"], doc["details"]) == ("job_spec", {"pointer": ""})
        assert doc["message"].startswith(message)


def test_a_missing_job_file_is_named(capsys, tmp_path):
    job = str(tmp_path / "absent.json")
    code, out, err = run(capsys, "table", "--job", job)
    assert (code, out, err) == (2, "", "error: job file not found: %s\n" % job)


def test_weights_past_the_digit_limit_are_invalid_json(capsys):
    code, out, err = run(capsys, "table", "--psi",
                         '{"kind": "q", "q": %s}' % BIG, "--format", "json")
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["details"] == {"pointer": "--psi"}
    assert doc["message"].startswith("invalid JSON: Exceeds the limit ")


@pytest.mark.parametrize("argv, message", [
    (["table", "--format", "xml", "--cap", "6"], "invalid choice: 'xml'"),
    (["verify", "--suite", "nope"], "invalid choice: 'nope'"),
])
def test_usage_text_does_not_follow_the_terminal_width(capsys, monkeypatch,
                                                       argv, message):
    errs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert message in errs[0]


@pytest.mark.parametrize("op, code, stream", [
    ("²", 2, "error: unknown operator name '²'\n"),
    ("D^²", 2, "error: expected an integer\n"),
    ("٣*D", 0, "  p_1  = 1/3*x   [closed form ok]\n"),
])
def test_integer_literals_are_decimal_digits(capsys, op, code, stream):
    # str.isdigit also takes superscripts, which int() rejects; Arabic-Indic
    # digits are decimal and int() reads them
    got, out, err = run(capsys, "basic", "--op", op, "--n", "1", "--cap", "2")
    assert got == code
    assert stream in (err if code else out)
    assert "Traceback" not in err


@pytest.mark.parametrize("y,route", [
    ("1e10000000", "flags"),
    ("1e10000000", "job"),
    ("2E3", "flags"),
])
def test_exponent_notation_is_not_a_rational(capsys, tmp_path, y, route):
    # Fraction("1e10000000") builds a ten-million-digit power of ten
    start = time.perf_counter()
    if route == "job":
        code, out, err = run_job(capsys, tmp_path, "translate",
                                 {"y": y, "poly": ["1", "1"], "cap": 2},
                                 "--format", "json")
    else:
        code, out, err = run(capsys, "translate", "--y", y, "--poly", "1,1",
                             "--cap", "2", "--format", "json")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "job_spec", "details": {"pointer": "/y"},
                               "message": "not a rational: %r" % y}


def test_a_decimal_is_a_rational(capsys):
    code, out, err = run(capsys, "translate", "--y", "1.5", "--poly", "1,1",
                         "--cap", "2")
    assert (code, out, err) == (0, "translate by y = 3/2: x + 5/2\n", "")


_GOOD = st.sampled_from(["2", "1/2", "-3/5", "1.5"])
_RATIONALS = st.one_of(_GOOD,
                       st.sampled_from(["1", "-1", "0", "1/0", "x", ""]))
_WRONG_TYPES = st.sampled_from([3, [], ["1"], None, {"q": "2"}, True])
_VALUE = st.one_of(_RATIONALS, _WRONG_TYPES)
_VALUES = st.one_of(st.lists(_RATIONALS, max_size=14), _VALUE)
_KINDS = st.sampled_from(["classical", "divided_difference", "q", "rational",
                          "custom", "bogus"])
_KEYS = {"q": _VALUE, "n_psi": _VALUES, "R_num": _VALUES, "R_den": _VALUES}
_WEIGHTS = st.one_of(
    # any key but a known kind may be missing or hold a value of a wrong type
    st.fixed_dictionaries({"kind": _KINDS}, optional=_KEYS),
    st.fixed_dictionaries({}, optional=dict(_KEYS, kind=_WRONG_TYPES)),
    # well formed, so that the weights are also compared where they succeed
    st.fixed_dictionaries({"kind": st.just("q"), "q": _GOOD}),
    st.fixed_dictionaries({"kind": st.just("custom"), "n_psi": st.lists(
        _GOOD, min_size=13, max_size=13)}),
    st.fixed_dictionaries({"kind": st.just("rational"), "q": _GOOD,
                           "R_num": st.lists(_GOOD, min_size=1, max_size=3),
                           "R_den": st.lists(_GOOD, min_size=1, max_size=3)}))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(psi=_WEIGHTS, cap=st.integers(-1, 12))
def test_flag_and_job_routes_agree_on_any_weights(psi, cap):
    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        job = os.path.join(tmp, "job.json")
        with open(job, "w") as fh:
            json.dump({"command": "table", "cap": cap, "psi": psi}, fh)
        for argv in (["--psi", json.dumps(psi), "--cap=%d" % cap],
                     ["--job", job]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["table", "--format", "json"] + argv)
            assert code in (0, 1, 2)
            outs.append((code, out.getvalue(), err.getvalue()))
    assert outs[0] == _as_flag_run(outs[1])
