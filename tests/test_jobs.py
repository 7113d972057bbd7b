import json

import pytest

from psi_umbral.errors import JobSpecError
from psi_umbral.jobs import JobSpec, load_job_spec, parse_job


def pointer_of(callable_):
    with pytest.raises(JobSpecError) as info:
        callable_()
    return info.value.pointer


def test_full_basic_job():
    spec = parse_job({"command": "basic", "cap": 10,
                      "psi": {"kind": "q", "q": "2"},
                      "op": "Delta", "n": 6, "formula": 2})
    assert spec.command == "basic"
    assert spec.cap == 10
    assert spec.psi.n_psi(2) == 3
    assert spec.params == {"op": "Delta", "n": 6, "formula": 2}


def test_defaults_are_filled_in():
    spec = parse_job({"command": "translate", "poly": ["1"]})
    assert spec.params == {"y": "1", "poly": ["1"]}


def test_required_key_is_pinpointed():
    assert pointer_of(lambda: parse_job({"command": "detect"})) == "/op"


def test_verify_takes_no_weights():
    doc = {"command": "verify", "psi": {"kind": "classical"}}
    assert pointer_of(lambda: parse_job(doc)) == "/psi"


def test_choice_is_checked():
    doc = {"command": "verify", "suite": "nope"}
    assert pointer_of(lambda: parse_job(doc)) == "/suite"


def test_command_from_invocation_when_absent():
    spec = parse_job({"suite": "ghw"}, command="verify")
    assert spec.command == "verify"
    assert spec.cap is None  # caller decides the default


def test_root_must_be_object():
    assert pointer_of(lambda: parse_job(["basic"])) == ""


def test_missing_command():
    assert pointer_of(lambda: parse_job({})) == "/command"


def test_command_mismatch():
    doc = {"command": "basic"}
    assert pointer_of(lambda: parse_job(doc, command="detect")) == "/command"


def test_unknown_command():
    assert pointer_of(lambda: parse_job({"command": "solve"})) == "/command"


def test_unknown_key_is_pinpointed():
    doc = {"command": "detect", "op": "D", "n": 3}
    assert pointer_of(lambda: parse_job(doc)) == "/n"


def test_cap_validation():
    for bad in (-1, "8", True, 2.5):
        doc = {"command": "table", "cap": bad}
        assert pointer_of(lambda d=doc: parse_job(d)) == "/cap"


def test_psi_must_be_object():
    doc = {"command": "table", "psi": "classical"}
    assert pointer_of(lambda: parse_job(doc)) == "/psi"


def test_inadmissible_jackson_points_at_q():
    doc = {"command": "table", "cap": 4, "psi": {"kind": "q", "q": "1"}}
    assert pointer_of(lambda: parse_job(doc)) == "/psi/q"


def test_vanishing_custom_weight_points_at_psi():
    doc = {"command": "table", "cap": 3,
           "psi": {"kind": "custom", "n_psi": ["1", "0", "2"]}}
    assert pointer_of(lambda: parse_job(doc)) == "/psi"


def test_job_without_cap_leaves_weights_to_caller():
    doc = {"command": "table", "psi": {"kind": "q", "q": "1"}}
    spec = parse_job(doc)
    assert spec.cap is None
    assert spec.psi_pointer == "/psi/q"


def test_integrate_kind_whitelist():
    doc = {"command": "integrate", "kind": "series", "poly": ["1"]}
    assert pointer_of(lambda: parse_job(doc)) == "/kind"


def test_poly_entry_is_pinpointed():
    doc = {"command": "translate", "y": "2", "poly": ["1", "nope"]}
    assert pointer_of(lambda: parse_job(doc)) == "/poly/1"


def test_negative_index_rejected():
    doc = {"command": "basic", "op": "Dpsi", "n": -1}
    assert pointer_of(lambda: parse_job(doc)) == "/n"


def test_bool_is_not_an_index():
    doc = {"command": "basic", "op": "Dpsi", "n": True}
    assert pointer_of(lambda: parse_job(doc)) == "/n"


def test_lambda_samples_entry_is_pinpointed():
    doc = {"command": "expand", "t": "X", "lambda_samples": ["x"]}
    assert pointer_of(lambda: parse_job(doc)) == "/lambda_samples/0"


def test_operator_text_must_be_string():
    doc = {"command": "detect", "op": 7}
    assert pointer_of(lambda: parse_job(doc)) == "/op"


def test_load_job_spec_roundtrip(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "translate", "y": "3/2",
                                "poly": ["0", "0", "1"]}))
    spec = load_job_spec(str(path))
    assert isinstance(spec, JobSpec)
    assert spec.params["y"] == "3/2"


def test_load_job_spec_missing_file(tmp_path):
    with pytest.raises(JobSpecError):
        load_job_spec(str(tmp_path / "absent.json"))


def test_load_job_spec_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(JobSpecError):
        load_job_spec(str(path))


def test_weight_lists_are_checked_where_the_kind_reads_them():
    def psi_doc(psi):
        return {"command": "table", "cap": 3, "psi": psi}
    # a string is not read as the list of its characters
    doc = psi_doc({"kind": "custom", "n_psi": "123"})
    assert pointer_of(lambda: parse_job(doc)) == "/psi/n_psi"
    doc = psi_doc({"kind": "rational", "q": "2", "R_num": ["1"],
                   "R_den": ["1", None]})
    assert pointer_of(lambda: parse_job(doc)) == "/psi/R_den/1"
    # a key the kind does not read is left alone, as before
    assert parse_job(psi_doc({"kind": "q", "q": "2", "n_psi": "1"})).psi.n_psi(2) == 3
