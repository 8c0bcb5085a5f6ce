import builtins
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from crnkit.cli import build_parser, main
from .conftest import (
    CATALYTIC_CASCADE_TEXT,
    EXAMPLE_NETWORK_TEXT,
    LIMIT_CYCLE_4D_TEXT,
    SADDLE_3D_TEXT,
)

KINETIC_SYSTEM_TEXT = "vars x y\n2*y^2 - 3*x*y\n3*x^2 - 2*x*y\n"
ROTATION_SYSTEM_TEXT = "vars x y\ny\n-x\n"
DIVERGENT_SYSTEM_TEXT = (
    "vars x y z\n"
    "2*y^2 + 3*z^2 - 4*x*y - 6*x*z\n"
    "4*x^2 + 5*z^2 - 2*x*y - 7*y*z\n"
    "6*x^2 + 7*y^2 - 3*x*z - 5*y*z\n"
)


@pytest.fixture
def network_file(tmp_path):
    path = tmp_path / "net.crn"
    path.write_text(EXAMPLE_NETWORK_TEXT)
    return str(path)


@pytest.fixture
def cascade_file(tmp_path):
    path = tmp_path / "cascade.crn"
    path.write_text(CATALYTIC_CASCADE_TEXT)
    return str(path)


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(KINETIC_SYSTEM_TEXT)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- parse and odes ---------------------------------------------------------

def test_parse_network(network_file, capsys):
    assert main(["parse", network_file]) == 0
    out = capsys.readouterr().out
    assert "species: X Y" in out
    assert "->[" in out


def test_parse_json_payload(network_file, capsys):
    assert main(["parse", network_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["species"] == ["X", "Y"]
    assert len(data["steps"]) == 4


def test_parse_rejects_system_input(system_file, capsys):
    assert main(["parse", system_file]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_is_an_error(capsys):
    assert main(["parse", "no-such-file.crn"]) == 2
    assert "error:" in capsys.readouterr().err


def test_odes_renders_bound_system(network_file, capsys):
    assert main(["odes", network_file, "--params", "a=2", "b=3"]) == 0
    assert capsys.readouterr().out.strip() == "{-3*x*y + 2*y^2, 3*x^2 - 2*x*y}"


def test_odes_unbound_parameter(network_file, capsys):
    assert main(["odes", network_file]) == 2
    assert "a" in capsys.readouterr().err


def test_network_json_round_trip(network_file, tmp_path, capsys):
    outdir = tmp_path / "parsed"
    assert main(["parse", network_file, "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert main(
        ["odes", str(outdir / "network.json"), "--params", "a=2", "b=3"]
    ) == 0
    assert capsys.readouterr().out.strip() == "{-3*x*y + 2*y^2, 3*x^2 - 2*x*y}"


# -- check ------------------------------------------------------------------

def test_check_kinetic_accepts(system_file, capsys):
    assert main(["check", system_file, "--property", "kinetic"]) == 0
    assert "kinetic: yes" in capsys.readouterr().out


def test_check_kinetic_rejects(tmp_path, capsys):
    path = write(tmp_path, "rot.txt", ROTATION_SYSTEM_TEXT)
    assert main(["check", path, "--property", "kinetic"]) == 1
    out = capsys.readouterr().out
    assert "kinetic: no" in out
    assert "component" in out


def test_check_conservation_modes(cascade_file, capsys):
    assert main(["check", cascade_file, "--property", "conserve-stoich"]) == 0
    assert "witness:" in capsys.readouterr().out

    rho = "1,2,4,1,4,5,2,2,1"
    assert main(
        ["check", cascade_file, "--property", "conserve-stoich", "--candidate", rho]
    ) == 1
    capsys.readouterr()
    assert main(
        ["check", cascade_file, "--property", "conserve-kinetic", "--candidate", rho]
    ) == 0
    assert "candidate valid: yes" in capsys.readouterr().out


def test_check_conservation_payloads(cascade_file, capsys):
    assert main(["check", cascade_file, "--property", "conserve-stoich", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "stoichiometric"
    assert data["exists"] is True
    assert data["witness"] and all(isinstance(v, str) for v in data["witness"])

    rho = "1,2,4,1,4,5,2,2,1"
    argv = ["check", cascade_file, "--property", "conserve-kinetic", "--candidate", rho, "--json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "kinetic"
    assert data["candidate"] == rho.split(",")
    assert data["candidate_valid"] is True
    assert data["residual"] == "0"


def test_check_qfi(system_file, tmp_path, capsys):
    assert main(["check", system_file, "--property", "qfi", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is True
    assert data["candidate"] == "x^2 + y^2"

    growth = write(tmp_path, "growth.txt", "vars x y\nx\ny\n")
    assert main(["check", growth, "--property", "qfi"]) == 1
    assert "none" in capsys.readouterr().out


def test_check_qfi_filter(tmp_path, capsys):
    mixed = write(tmp_path, "mixed.txt", "vars x y z\ny*z\nx*z\n-x*z - y*z\n")
    assert main(["check", mixed, "--property", "qfi"]) == 0
    capsys.readouterr()
    assert main(
        ["check", mixed, "--property", "qfi", "--filter", "positive-diagonal"]
    ) == 1


def test_check_log_lv(tmp_path, capsys):
    lv = write(tmp_path, "lv.txt", "vars p q\np*q - p\n-p*q + q\n")
    assert main(["check", lv, "--property", "log-lv"]) == 0
    assert "ln" in capsys.readouterr().out
    other = write(tmp_path, "other.txt", "vars p q\np*q - p\n-p*q + 2*q\n")
    assert main(["check", other, "--property", "log-lv"]) == 1


def test_check_no_periodic(tmp_path, capsys):
    path = write(tmp_path, "div.txt", DIVERGENT_SYSTEM_TEXT)
    assert main(
        ["check", path, "--property", "no-periodic",
         "--invariant", "x^2 + y^2 + z^2"]
    ) == 0
    out = capsys.readouterr().out
    assert "no periodic orbit" in out and "yes" in out
    assert "-5*x - 9*y - 13*z" in out
    # omitting --invariant still succeeds: the search finds one itself
    assert main(["check", path, "--property", "no-periodic"]) == 0
    capsys.readouterr()
    # negative divergence alone is not enough when no integral exists
    decay = write(tmp_path, "decay.txt", "vars x y\n-x\n-2*y\n")
    assert main(["check", decay, "--property", "no-periodic"]) == 1
    out = capsys.readouterr().out
    assert "inconclusive" in out
    assert "first integral known: no" in out


def test_check_no_periodic_beyond_the_theorems(tmp_path, capsys):
    # negative divergence plus a first integral whose level sets are not disks
    limit = write(tmp_path, "limit.txt", LIMIT_CYCLE_4D_TEXT)
    saddle = write(tmp_path, "saddle.txt", SADDLE_3D_TEXT)
    for argv in (
        [limit], [limit, "--invariant", "w^2"], [saddle], [saddle, "--invariant", "x^2 - y^2"]
    ):
        assert main(["check", *argv, "--property", "no-periodic", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "inconclusive"
        assert data["divergence_negative"] is True
        assert data["first_integral"] is None


@pytest.mark.parametrize(
    "text, invariant, code, tail",
    [
        pytest.param(
            LIMIT_CYCLE_4D_TEXT, "w^2", 1,
            ["  supplied first integral verified but not used: the rule for n >= 4 "
             "accepts none, as a level set has dimension 3 or more"],
            id="4d",
        ),
        pytest.param(
            SADDLE_3D_TEXT, "x^2 - y^2", 1,
            ["  supplied first integral verified but not used: the rule for n = 3 accepts "
             "only a nonzero linear form or a positive-definite form with no linear part"],
            id="3d",
        ),
        pytest.param(
            "vars x y z\ny*z\nx*z\n-x*z - y*z\n", "x^2 - y^2", 0,
            ["  supplied first integral verified but not used: the rule for n = 3 accepts "
             "only a nonzero linear form or a positive-definite form with no linear part",
             "  first integral known: yes"],
            id="3d-linear-found",
        ),
    ],
)
def test_check_no_periodic_names_the_rule_for_a_supplied_integral(
    tmp_path, capsys, text, invariant, code, tail
):
    path = write(tmp_path, "sys.txt", text)
    assert main(["check", path, "--property", "no-periodic", "--invariant", invariant]) == code
    assert capsys.readouterr().out.splitlines()[3:] == tail


def test_check_stoich_requires_network(system_file, capsys):
    assert main(["check", system_file, "--property", "conserve-stoich"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_property_rejected(system_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", system_file, "--property", "banana"])
    assert info.value.code == 2
    capsys.readouterr()


# -- generate ---------------------------------------------------------------

def test_generate_diagonal(capsys):
    code = main(
        ["generate", "--family", "diagonal", "--weights", "1,1",
         "--coupling", "0,2;3,0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "system: {-3*x*y + 2*y^2, 3*x^2 - 2*x*y}" in out
    assert "invariant: x^2 + y^2" in out
    assert "kinetic=yes" in out
    assert "realization_round_trip=yes" in out


GENERATE_CASES = [
    ["--family", "diagonal", "--weights", "1,2", "--coupling", "0,3;1,0"],
    ["--family", "mixed-sign", "--plus-weights", "1", "--minus-weights", "1",
     "--coupling", "1", "--rho-plus", "1", "--rho-minus", "1"],
    ["--family", "ellipse-hyperbola", "--a", "2", "--b", "1", "--c", "3",
     "--k", "1", "--l", "1"],
    ["--family", "parabolic-plus", "--a", "1", "--b", "1", "--c", "1",
     "--k", "1", "--m", "1", "--s", "-1"],
    ["--family", "parabolic-minus", "--a", "1", "--b", "1", "--c", "1",
     "--k", "1", "--r", "2"],
    ["--family", "indefinite", "--a", "1", "--b", "2", "--c", "3",
     "--k", "1", "--l", "1", "--m", "1"],
    ["--family", "rank-one", "--a", "1", "--b", "1", "--k", "1", "--s", "1"],
    ["--family", "shifted", "--rate-A", "1", "--rate-B", "1",
     "--shift-a", "1", "--shift-b", "1"],
]


@pytest.mark.parametrize("argv", GENERATE_CASES, ids=lambda a: a[1])
def test_generate_families_verify(argv, capsys):
    assert main(["generate", *argv, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(data["checks"].values()), data["checks"]
    assert data["realization"]["steps"] or data["system"]["components"]


def test_generate_mixed_sign_fixture(capsys):
    code = main(
        ["generate", "--family", "mixed-sign", "--plus-weights", "1",
         "--minus-weights", "1", "--coupling", "1", "--rho-plus", "1",
         "--rho-minus", "1", "--json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["system"]["components"] == ["y*z", "x*z", "-x*z - y*z"]
    assert data["checks"]["kinetically_conserving"] is True


def test_generate_constraint_violation(capsys):
    code = main(
        ["generate", "--family", "ellipse-hyperbola",
         "--a", "1", "--b", "1", "--c", "1", "--k", "1", "--l", "1"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_missing_arguments(capsys):
    assert main(["generate", "--family", "diagonal"]) == 2
    assert "--weights" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, option",
    [("shifted", "--rate-A"), ("shifted", "--rate-B"), ("shifted", "--shift-a"),
     ("shifted", "--shift-b"), ("mixed-sign", "--rho-z"), ("ellipse-hyperbola", "--c")],
)
def test_generate_refuses_an_empty_scalar_option(family, option, capsys):
    # an empty value is read like any other, not taken for the default
    argv = next(case for case in GENERATE_CASES if case[1] == family)
    assert main(["generate", *argv, option, ""]) == 2
    assert capsys.readouterr().err == "error: invalid rational literal ''\n"


NEGATIVE_VALUE_CASES = [
    ["--family", "rank-one", "--a", "1", "--b", "1", "--k", "1", "--s", "-1/2"],
    ["--family", "shifted", "--rate-A", "1", "--rate-B", "0", "--shift-a", "-1/2",
     "--shift-b", "1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_VALUE_CASES, ids=lambda a: a[1])
def test_negative_option_values_need_no_equals_sign(argv, capsys):
    # argparse alone would take "-1/2" for an unknown option and refuse "--s -1/2"
    assert main(["generate", *argv, "--json"]) == 0
    spaced = capsys.readouterr()
    at = argv.index("-1/2")
    joined = [*argv[: at - 1], f"{argv[at - 1]}=-1/2", *argv[at + 1 :]]
    assert main(["generate", *joined, "--json"]) == 0
    assert capsys.readouterr() == spaced
    assert all(json.loads(spaced.out)["checks"].values())


def test_a_negative_weight_reaches_the_family_check(capsys):
    argv = ["generate", "--family", "diagonal", "--weights", "-2,1", "--coupling", "0,1;1,0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: weights must be strictly positive\n"


@pytest.mark.parametrize("tail", [["--s"], ["--s", "--json"]])
def test_an_option_without_its_value_is_still_refused(tail, capsys):
    argv = ["generate", "--family", "rank-one", "--a", "1", "--b", "1", "--k", "1", *tail]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --s: expected one argument\n")


# -- realize ----------------------------------------------------------------

def test_realize_kinetic_system(system_file, capsys):
    assert main(["realize", system_file]) == 0
    out = capsys.readouterr().out
    assert "species: X Y" in out
    assert "X + Y ->[3] Y" in out


def test_realize_non_kinetic_system(tmp_path, capsys):
    path = write(tmp_path, "rot.txt", ROTATION_SYSTEM_TEXT)
    assert main(["realize", path]) == 1
    out = capsys.readouterr().out
    assert "realizable: no" in out


def test_realize_network_target(network_file, capsys):
    code = main(["realize", network_file, "--params", "a=2", "b=3"])
    assert code == 0
    capsys.readouterr()


# -- simulate ---------------------------------------------------------------

def test_simulate_writes_artifacts(network_file, tmp_path, capsys):
    outdir = tmp_path / "run"
    code = main(
        ["simulate", network_file, "--params", "a=2", "b=3", "--x0", "1,0",
         "--t-end", "1.0", "--invariant", "x^2 + y^2", "--out", str(outdir),
         "--seed", "7"]
    )
    assert code == 0
    names = {p.name for p in outdir.iterdir()}
    assert names == {"trajectory.csv", "drift.json", "report.json", "manifest.json"}
    drift = json.loads((outdir / "drift.json").read_text())
    assert drift["max_abs_drift"] < 1e-9
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert network_file in manifest["inputs"]
    assert set(manifest["outputs"]) == {"trajectory.csv", "drift.json", "report.json"}
    header = (outdir / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,y,V"
    capsys.readouterr()


def test_simulate_manifest_reproducible(network_file, tmp_path, capsys):
    outdir = tmp_path / "repro"
    argv = [
        "simulate", network_file, "--params", "a=2", "b=3", "--x0", "1,0",
        "--t-end", "0.1", "--invariant", "auto", "--out", str(outdir),
    ]
    assert main(argv) == 0
    first = (outdir / "manifest.json").read_bytes()
    assert main(argv) == 0
    assert (outdir / "manifest.json").read_bytes() == first
    capsys.readouterr()


def test_crlf_input_parses_the_same_and_is_hashed_raw(tmp_path, capsys):
    lf = tmp_path / "lf.crn"
    crlf = tmp_path / "crlf.crn"
    lf.write_bytes(CATALYTIC_CASCADE_TEXT.encode())
    crlf.write_bytes(CATALYTIC_CASCADE_TEXT.replace("\n", "\r\n").encode())
    reports = []
    for path, outdir in ((lf, tmp_path / "out-lf"), (crlf, tmp_path / "out-crlf")):
        assert main(["parse", str(path), "--json", "--out", str(outdir)]) == 0
        reports.append((outdir / "report.json").read_bytes())
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        }
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_check_with_out_opens_its_target_once(cascade_file, tmp_path, monkeypatch, capsys):
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if not isinstance(file, int) and os.fspath(file) == cascade_file:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    argv = ["check", cascade_file, "--property", "conserve-stoich", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(opened) == 1
    capsys.readouterr()


def test_simulate_auto_invariant(system_file, capsys):
    code = main(
        ["simulate", system_file, "--x0", "1,0", "--t-end", "0.1",
         "--invariant", "auto", "--json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["invariant"] == "x^2 + y^2"
    assert data["drift"]["max_abs_drift"] < 1e-10


def test_simulate_rkf45_and_projection(system_file, capsys):
    code = main(
        ["simulate", system_file, "--x0", "1,0", "--t-end", "1.0",
         "--method", "rkf45", "--tol", "1e-10", "--invariant", "auto"]
    )
    assert code == 0
    capsys.readouterr()
    code = main(
        ["simulate", system_file, "--x0", "1,0", "--t-end", "1.0",
         "--invariant", "auto", "--project", "--json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["drift"]["max_abs_drift"] < 1e-13


def test_simulate_rejects_non_integral(system_file, capsys):
    code = main(
        ["simulate", system_file, "--x0", "1,0", "--invariant", "x^2"]
    )
    assert code == 2
    assert "not a first integral" in capsys.readouterr().err


def test_simulate_auto_without_integral(tmp_path, capsys):
    growth = write(tmp_path, "growth.txt", "vars x y\nx\ny\n")
    code = main(["simulate", growth, "--x0", "1,1", "--invariant", "auto"])
    assert code == 2
    assert "no quadratic first integral" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--method", "rkf45", "--tol", "nan"], "must be finite"),
        (["--t-end", "nan"], "must be finite"),
        (["--dt", "inf"], "must be finite"),
        (["--x0", "1e400,1"], "initial value of x is too large for a float"),
    ],
)
def test_simulate_rejects_nonfinite_settings(system_file, capsys, extra, message):
    code = main(["simulate", system_file, "--x0", "1,0"] + extra)
    assert code == 2
    assert message in capsys.readouterr().err


def test_simulate_rejects_coefficient_too_large_for_a_float(tmp_path, capsys):
    path = write(tmp_path, "huge.txt", "vars x\n-1" + "0" * 400 + "*x\n")
    code = main(["simulate", path, "--x0", "1", "--t-end", "0.1"])
    assert code == 2
    assert "coefficient of x in dx/dt is too large for a float" in capsys.readouterr().err


def test_simulate_rejects_too_many_fixed_steps(system_file, capsys):
    start = time.perf_counter()
    code = main(["simulate", system_file, "--x0", "1,0.5", "--dt", "1e-20", "--t-end", "1"])
    assert code == 2
    assert "takes 1e+20 steps" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_simulate_rejects_too_many_samples(system_file, capsys):
    start = time.perf_counter()
    code = main(["simulate", system_file, "--x0", "1,0.5", "--dt", "1e-6", "--t-end", "10"])
    assert code == 2
    assert "stores 1e+07 samples" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "text, limit",
    [
        ("vars x\nx^100000000000\n", "MAX_DEGREE"),
        ("vars x y z\n(x+y+z+1)^50\nx\ny\n", "MAX_TERMS"),
        pytest.param(
            "vars x y\n" + " + ".join(["(x+y+1)^2*(x+y+1)^2"] * 200) + "\nx\n",
            "MAX_PARSE_TERMS",
            id="summed-MAX_PARSE_TERMS",
        ),
        ("100000000000A ->[1] B\n", "MAX_DEGREE"),
        pytest.param(
            '{"species": ["A", "B"], "steps": [{"reactant": {"A": "100000000000"}, '
            '"product": {"B": "1"}, "rate": "1"}]}',
            "MAX_DEGREE",
            id="json-network-MAX_DEGREE",
        ),
    ],
)
def test_check_refuses_oversized_expansion(tmp_path, capsys, text, limit):
    path = write(tmp_path, "big.txt", text)
    start = time.perf_counter()
    assert main(["check", path, "--property", "kinetic"]) == 2
    assert f"above {limit} = " in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "document, message",
    [
        pytest.param(
            '{"species": [1], "steps": []}',
            "'species' must be a list of names",
            id="species-not-names",
        ),
        pytest.param(
            '{"species": ["A"], "steps": {"a": 1}}',
            "'steps' must be a list of steps",
            id="steps-not-a-list",
        ),
        pytest.param(
            '{"species": ["A"], "steps": [5]}',
            "step 1 must be an object",
            id="step-not-an-object",
        ),
        pytest.param(
            '{"species": ["A", "B"], "steps": [{"reactant": 5, "product": {"B": "1"}, "rate": "1"}]}',
            "step 1 'reactant' must map species names to coefficients",
            id="reactant-not-a-mapping",
        ),
        pytest.param(
            '{"species": ["A", "B"], "steps": [{"reactant": {"A": "1"}, "product": {"B": "1"}}]}',
            "step 1 has no 'rate'",
            id="step-without-rate",
        ),
        pytest.param(
            '{"variables": ["x"], "components": [5]}',
            "'components' must be a list of strings",
            id="component-not-a-string",
        ),
        pytest.param(
            '{"variables": "xy", "components": ["y", "-x"]}',
            "'variables' must be a list of strings",
            id="variables-a-string",
        ),
        pytest.param(
            '{"species": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "JSON is nested too deeply",
            id="nested-100000-deep",
        ),
    ],
)
def test_malformed_json_input_exits_2(tmp_path, capsys, document, message):
    path = write(tmp_path, "bad.json", document)
    assert main(["check", path, "--property", "kinetic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{system}", "--x0", "inf,1"],
        ["simulate", "{system}", "--x0", "1e1000000,1"],
        ["odes", "{network}", "--params", "a=Infinity", "b=1"],
        ["check", "{network}", "--property", "kinetic", "--params", "a=1", "b=-inf"],
        ["check", "{cascade}", "--property", "conserve-kinetic", "--candidate", "inf,1"],
        ["generate", "--family", "rank-one", "--a", "inf", "--b", "1", "--k", "1", "--s", "1"],
        ["generate", "--family", "diagonal", "--weights", "1e2000,1", "--coupling", "0,1;1,0"],
    ],
    ids=" ".join,
)
def test_nonfinite_and_huge_numbers_exit_2(system_file, network_file, cascade_file, capsys, argv):
    files = {"system": system_file, "network": network_file, "cascade": cascade_file}
    start = time.perf_counter()
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid rational literal" in captured.err or "MAX_EXPONENT = 1000" in captured.err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, text",
    [
        (["simulate", "{system}", "--x0", "1,,2"], "1,,2"),
        (["check", "{network}", "--property", "conserve-stoich", "--candidate", "1,1,"], "1,1,"),
        (["generate", "--family", "diagonal", "--weights", " ,1,1", "--coupling", "0,1;1,0"],
         " ,1,1"),
        (["generate", "--family", "diagonal", "--weights", "1,1", "--coupling", "0,1;,1,0"],
         ",1,0"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_blank_vector_entries_exit_2(system_file, network_file, capsys, argv, text):
    # dropping the blank entry would leave a vector of the expected length
    files = {"system": system_file, "network": network_file}
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: blank entry in comma-separated list {text!r}\n"


def test_an_empty_vector_is_an_empty_block(capsys):
    argv = ["generate", "--family", "mixed-sign", "--plus-weights", "1,1", "--minus-weights", "",
            "--coupling", ";", "--rho-plus", "1,1", "--rho-minus", "", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["system"]["components"] == ["0", "0", "0"]


def test_deeply_nested_component_exits_2(tmp_path, capsys):
    path = write(tmp_path, "nest.txt", "vars x\n" + "(" * 400 + "x" + ")" * 400 + "\n")
    assert main(["check", path, "--property", "kinetic"]) == 2
    assert "MAX_NESTING = 100" in capsys.readouterr().err


def test_nested_constant_power_exits_2(tmp_path, capsys):
    path = write(tmp_path, "power.txt", "vars x\n(((2)^100)^100)^100*x\n")
    start = time.perf_counter()
    assert main(["check", path, "--property", "kinetic"]) == 2
    assert "above MAX_COEFFICIENT_BITS = " in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0
    path = write(tmp_path, "small.txt", "vars x y\n(2)^100*y\n-(3/2)^50*x\n")
    assert main(["check", path, "--property", "kinetic"]) in (0, 1)


@pytest.mark.parametrize(
    "step, message",
    [
        pytest.param(
            '{"reactant": {"A": "1"}, "product": {"A": "1"}, "rate": "1"}',
            "step has identical reactant and product",
            id="self-loop",
        ),
        pytest.param(
            '{"reactant": {"A": "100000000000"}, "product": {"B": "1"}, "rate": "1"}',
            "reactant complex of degree 100000000000 is above MAX_DEGREE = 100",
            id="oversized-reactant",
        ),
        pytest.param(
            '{"reactant": {"C": "1"}, "product": {"B": "1"}, "rate": "1"}',
            "unknown species 'C' in complex",
            id="unknown-species",
        ),
        pytest.param(
            '{"reactant": {"A": "1"}, "product": {"B": "1"}, "rate": "-2"}',
            "invalid rate parameter '-2'",
            id="bad-rate",
        ),
        pytest.param(
            '{"reactant": {"A": "1", "B": "0"}, "product": {"B": "1"}, "rate": "1"}',
            "stoichiometric coefficient must be positive, got 0",
            id="zero-coefficient",
        ),
        pytest.param(
            '{"reactant": {"A": "1"}, "product": {"B": "1"}, "rate": NaN}',
            "invalid rational literal 'nan'",
            id="nan-rate",
        ),
        pytest.param(
            '{"reactant": {"A": "1"}, "product": {"B": "1"}, "rate": -Infinity}',
            "invalid rational literal '-inf'",
            id="negative-infinite-rate",
        ),
        pytest.param(
            '{"reactant": {"A": "1"}, "product": {"B": "1"}, "rate": -2}',
            "rate must be positive, got -2",
            id="negative-number-rate",
        ),
    ],
)
def test_json_step_faults_name_the_step(tmp_path, capsys, step, message):
    good = '{"reactant": {"A": "1"}, "product": {"B": "1"}, "rate": "1"}'
    document = '{"species": ["A", "B"], "steps": [' + good + ", " + step + "]}"
    path = write(tmp_path, "bad.json", document)
    assert main(["check", path, "--property", "kinetic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: network JSON step 2: {message}\n"


def _sparse_text(n):
    names = [f"x{i}" for i in range(n)]
    components = [
        f"{names[i]}*{names[(i + 1) % n]} - {names[(i + 2) % n]}^2 + {names[i]}" for i in range(n)
    ]
    return "vars " + " ".join(names) + "\n" + "\n".join(components) + "\n"


def _dense_text(n):
    names = [f"x{i}" for i in range(n)]
    square = "(" + " + ".join(f"{i + 1}*{name}" for i, name in enumerate(names)) + " + 1)^2"
    return "vars " + " ".join(names) + "\n" + "\n".join([square] * n) + "\n"


@pytest.mark.parametrize(
    "text, n", [(_sparse_text(100), 100), (_dense_text(18), 18)], ids=["sparse", "dense"]
)
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_full_search_refuses_oversized_systems(tmp_path, capsys, text, n, command):
    path = write(tmp_path, "big.txt", text)
    argv = (
        ["check", path, "--property", "qfi"]
        if command == "check"
        else ["simulate", path, "--x0", ",".join(["1"] * n), "--invariant", "auto"]
    )
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: full first-integral search of size ")
    assert captured.err.endswith(" is above MAX_SEARCH_SIZE = 4000000\n")


INVALID_NAME = "expected a letter or '_', then letters, digits or '_'"

# Arguments ({file} is the input), input text or None, exit code, and the exact
# last line of stderr, or of stdout when the call succeeds.
MESSAGE_CASES = [
    ("variable-name-text", ["check", "{file}", "--property", "qfi", "--json"],
     "vars 1x y\n0\ny\n", 2, f"error: invalid variable name '1x': {INVALID_NAME}"),
    ("variable-name-json", ["check", "{file}", "--property", "kinetic"],
     '{"variables": ["x*y", "z"], "components": ["0", "0"]}', 2,
     f"error: invalid variable name 'x*y': {INVALID_NAME}"),
    ("division-by-zero", ["check", "{file}", "--property", "kinetic"],
     "vars x\n1/0*x\n", 2, "error: division by zero in coefficient"),
    ("empty-expression", ["check", "{file}", "--property", "kinetic"],
     '{"variables": ["x"], "components": [" "]}', 2, "error: empty polynomial expression"),
    ("no-vars-names", ["check", "{file}", "--property", "kinetic"],
     "vars\n", 2, 'error: system must start with a "vars x y ..." line'),
    ("duplicate-vars", ["check", "{file}", "--property", "kinetic"],
     "vars x x\n0\n0\n", 2, "error: duplicate variable names in vars line"),
    ("component-count", ["check", "{file}", "--property", "kinetic"],
     "vars x y\n0\n", 2, "error: expected 2 component lines, found 1"),
    ("no-reactions", ["parse", "{file}"],
     "# nothing here\n", 2, "error: line 1, column 1: no reactions found"),
    ("no-arrow", ["parse", "{file}"],
     "A + B\n", 2, "error: line 1, column 5: chain needs at least one arrow"),
    ("expected-arrow", ["parse", "{file}"],
     "A ->[1] B C\n", 2, "error: line 1, column 11: expected an arrow, found 'C'"),
    ("expected-rate", ["parse", "{file}"],
     "A ->[,] B\n", 2, "error: line 1, column 6: expected rate, found ','"),
    ("unexpected-number", ["parse", "{file}"],
     "A + 2 ->[1] B\n", 2, "error: line 1, column 5: unexpected number '2'"),
    ("params-binding", ["odes", "{file}", "--params", "a2"],
     EXAMPLE_NETWORK_TEXT, 2, "error: parameter binding 'a2' must look like name=value"),
    ("json-kind", ["parse", "{file}"],
     '{"steps": []}', 2, "error: {file}: JSON has neither 'species' nor 'variables'"),
    ("invariant-degree", ["check", "{file}", "--property", "no-periodic", "--invariant", "x^3"],
     KINETIC_SYSTEM_TEXT, 2, "error: invariant 'x^3' has degree > 2"),
    ("binary-family-options", ["generate", "--family", "ellipse-hyperbola", "--a", "1"],
     None, 2, "error: family ellipse-hyperbola needs --a and --b"),
    ("mixed-sign-options", ["generate", "--family", "mixed-sign", "--plus-weights", "1"],
     None, 2, "error: mixed-sign family needs --plus-weights, --minus-weights, "
     "--coupling, --rho-plus and --rho-minus"),
    ("parse-degenerate", ["parse", "{file}"],
     '{"species": ["A", "B", "C"], "steps": '
     '[{"reactant": {"A": "1"}, "product": {"B": "1"}, "rate": "1"}]}',
     0, "note: network is degenerate (C)"),
    ("realize-degenerate", ["realize", "{file}"],
     "vars x y\n0\n0\n", 0, "note: degenerate realization (zero system or unused species)"),
]


@pytest.mark.parametrize(
    "argv, text, code, line",
    [pytest.param(*case[1:], id=case[0]) for case in MESSAGE_CASES],
)
def test_messages(tmp_path, capsys, argv, text, code, line):
    path = write(tmp_path, "input", text) if text is not None else None
    assert main([arg.format(file=path) for arg in argv]) == code
    captured = capsys.readouterr()
    assert (captured.err if code == 2 else captured.out).splitlines()[-1] == line.format(file=path)
    if code == 2:
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["odes", "{network}", "--params", "a=1", "a=2", "b=1"],
         "parameter 'a' is bound more than once in --params"),
        (["odes", "{network}", "--params", "a=1", "b=1", "--params", "a=2", "b=3"],
         "--params is given more than once; give every binding in one --params"),
        (["odes", "{network}", "--params", "a=1", "b=1", "c=4"],
         "--params binds 'c', which no rate of the network uses"),
        (["check", "{network}", "--property", "conserve-stoich", "--params", "k=1"],
         "--params binds 'k', which no rate of the network uses"),
        (["realize", "{network}", "--params", "a=1", "b=1", "--params"],
         "--params is given more than once; give every binding in one --params"),
        (["check", "{system}", "--property", "kinetic", "--params", "a=3"],
         "--params binds 'a', but a polynomial system has no rate parameters"),
        (["realize", "{system}", "--params", "x=1"],
         "--params binds 'x', but a polynomial system has no rate parameters"),
        (["simulate", "{system}", "--x0", "1,0", "--params", "a=1"],
         "--params binds 'a', but a polynomial system has no rate parameters"),
    ],
    ids=" ".join,
)
def test_params_that_would_be_dropped_are_refused(network_file, system_file, capsys, argv, message):
    files = {"network": network_file, "system": system_file}
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_params_bind_each_rate_parameter_once(network_file, capsys):
    # the network's own parameters, each once, in any order; an empty --params binds nothing
    assert main(["odes", network_file, "--params", "b=3", "a=2"]) == 0
    assert capsys.readouterr().out.strip() == "{-3*x*y + 2*y^2, 3*x^2 - 2*x*y}"
    argv = ["check", network_file, "--property", "conserve-stoich"]
    assert main(argv + ["--params"]) == main(argv) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["odes", "{target}"],
        ["check", "{target}", "--property", "kinetic"],
        ["realize", "{target}"],
        ["simulate", "{target}", "--x0", "1,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_target_is_read_before_the_binding(tmp_path, network_file, capsys, argv):
    # every command that takes --params reports its target's faults first
    bad_binding = ["--params", "a"]
    missing = str(tmp_path / "missing.crn")
    assert main([arg.format(target=missing) for arg in argv] + bad_binding) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {missing!r}\n"
    )
    malformed = write(tmp_path, "bad.crn", "A ->[1] B C\n")
    assert main([arg.format(target=malformed) for arg in argv] + bad_binding) == 2
    assert capsys.readouterr().err == "error: line 1, column 11: expected an arrow, found 'C'\n"
    assert main([arg.format(target=network_file) for arg in argv] + bad_binding) == 2
    assert capsys.readouterr().err == "error: parameter binding 'a' must look like name=value\n"


def test_warnings_are_one_line_each(tmp_path, capsys):
    path = write(tmp_path, "dup.crn", "A ->[1] B\nA ->[2] B\n")
    assert main(["parse", path]) == 0
    assert capsys.readouterr().err == "warning: duplicate step A ->[2] B merged by summing rates\n"
    # a warning raised before a failure is printed before its error line
    path = write(tmp_path, "unbound.crn", "A ->[k] B\nA ->[k] B\n")
    assert main(["odes", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "warning: duplicate step A ->[k] B merged by summing rates"
    assert len(err) == 2 and err[1].startswith("error: ")


def test_simulate_abort_is_exit_one(tmp_path, capsys):
    path = write(tmp_path, "blow.txt", "vars x\nx^2\n")
    code = main(["simulate", path, "--x0", "2", "--t-end", "1.0"])
    assert code == 1
    assert "simulation aborted" in capsys.readouterr().err


# -- presentation -----------------------------------------------------------

class _FakeTty(io.StringIO):
    def isatty(self):
        return True


def test_color_respects_environment(system_file, monkeypatch):
    monkeypatch.delenv("CRNKIT_NO_COLOR", raising=False)
    buf = _FakeTty()
    monkeypatch.setattr(sys, "stdout", buf)
    assert main(["check", system_file, "--property", "kinetic"]) == 0
    assert "\x1b[32m" in buf.getvalue()

    monkeypatch.setenv("CRNKIT_NO_COLOR", "1")
    buf = _FakeTty()
    monkeypatch.setattr(sys, "stdout", buf)
    assert main(["check", system_file, "--property", "kinetic"]) == 0
    assert "\x1b[" not in buf.getvalue()


def test_plain_pipe_output_has_no_color(system_file, capsys):
    assert main(["check", system_file, "--property", "kinetic"]) == 0
    assert "\x1b[" not in capsys.readouterr().out


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "crnkit", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("crnkit")


# -- one parser per process -------------------------------------------------

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_seed_does_not_leak_between_calls(system_file, tmp_path, capsys):
    first, second = tmp_path / "d1", tmp_path / "d2"
    argv = ["check", system_file, "--property", "kinetic", "--out"]
    assert main(argv + [str(first), "--seed", "7"]) == 0
    assert main(argv + [str(second)]) == 0
    capsys.readouterr()
    assert json.loads((first / "manifest.json").read_text())["seed"] == 7
    assert json.loads((second / "manifest.json").read_text())["seed"] is None


def test_filter_does_not_leak_between_calls(tmp_path, capsys):
    mixed = write(tmp_path, "mixed.txt", "vars x y z\ny*z\nx*z\n-x*z - y*z\n")
    qfi = ["check", mixed, "--property", "qfi", "--json"]
    assert main(qfi) == 0
    plain = capsys.readouterr().out
    assert main(qfi + ["--filter", "positive-diagonal"]) == 1
    assert json.loads(capsys.readouterr().out)["found"] is False
    assert main(qfi) == 0
    assert capsys.readouterr().out == plain


def test_valid_call_after_argument_error(system_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", system_file])
    assert info.value.code == 2
    assert "--property" in capsys.readouterr().err
    assert main(["check", system_file, "--property", "kinetic"]) == 0
    assert "kinetic: yes" in capsys.readouterr().out


# -- pinned output ------------------------------------------------------------

GOLDEN_INPUTS = {
    "net.crn": EXAMPLE_NETWORK_TEXT,
    "cascade.crn": CATALYTIC_CASCADE_TEXT,
    "sys.txt": KINETIC_SYSTEM_TEXT,
    "rot.txt": ROTATION_SYSTEM_TEXT,
    "div.txt": DIVERGENT_SYSTEM_TEXT,
    "mixed.txt": "vars x y z\ny*z\nx*z\n-x*z - y*z\n",
    "lv.txt": "vars p q\np*q - p\n-p*q + q\n",
}

# Exit code and the leading 16 hex digits of the sha256 of stdout, stderr
# ("" when empty) and every file written to --out, for every subcommand and
# property in text mode and with --json --out.  Relative paths keep the
# manifests independent of the directory the test runs in.
GOLDEN_CALLS = [
    (["parse", "net.crn"],
     {"exit": 0, "stdout": "1841909288f087b2", "stderr": ""}),
    (["parse", "net.crn", "--json", "--out", "out"],
     {
      "exit": 0,
      "stdout": "7083cb0895218686",
      "stderr": "",
      "manifest.json": "45c9eb06313b9755",
      "network.json": "7083cb0895218686",
      "report.json": "7083cb0895218686",
     }),
    (["odes", "net.crn", "--params", "a=2", "b=3"],
     {"exit": 0, "stdout": "de946149c34aed6e", "stderr": ""}),
    (["odes", "net.crn", "--params", "a=2", "b=3", "--json", "--out", "out"],
     {
      "exit": 0,
      "stdout": "cbec807617a6c0cb",
      "stderr": "",
      "manifest.json": "5b52ae16f90d5de0",
      "report.json": "cbec807617a6c0cb",
     }),
    (["check", "sys.txt", "--property", "kinetic"],
     {"exit": 0, "stdout": "06becee7e1496a57", "stderr": ""}),
    (["check", "sys.txt", "--property", "kinetic", "--json", "--out", "out"],
     {
      "exit": 0,
      "stdout": "1c31dd712ea09782",
      "stderr": "",
      "manifest.json": "420c496b37e3e0f0",
      "report.json": "1c31dd712ea09782",
     }),
    (["check", "rot.txt", "--property", "kinetic"],
     {"exit": 1, "stdout": "8358e8c9296aaba0", "stderr": ""}),
    (["check", "rot.txt", "--property", "kinetic", "--json", "--out", "out"],
     {
      "exit": 1,
      "stdout": "cc4ab326ad417c60",
      "stderr": "",
      "manifest.json": "ee79337f61b09050",
      "report.json": "cc4ab326ad417c60",
     }),
    (["check", "cascade.crn", "--property", "conserve-stoich"],
     {"exit": 0, "stdout": "256a2d702dde9fe6", "stderr": ""}),
    (["check", "cascade.crn", "--property", "conserve-stoich", "--json", "--out", "out"],
     {
      "exit": 0,
      "stdout": "fd63ebbb5d426cf5",
      "stderr": "",
      "manifest.json": "ae9c3e42b2ab5668",
      "report.json": "fd63ebbb5d426cf5",
     }),
    (["check", "cascade.crn", "--property", "conserve-stoich", "--candidate", "1,2,4,1,4,5,2,2,1"],
     {"exit": 1, "stdout": "c14bb9fe598b135f", "stderr": ""}),
    ([
        "check", "cascade.crn", "--property", "conserve-stoich", "--candidate",
        "1,2,4,1,4,5,2,2,1", "--json", "--out", "out",
    ],
     {
      "exit": 1,
      "stdout": "26da1c618ad5e3c4",
      "stderr": "",
      "manifest.json": "c57175a01f257617",
      "report.json": "26da1c618ad5e3c4",
     }),
    ([
        "check", "cascade.crn", "--property", "conserve-kinetic", "--candidate",
        "1,2,4,1,4,5,2,2,1",
    ],
     {"exit": 0, "stdout": "e5afb834f0922bc1", "stderr": ""}),
    ([
        "check", "cascade.crn", "--property", "conserve-kinetic", "--candidate",
        "1,2,4,1,4,5,2,2,1", "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "86fd7fb19a55e736",
      "stderr": "",
      "manifest.json": "519bd1806a443a46",
      "report.json": "86fd7fb19a55e736",
     }),
    (["check", "sys.txt", "--property", "qfi"],
     {"exit": 0, "stdout": "a8cccc2d43a32029", "stderr": ""}),
    (["check", "sys.txt", "--property", "qfi", "--json", "--out", "out"],
     {
      "exit": 0,
      "stdout": "abe300816aa26a43",
      "stderr": "",
      "manifest.json": "f968b3c02ec198aa",
      "report.json": "abe300816aa26a43",
     }),
    (["check", "mixed.txt", "--property", "qfi", "--filter", "positive-diagonal"],
     {"exit": 1, "stdout": "8dfb6e550b401391", "stderr": ""}),
    ([
        "check", "mixed.txt", "--property", "qfi", "--filter", "positive-diagonal", "--json",
        "--out", "out",
    ],
     {
      "exit": 1,
      "stdout": "5faf3a1b2816ded1",
      "stderr": "",
      "manifest.json": "e59a8077e7832ece",
      "report.json": "5faf3a1b2816ded1",
     }),
    (["check", "lv.txt", "--property", "log-lv"],
     {"exit": 0, "stdout": "14a7063d21204ebf", "stderr": ""}),
    (["check", "lv.txt", "--property", "log-lv", "--json", "--out", "out"],
     {
      "exit": 0,
      "stdout": "a9494141b36720cb",
      "stderr": "",
      "manifest.json": "4a9f0b06022a9618",
      "report.json": "a9494141b36720cb",
     }),
    (["check", "div.txt", "--property", "no-periodic", "--invariant", "x^2 + y^2 + z^2"],
     {"exit": 0, "stdout": "a338795fc061c804", "stderr": ""}),
    ([
        "check", "div.txt", "--property", "no-periodic", "--invariant", "x^2 + y^2 + z^2",
        "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "a784c970c270f939",
      "stderr": "",
      "manifest.json": "9d673c2eaeb29557",
      "report.json": "a784c970c270f939",
     }),
    (["generate", "--family", "diagonal", "--weights", "1,1", "--coupling", "0,2;3,0"],
     {"exit": 0, "stdout": "9e1da7f8d1cdd51b", "stderr": ""}),
    ([
        "generate", "--family", "diagonal", "--weights", "1,1", "--coupling", "0,2;3,0", "--json",
        "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "81b443475007e001",
      "stderr": "",
      "manifest.json": "3d11455605895c47",
      "report.json": "81b443475007e001",
     }),
    ([
        "generate", "--family", "mixed-sign", "--plus-weights", "1", "--minus-weights", "1",
        "--coupling", "1", "--rho-plus", "1", "--rho-minus", "1",
    ],
     {"exit": 0, "stdout": "f3d0941deb59340c", "stderr": ""}),
    ([
        "generate", "--family", "mixed-sign", "--plus-weights", "1", "--minus-weights", "1",
        "--coupling", "1", "--rho-plus", "1", "--rho-minus", "1", "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "d9972804560658c3",
      "stderr": "",
      "manifest.json": "d980e50efb326df0",
      "report.json": "d9972804560658c3",
     }),
    ([
        "generate", "--family", "ellipse-hyperbola", "--a", "2", "--b", "1", "--c", "3", "--k",
        "1", "--l", "1",
    ],
     {"exit": 0, "stdout": "1af69019b1487de3", "stderr": ""}),
    ([
        "generate", "--family", "ellipse-hyperbola", "--a", "2", "--b", "1", "--c", "3", "--k",
        "1", "--l", "1", "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "fc47bb504d9fec61",
      "stderr": "",
      "manifest.json": "4721e0dd278477fe",
      "report.json": "fc47bb504d9fec61",
     }),
    ([
        "generate", "--family", "parabolic-plus", "--a", "1", "--b", "1", "--c", "1", "--k", "1",
        "--m", "1", "--s", "-1",
    ],
     {"exit": 0, "stdout": "433c3ebafe477bc0", "stderr": ""}),
    ([
        "generate", "--family", "parabolic-plus", "--a", "1", "--b", "1", "--c", "1", "--k", "1",
        "--m", "1", "--s", "-1", "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "3de8aa5183c119c8",
      "stderr": "",
      "manifest.json": "b738961fabf736d3",
      "report.json": "3de8aa5183c119c8",
     }),
    ([
        "generate", "--family", "parabolic-minus", "--a", "1", "--b", "1", "--c", "1", "--k", "1",
        "--r", "2",
    ],
     {"exit": 0, "stdout": "e0d70c3d88e755e7", "stderr": ""}),
    ([
        "generate", "--family", "parabolic-minus", "--a", "1", "--b", "1", "--c", "1", "--k", "1",
        "--r", "2", "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "9ed619c52b0ba5ab",
      "stderr": "",
      "manifest.json": "a37f0ac232a35284",
      "report.json": "9ed619c52b0ba5ab",
     }),
    ([
        "generate", "--family", "indefinite", "--a", "1", "--b", "2", "--c", "3", "--k", "1",
        "--l", "1", "--m", "1",
    ],
     {"exit": 0, "stdout": "0359537051852251", "stderr": ""}),
    ([
        "generate", "--family", "indefinite", "--a", "1", "--b", "2", "--c", "3", "--k", "1",
        "--l", "1", "--m", "1", "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "3029dc42ad0c85c9",
      "stderr": "",
      "manifest.json": "11d71cd5e3ad5175",
      "report.json": "3029dc42ad0c85c9",
     }),
    ([
        "generate", "--family", "rank-one", "--a", "1", "--b", "1", "--k", "1", "--s", "1",
    ],
     {"exit": 0, "stdout": "49f6d359f2b755da", "stderr": ""}),
    ([
        "generate", "--family", "rank-one", "--a", "1", "--b", "1", "--k", "1", "--s", "1",
        "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "fbfe179fc82ec462",
      "stderr": "",
      "manifest.json": "c06f7ab7e84ccff5",
      "report.json": "fbfe179fc82ec462",
     }),
    (["realize", "sys.txt"],
     {"exit": 0, "stdout": "b7617fcd869a17af", "stderr": ""}),
    (["realize", "sys.txt", "--json", "--out", "out"],
     {
      "exit": 0,
      "stdout": "ea8eae627dc66899",
      "stderr": "",
      "manifest.json": "dd2a497ee2138d61",
      "network.json": "53d6cc0b1cd45524",
      "report.json": "ea8eae627dc66899",
     }),
    (["realize", "rot.txt"],
     {"exit": 1, "stdout": "f0154bdd972549c9", "stderr": ""}),
    (["realize", "rot.txt", "--json", "--out", "out"],
     {
      "exit": 1,
      "stdout": "4daf121dd141a309",
      "stderr": "",
      "manifest.json": "12336ad0b33fd2ab",
      "report.json": "4daf121dd141a309",
     }),
    ([
        "simulate", "net.crn", "--params", "a=2", "b=3", "--x0", "1,0", "--t-end", "0.5",
        "--invariant", "x^2 + y^2", "--seed", "7",
    ],
     {"exit": 0, "stdout": "d5750d0fae2b7984", "stderr": ""}),
    ([
        "simulate", "net.crn", "--params", "a=2", "b=3", "--x0", "1,0", "--t-end", "0.5",
        "--invariant", "x^2 + y^2", "--seed", "7", "--json", "--out", "out",
    ],
     {
      "exit": 0,
      "stdout": "fe5be2e98736a58f",
      "stderr": "",
      "drift.json": "7f5c486da5bbf7e0",
      "manifest.json": "1ba567142f7c6a20",
      "report.json": "fe5be2e98736a58f",
      "trajectory.csv": "0ce5c2c55ea41628",
     }),
    (["check", "sys.txt", "--property", "conserve-stoich"],
     {"exit": 2, "stdout": "", "stderr": "7d482f2b36687c30"}),
    (["check", "sys.txt", "--property", "conserve-stoich", "--json", "--out", "out"],
     {"exit": 2, "stdout": "", "stderr": "7d482f2b36687c30"}),
]


def _short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16] if data else ""


@pytest.mark.parametrize(
    "argv, expected",
    GOLDEN_CALLS,
    ids=[re.sub(r"\W+", "_", " ".join(argv)).strip("_") for argv, _ in GOLDEN_CALLS],
)
def test_output_bytes_are_pinned(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    code = main(list(argv))
    captured = capsys.readouterr()
    got = {
        "exit": code,
        "stdout": _short_digest(captured.out.encode()),
        "stderr": _short_digest(captured.err.encode()),
    }
    out = tmp_path / "out"
    if out.is_dir():
        for path in sorted(out.iterdir()):
            got[path.name] = _short_digest(path.read_bytes())
    assert got == expected
