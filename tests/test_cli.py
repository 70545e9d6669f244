"""CLI surface: JSON schema conformance, determinism, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import covermeasure
from covermeasure import asymptotics, cli


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def load_schema():
    text = resources.files("covermeasure").joinpath("output.schema.json").read_text()
    return json.loads(text)


SCHEMA = load_schema()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_no_constant)

SMOKE_COMMANDS = [
    ["graphs", "enumerate", "--rank", "2"],
    ["graphs", "enumerate", "--rank", "3"],
    ["measure", "weights", "--rank", "2"],
    ["measure", "lattice", "--graph", "theta", "--N", "5"],
    ["expect", "--rank", "2", "--functional", "systole", "--method", "exact"],
    ["expect", "--rank", "2", "--functional", "bridge", "--method", "mc",
     "--samples", "2000", "--seed", "1"],
    ["sample", "--rank", "2", "--count", "3", "--seed", "4"],
    ["invariant", "systole", "--graph", "dumbbell", "--lengths", "1/2,3/10,1/5"],
    ["invariant", "minedge", "--graph", "theta", "--lengths", "0.2,0.3,0.5"],
    ["pants", "ortho", "--boundaries", "1,1,10"],
    ["pants", "ortho", "--boundaries", "1,1,10", "--oracle"],
    ["count", "subgroups", "--genus", "2", "--rank", "2", "--L", "12"],
    ["count", "subgroups", "--genus", "2", "--rank", "2", "--L", "12",
     "--precision", "high"],
    ["count", "crit", "--graph", "dumbbell", "--genus", "2", "--L", "12"],
    ["ps", "model", "--genus", "2", "--rank", "2", "--s", "1.2"],
    ["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "10",
     "--seed", "0", "--s-list", "1.5,1.02", "--cap", "400"],
    ["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "10",
     "--seed", "0", "--s-list", "1.5,1.02", "--cap", "400", "--mode", "exact-marker"],
]


@pytest.mark.parametrize("argv", SMOKE_COMMANDS, ids=lambda a: " ".join(a))
def test_json_output_validates_against_schema(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    envelope = strict_json(out)
    jsonschema.validate(envelope, SCHEMA)
    assert envelope["records"]


def test_ps_sum_command(tmp_path):
    path = tmp_path / "lengths.txt"
    path.write_text("1.0\n2.0\n3.0\n")
    code, out, _ = run_cli(["ps", "sum", "--lengths-file", str(path),
                            "--s", "2.0", "--L", "10"])
    assert code == 0
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    rec = envelope["records"][0]
    assert rec["n_lengths"] == 3
    assert abs(rec["partial_sum"] - rec["stieltjes"]) < 1e-14


def test_expect_exact_systole_value():
    code, out, _ = run_cli(["expect", "--rank", "2", "--functional",
                            "systole", "--method", "exact"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["exact_numerator"] == 23
    assert rec["exact_denominator"] == 90


def test_measure_weights_values():
    code, out, _ = run_cli(["measure", "weights", "--rank", "2"])
    assert code == 0
    envelope = json.loads(out)
    weights = {r.get("name", r["graph_id"]):
               (r["exact_numerator"], r["exact_denominator"])
               for r in envelope["records"]}
    assert weights["dumbbell"] == (3, 5)
    assert weights["theta"] == (2, 5)
    assert envelope["params"]["normalization_numerator"] == 24
    assert envelope["params"]["normalization_denominator"] == 5


def test_graphs_enumerate_rank2_two_records():
    code, out, _ = run_cli(["graphs", "enumerate", "--rank", "2"])
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 2
    stats = {(r["aut_order"], r["triv_order"]) for r in records}
    assert stats == {(8, 4), (12, 2)}


def test_byte_identical_reruns():
    for argv in (
        ["sample", "--rank", "2", "--count", "5", "--seed", "7"],
        ["expect", "--rank", "2", "--functional", "systole", "--method",
         "mc", "--samples", "5000", "--seed", "3"],
        ["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "9",
         "--seed", "2", "--s-list", "1.4,1.1", "--cap", "300"],
    ):
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second


def test_seed_changes_samples():
    _, a, _ = run_cli(["sample", "--rank", "2", "--count", "3", "--seed", "1"])
    _, b, _ = run_cli(["sample", "--rank", "2", "--count", "3", "--seed", "2"])
    assert a != b


# sha256 of the whole stdout of 40,000 draws, two chunks of the sampler,
# taken while each draw was still built as a MetricGraph
SAMPLE_SHA256 = [
    ("json", "30fbebafd5b6dd5e035f3b003cf9f48df394c9c6da52dfca568158871b3935b5"),
    ("csv", "2266680b84a4a3afa32227e3adc690b7bb74fa4ec553c0bb2ca4ad1d9e48d588"),
    ("text", "f7dd121bb854d579dd3f278132da7dd6afdd3fe4f5018938803145f57eca1f66"),
]


@pytest.mark.parametrize("fmt, digest", SAMPLE_SHA256, ids=[f for f, _ in SAMPLE_SHA256])
def test_sample_stdout_pinned_across_chunks(fmt, digest):
    code, out, _ = run_cli(["sample", "--rank", "3", "--count", "40000", "--seed", "7",
                            "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_count_zero_prints_no_records():
    code, out, _ = run_cli(["sample", "--rank", "3", "--count", "0"])
    assert code == 0
    assert json.loads(out)["records"] == []
    for fmt in ("csv", "text"):
        assert run_cli(["sample", "--rank", "3", "--count", "0", "--format", fmt]) \
            == (0, "", "")


def fresh_python(code, *args):
    """stdout of ``python -c code *args`` in a new interpreter, where numpy is
    not yet imported, unlike in this one."""
    src = str(Path(covermeasure.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=path)).stdout


# the five short commands of the benchmark's cli-ps workload and two more
# that neither sample nor key graphs
NO_NUMPY_COMMANDS = [
    ["measure", "weights", "--rank", "2"],
    ["expect", "--rank", "2", "--functional", "systole"],
    ["invariant", "systole", "--graph", "dumbbell", "--lengths", "1/2,3/10,1/5"],
    ["pants", "ortho", "--boundaries", "1,1,10"],
    ["count", "subgroups", "--genus", "2", "--rank", "2", "--L", "20"],
    ["graphs", "enumerate", "--rank", "2"],
    ["count", "crit", "--graph", "theta", "--genus", "2", "--L", "12"],
]


def test_commands_without_arrays_never_load_numpy():
    # numpy's own import loads numpy.linalg, so any access to the lazy
    # module, at module level or in these commands, shows here
    code = ("import io, json, sys\n"
            "from covermeasure import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.run(argv, stdout=io.StringIO()) == 0, argv\n"
            "print('numpy.linalg' in sys.modules)")
    assert fresh_python(code, json.dumps(NO_NUMPY_COMMANDS)) == "False\n"


@pytest.mark.parametrize("argv", [
    ["sample", "--rank", "2", "--count", "3"],
    # rank 2 builds its measure without numpy: integrate_mc loads it, then
    # starts its worker threads
    ["expect", "--rank", "2", "--functional", "systole", "--method", "mc",
     "--samples", "100000"],
    ["expect", "--rank", "3", "--functional", "systole", "--method", "mc",
     "--samples", "100000"],
], ids=lambda a: " ".join(a))
def test_fresh_interpreter_loads_numpy_on_first_use(argv):
    code = "import sys; from covermeasure import cli; sys.exit(cli.run(sys.argv[1:]))"
    assert fresh_python(code, *argv) == run_cli(argv)[1]


def test_text_and_csv_formats():
    code, out, _ = run_cli(["graphs", "enumerate", "--rank", "2",
                            "--format", "text"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("rank=2; vertices=2; edges:") for line in lines)
    code, out, _ = run_cli(["measure", "weights", "--rank", "2",
                            "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("graph_id,")
    assert len(rows) == 3


def test_usage_errors_exit_2():
    code, _, _ = run_cli(["bogus"])
    assert code == 2
    code, _, _ = run_cli(["expect", "--rank", "2", "--functional", "girth"])
    assert code == 2
    code, _, _ = run_cli([])
    assert code == 2
    code, _, _ = run_cli(["measure", "lattice", "--rank", "7", "--graph", "theta",
                          "--N", "4"])
    assert code == 2


def test_computation_errors_exit_1():
    code, _, err = run_cli(["ps", "model", "--genus", "2", "--rank", "2",
                            "--s", "0.9"])
    assert code == 1
    assert "diverges" in err
    code, _, err = run_cli(["graphs", "enumerate", "--rank", "1"])
    assert code == 1
    code, _, err = run_cli(["invariant", "systole", "--graph", "theta",
                            "--lengths", "1,2"])
    assert code == 1
    code, _, err = run_cli(["ps", "sum", "--lengths-file",
                            "/nonexistent/file.txt", "--s", "1.5"])
    assert code == 1
    code, out, err = run_cli(["sample", "--rank", "2", "--count", "-3"])
    assert code == 1
    assert out == ""
    for functional in ("minedge", "bridge"):
        code, out, err = run_cli(["invariant", functional, "--graph", "dumbbell",
                                  "--lengths", "1,2,-3"])
        assert code == 1
        assert "positive" in err


def test_library_errors_are_value_errors():
    # the CLI turns ValueError into exit 1, so a library error class outside
    # it would escape as a traceback
    errors = [obj for obj in vars(covermeasure).values()
              if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(errors) >= 8
    assert all(issubclass(err, ValueError) for err in errors)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_lattice_resolution_below_one_exits_1(n):
    code, out, err = run_cli(["measure", "lattice", "--graph", "theta", "--N", n])
    assert code == 1
    assert out == ""
    assert f"N must be at least 1, got {n}" in err


@pytest.mark.parametrize("argv,text", [
    (["pants", "ortho", "--boundaries", "1,,1,10"], "1,,1,10"),
    (["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "10",
      "--s-list", "1.5,,1.02"], "1.5,,1.02"),
], ids=["boundaries", "s-list"])
def test_empty_list_entry_exits_1(argv, text):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert f"empty entry in {text!r}" in err


def test_ps_converge_empty_s_list_exits_1():
    code, out, err = run_cli(["ps", "converge", "--rank", "2", "--genus", "2",
                              "--Lmax", "10", "--s-list", ""])
    assert code == 1
    assert out == ""
    assert "need at least one s" in err


def test_precision_only_on_count_subgroups(capsys):
    argv = ["count", "subgroups", "--genus", "2", "--rank", "2", "--L", "12"]
    _, plain, _ = run_cli(argv)
    _, high, _ = run_cli(argv + ["--precision", "high"])
    plain_rec, high_rec = json.loads(plain)["records"][0], json.loads(high)["records"][0]
    model = asymptotics.CountingModel(genus=2, rank=2)
    assert high_rec.pop("c_high_precision") == str(model.c_high_precision())
    assert high_rec == plain_rec
    code, _, _ = run_cli(["expect", "--rank", "2", "--functional", "systole",
                          "--precision", "high"])
    assert code == 2
    assert "unrecognized arguments: --precision" in capsys.readouterr().err


def test_rank_cap_env_respected(monkeypatch):
    monkeypatch.setenv("COVERMEASURE_MAX_RANK", "2")
    code, _, err = run_cli(["graphs", "enumerate", "--rank", "3"])
    assert code == 1
    assert "COVERMEASURE_MAX_RANK" in err


def test_invariant_bridge_boolean():
    _, out, _ = run_cli(["invariant", "bridge", "--graph", "dumbbell",
                         "--lengths", "1/3,1/3,1/3"])
    rec = json.loads(out)["records"][0]
    assert rec["value"] == 1.0
    _, out, _ = run_cli(["invariant", "bridge", "--graph", "theta",
                         "--lengths", "1/3,1/3,1/3"])
    assert json.loads(out)["records"][0]["value"] == 0.0


NON_FINITE_ARGUMENTS = [
    ["ps", "model", "--genus", "2", "--rank", "2", "--s", "nan"],
    ["ps", "model", "--genus", "2", "--rank", "2", "--s", "inf"],
    ["count", "crit", "--graph", "dumbbell", "--genus", "2", "--L", "inf"],
    ["count", "subgroups", "--genus", "2", "--rank", "2", "--L", "nan"],
    ["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "inf",
     "--s-list", "1.5"],
    ["ps", "sum", "--lengths-file", "unused.txt", "--s=-inf"],
    ["ps", "sum", "--lengths-file", "unused.txt", "--s", "1.5", "--L", "nan"],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGUMENTS, ids=lambda a: " ".join(a))
def test_non_finite_number_arguments_exit_2(argv, capsys):
    code, out, _ = run_cli(argv)
    assert code == 2
    assert out == ""
    # argparse writes usage errors to sys.stderr itself
    err = capsys.readouterr().err
    assert "invalid finite float value" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, value", [
    (["pants", "ortho", "--boundaries", "1,1,inf"], "inf"),
    (["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "10",
      "--s-list", "nan"], "nan"),
    (["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "10",
      "--s-list", "1.5,-inf"], "-inf"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_non_finite_list_entries_exit_1(argv, value):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert f"covermeasure: error: not a finite number: {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["count", "subgroups", "--genus", "2", "--rank", "2", "--L", "709"],
    ["count", "subgroups", "--genus", "2", "--rank", "2", "--L", "1000"],
    ["count", "crit", "--graph", "dumbbell", "--genus", "2", "--L", "709"],
    ["pants", "ortho", "--boundaries", "2000,1,1"],
], ids=lambda a: " ".join(a))
def test_overflow_exits_1(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("covermeasure: error:") and "Traceback" not in err


@pytest.mark.parametrize("boundaries", ["1,1", "1,1,1,1"])
def test_pants_ortho_needs_three_boundaries(boundaries):
    code, out, err = run_cli(["pants", "ortho", "--boundaries", boundaries])
    assert code == 1
    assert out == ""
    count = len(boundaries.split(","))
    assert err == f"covermeasure: error: need three boundary lengths, got {count}\n"


def test_overflowing_count_names_length_bound():
    _, _, err = run_cli(["count", "subgroups", "--genus", "2", "--rank", "2",
                         "--L", "709"])
    assert "L = 709.0" in err


def test_non_finite_json_result_exits_1(tmp_path):
    # e^(-0 * inf) is NaN: finite arguments, a non-finite result
    lengths = tmp_path / "lengths.txt"
    lengths.write_text("inf\n")
    argv = ["ps", "sum", "--lengths-file", str(lengths), "--s", "0"]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert "not JSON compliant" in err
    code, out, _ = run_cli(argv + ["--format", "text"])
    assert code == 0 and "nan" in out


@pytest.mark.parametrize("text, line", [("nan\n1\n2\n", 1), ("1\n\n2\n-NaN\n", 4),
                                        ("1\n2,5\n", 2)],
                         ids=["first-line", "later-line", "non-number"])
def test_ps_sum_refuses_nan_length(tmp_path, text, line):
    # a NaN first line made every sum 0.0; a later one was counted but not summed
    lengths = tmp_path / "lengths.txt"
    lengths.write_text(text)
    for fmt in ("json", "csv", "text"):
        code, out, err = run_cli(["ps", "sum", "--lengths-file", str(lengths),
                                  "--s", "1.5", "--format", fmt])
        assert code == 1
        assert out == ""
        assert f"line {line}: not a number" in err and "Traceback" not in err
