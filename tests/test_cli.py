"""CLI surface: JSON schema conformance, determinism, exit codes."""

import csv
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import covermeasure
from covermeasure import asymptotics, cli, functionals


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


# sha256 of the whole stdout in json, csv and text: every key, its
# position (the csv column order) and every digit
STDOUT_SHA256 = {
    "graphs enumerate --rank 2": (
        "27714a2bfaa7eececfeb93e2c789f5022bfb067ab7a09585b9280ec6fd96fa1b",
        "0ecabefc9eb97235bb48f127959ae9dbd41634ee6106f168d6933bb978cbd57e",
        "cc6c0d4f12eb25ff3513f2ca8d762d39929306992f11b8e0670d8959c95155a7",
    ),
    "graphs enumerate --rank 3": (
        "16783725c28bc165664659ea3b7a1f8c65a49c5af264e72402914c6de605aee2",
        "d622e141b1619e53ce1820541df4ab4038037f53480c7621055f508f6e07d2a8",
        "e08039541619760ea8166d6ad03b8c277e26bb70b27af80604bd5e4a35efa8b9",
    ),
    "measure weights --rank 2": (
        "a1e06eec8385b2463e03b906ddc141e63cd0c49fb3089a43f390c836457b57e5",
        "9346bb506f1e6a22bf8342b8902553153db419b71e4c6165428a9abbb01367cf",
        "4405c790dee225c9d86d5d73ecb4c7fcca3d9dcfe22661d38202f590efabeda3",
    ),
    "measure lattice --graph theta --N 5": (
        "3d3ed3d1f0d19bf635cf6d24984c07d244c6cf7d0154e551a1fcf60b10114df3",
        "caa719318beb13998671a4cec683de33833f0ed89da1086b5eebf5d8b4f17265",
        "efc0d2ffc0ed1e3a6893cb1270e8ec0416f63e0ffdd745192c2e2b49e47a6651",
    ),
    "expect --rank 2 --functional systole --method exact": (
        "00c31f2d0e6972107e3115180b82b171b98805a8e311aba15e59bdfe260123e1",
        "917341ebea65894a3f72723d752f18e1e8510ff90080069c9feb91a0c6459fca",
        "2bef8ca1aabc5bcdbab555d461e555281cee3240b02f1d0f5d59a430f1297122",
    ),
    "expect --rank 2 --functional bridge --method mc --samples 2000 --seed 1": (
        "c32944c02af6460a2ae7ce0e7a9fa613c794106344845030099a9e2cb7df6c0e",
        "1898d000ede4b37e487874750384ab85af6000c9d705cbbe797b64187e95b854",
        "d328f41581ac55983c67680f05d306d35a76c4c92323e433f678539edf5ca138",
    ),
    "sample --rank 2 --count 3 --seed 4": (
        "7e711383b95343818032edcedce66f71d8558518775a0c1b9d87390e89b8d9ef",
        "fb5f7d42441069da0dbbf43013de68b2881eec12183fb60557ebdf3f6aff4e44",
        "99bd69aa4537b4622ae19b57e23c2fd3a68044d25d44045b8d582ff40fdf1c8a",
    ),
    "invariant systole --graph dumbbell --lengths 1/2,3/10,1/5": (
        "b0ea988017da249b10d9bcb37985895d4a01cafe7391dc9eb12d6d5a4ff86395",
        "a38e7f7a585d384607d0de997760253f41bda324e3a52de22c91eb1178351e8f",
        "f711cfc299c6b69a45659b3456dc360d17997a771dc14191122e3e0d61b1924f",
    ),
    "invariant minedge --graph theta --lengths 0.2,0.3,0.5": (
        "b4a255526c6f00a3d50b4a80b546dfb4296443bc34bb19312ba748e582726f6a",
        "a38e7f7a585d384607d0de997760253f41bda324e3a52de22c91eb1178351e8f",
        "991a8760401c7808591cd5f9a4bcdb87c84fa28e76d459ef74620459bb4f5395",
    ),
    "pants ortho --boundaries 1,1,10": (
        "77ce6f3bb76ccdd5d035e2f4b14161a941f2cdc026bba5f869690b5984d04d7f",
        "bcc00c0c61a87c3605ca29d7da6dbaee907ab1b27e2a19ad79639f922d6b01fb",
        "ee21c9ed15561d07529062a04d121e783f2c9330de529922c9ecbf9e3a5c2bd8",
    ),
    "pants ortho --boundaries 1,1,10 --oracle": (
        "9cad69d2981c8f8128be6c0bff0330ad855221c139693300c31cb5d6902c7f7d",
        "eaad9426a72755bfa2905befe234f0941d58b780299459f66a7750a38caf805d",
        "ee21c9ed15561d07529062a04d121e783f2c9330de529922c9ecbf9e3a5c2bd8",
    ),
    "count subgroups --genus 2 --rank 2 --L 12": (
        "4dec160b7e731f546655f7202cefcf6a1b567c48a11fd80a5bdd59c837f8bc24",
        "79d3802ca7aae74aed0e142817c2216d87ecffa4d93a703cc0477e8cae98ae5f",
        "5e99f6755e4d85ee3e903989577d4908c12574fa4652628fd6a3479953328a49",
    ),
    "count subgroups --genus 2 --rank 2 --L 12 --precision high": (
        "6a32b3b9259ffde234395787776ed23c3fef36dcb55c273fde19bfbb35c8d8b2",
        "cd7f094c9151432e151f921c5f885b752f0b55c2a5ce37bf28eea1e6ef38273d",
        "5e99f6755e4d85ee3e903989577d4908c12574fa4652628fd6a3479953328a49",
    ),
    "count crit --graph dumbbell --genus 2 --L 12": (
        "ff0d2844794f0226c3ad7c944ad723d2788a48a583a22b7295e036dc9562085a",
        "def8ced2b5040d5c99b3ce04dbe73fcefcbec96102de3026b981d828cb896802",
        "f7e869d5000a0a34b1eb36cde72e903fe5b4b28d97f8b7e36ebd9bbdf33944d5",
    ),
    "ps model --genus 2 --rank 2 --s 1.2": (
        "86212aff6c058161c5f3afa320e7fa41646322bb0895153dc1e4eafc29832997",
        "a5b4c22971b1794b919e1776df57db930218226048d240c91bc88f8766b27c53",
        "7b3d4b442d3faeceb68ce4f72da580bf0acb2a7a4aadc3a05f13721e0b31213d",
    ),
    "ps converge --rank 2 --genus 2 --Lmax 10 --seed 0 --s-list 1.5,1.02 --cap 400": (
        "cf68c39f62d9140ed3e5b4abbe64b5fa39ddcf733df1c2912289a9ebc30f44e8",
        "9024648e465c2e98506fd536e6bb36a456d1747c9d34433f200514f61ad5eaf5",
        "b232a9b6f1960eb98a89f7856ca9e08f36266582fdaa88d4bb62b45e6e72fe6b",
    ),
    "ps converge --rank 2 --genus 2 --Lmax 10 --seed 0 --s-list 1.5,1.02 --cap 400 --mode exact-marker": (
        "cb64d8b1daf8652f07a90cd72a29ed01d567e01f7bfa0582b073c9c1d70beb78",
        "6b955ceb018544b7bd8fe7c76a22292bc911167c5c99463b743fcc81366ed01b",
        "94439172396a55e02bf1351416427fc2934df7887d626c83994e29d8ab4e5812",
    ),
    "measure lattice --graph dumbbell --N 2": (
        "85aefbb2810f1770ea5a6900de3b08f225e894407e7f8aaf1913f712a6cc82d7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "ps sum --lengths-file lengths.txt --s 1.5": (
        "0fbb51c43c4aac5d9d9c4eb6a248f57d29853dc93536df2bb96d0468ffa2c0a5",
        "a7e8a512bfcab56b0df4cbf131f34c270d8d60cf8612497c4de729da35646398",
        "480f74e91af4c06e7d2372336bf4d52570e501c8bd67fc942a22343a3ec8c808",
    ),
}
PINNED_COMMANDS = SMOKE_COMMANDS + [
    # zero mass below N = E: no records, so csv and text print nothing
    ["measure", "lattice", "--graph", "dumbbell", "--N", "2"],
    # params echo the path, so the file is read from the working directory
    ["ps", "sum", "--lengths-file", "lengths.txt", "--s", "1.5"],
]


@pytest.fixture
def lengths_cwd(tmp_path, monkeypatch):
    """A working directory holding the lengths.txt that ps sum reads."""
    (tmp_path / "lengths.txt").write_text("0.5\n1.25\n2.0\n3.5\n")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv", PINNED_COMMANDS, ids=lambda a: " ".join(a))
def test_stdout_pinned(argv, fmt, lengths_cwd):
    code, out, _ = run_cli(argv + ["--format", fmt])
    assert code == 0
    digest = STDOUT_SHA256[" ".join(argv)][("json", "csv", "text").index(fmt)]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def csv_cell(rec, key):
    """What csv should read back for a json record's key: a list joined by
    ';', a missing key empty."""
    value = rec.get(key, "")
    return ";".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("argv", PINNED_COMMANDS, ids=lambda a: " ".join(a))
def test_csv_reads_back_as_the_json_records(argv, lengths_cwd):
    # each edge [u, v] of graphs enumerate once split its row at the comma
    records = json.loads(run_cli(argv)[1])["records"]
    rows = list(csv.DictReader(io.StringIO(run_cli(argv + ["--format", "csv"])[1])))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        # DictReader files extra fields under None and fills short rows with it
        assert None not in row and None not in row.values()
        assert set(rec) <= set(row)
        assert row == {key: csv_cell(rec, key) for key in row}


def test_sample_count_zero_prints_no_records():
    code, out, _ = run_cli(["sample", "--rank", "3", "--count", "0"])
    assert code == 0
    assert json.loads(out)["records"] == []
    for fmt in ("csv", "text"):
        assert run_cli(["sample", "--rank", "3", "--count", "0", "--format", fmt]) \
            == (0, "", "")


def fresh_python(code, *args, env=None):
    """stdout of ``python -c code *args`` in a new interpreter, where numpy is
    not yet imported, unlike in this one.  ``env`` sets variables, and
    unsets those it maps to None."""
    src = str(Path(covermeasure.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    full = {**os.environ, "PYTHONPATH": path, **(env or {})}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True,
                          env={k: v for k, v in full.items() if v is not None}).stdout


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


# numpy's bundled OpenBLAS, whose thread count the child reads after a
# command that loads numpy
OPENBLAS_LIBS = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*.so*"))
BLAS_THREADS_AFTER_SAMPLE = (
    "import ctypes, io, os, sys\n"
    "from covermeasure import cli\n"
    "assert cli.run(['sample', '--rank', '3', '--count', '1'], stdout=io.StringIO()) == 0\n"
    "threads = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
    "threads.argtypes, threads.restype = [], ctypes.c_int\n"
    "print(threads(), os.environ['OPENBLAS_NUM_THREADS'])")


@pytest.mark.skipif(len(OPENBLAS_LIBS) != 1, reason="numpy bundles no OpenBLAS")
@pytest.mark.parametrize("caller, threads", [(None, "1"), ("2", "2")])
def test_cli_starts_openblas_with_one_thread_unless_told(caller, threads):
    out = fresh_python(BLAS_THREADS_AFTER_SAMPLE, *OPENBLAS_LIBS,
                       env={"OPENBLAS_NUM_THREADS": caller})
    assert out == f"{threads} {threads}\n"


def test_cli_leaves_the_environment_once_numpy_is_loaded(monkeypatch):
    # OpenBLAS read its variable when numpy loaded: setting it now would
    # only change the environment of this process's children
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert "numpy.linalg" in sys.modules
    before = dict(os.environ)
    assert run_cli(["sample", "--rank", "3", "--count", "1"])[0] == 0
    assert dict(os.environ) == before


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


def test_zero_denominator_length_names_entry():
    code, out, err = run_cli(["invariant", "systole", "--graph", "dumbbell",
                              "--lengths", "1/0,1,1"])
    assert code == 1
    assert out == ""
    assert err == "covermeasure: error: zero denominator in '1/0'\n"


def test_ps_converge_empty_s_list_exits_1():
    code, out, err = run_cli(["ps", "converge", "--rank", "2", "--genus", "2",
                              "--Lmax", "10", "--s-list", ""])
    assert code == 1
    assert out == ""
    assert "need at least one s" in err


def test_ps_converge_lengths_do_not_depend_on_lmax():
    # the cap stops the bench argv near L = 12 whatever Lmax; 80 halvings of
    # [1e-12, 1e300] once gave lengths of 4e275 and negative estimates
    def envelope(l_max):
        code, out, _ = run_cli(["ps", "converge", "--rank", "2", "--genus", "2",
                                "--Lmax", l_max, "--s-list", "1.5,1.1,1.02"])
        assert code == 0
        env = json.loads(out)
        del env["params"]["Lmax"]
        return env

    want = envelope("40")
    for l_max in ("1e9", "1e20", "1e300"):
        assert envelope(l_max) == want


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


def test_invariant_refuses_a_functional_without_an_evaluator(monkeypatch, capsys):
    # a registered functional once fell into the bridge branch: the theta
    # graph's circumference (longest cycle, 4/5) printed as 0
    monkeypatch.setitem(functionals.FUNCTIONALS, "circumference", functionals.SYSTOLE)
    code, out, _ = run_cli(["invariant", "circumference", "--graph", "theta",
                            "--lengths", "1/5,3/10,1/2", "--format", "text"])
    assert code == 2
    assert out == ""
    assert "invalid choice: 'circumference'" in capsys.readouterr().err


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
