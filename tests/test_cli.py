import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbrw
from nbrw import check_cycle_condition, parse_graph_text
from nbrw.cli import main
from nbrw.variance import _DENSE_UNKNOWNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k4e_file(tmp_path, capsys):
    path = tmp_path / "k4e.txt"
    code, _, _ = run_cli(capsys, "gen", "k4e", "-o", str(path))
    assert code == 0
    return str(path)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code, _, _ = run_cli(capsys, "gen", "wheel", "--n", "5", "--l1", "2", "--l2", "3", "-o", str(out))
    assert code == 0
    g = parse_graph_text(out.read_text())
    assert g.degrees[0] == 5
    assert len(g.edges) == 25
    # regenerating produces identical bytes
    out2 = tmp_path / "w2.txt"
    run_cli(capsys, "gen", "wheel", "--n", "5", "--l1", "2", "--l2", "3", "-o", str(out2))
    assert out.read_text() == out2.read_text()


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "complete", "--n", "4")
    assert code == 0
    assert out.startswith("# complete n=4\nnbgraph 4\n")


def test_gen_invalid_parameters_exit_64(capsys):
    code, _, err = run_cli(capsys, "gen", "wheel", "--n", "2", "--l1", "1", "--l2", "1")
    assert code == 64
    assert "invalid parameters" in err


def test_gen_usage_error_exit_64():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "wheel", "--n", "5"])  # missing --l1/--l2
    assert exc.value.code == 64


def test_gen_subdivide_pipeline(tmp_path, capsys):
    base = tmp_path / "k4.txt"
    run_cli(capsys, "gen", "complete", "--n", "4", "-o", str(base))
    out = tmp_path / "k4m2.txt"
    code, _, _ = run_cli(capsys, "gen", "subdivide", "--m", "2", "-i", str(base), "-o", str(out))
    assert code == 0
    g = parse_graph_text(out.read_text())
    assert g.vertex_count == 4 + 6
    assert len(g.edges) == 12


def test_analyze_strict_exit_1(k4e_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", k4e_file)
    assert code == 1
    assert "verdict: strict" in out
    assert "witness path darts: [0]" in out
    assert "2^(3/5)" in out


def test_analyze_equal_exit_0(tmp_path, capsys, monkeypatch):
    from nbrw import conditions

    path = tmp_path / "h3.txt"
    run_cli(capsys, "gen", "hk", "--k", "3", "-o", str(path))
    monkeypatch.setattr(conditions._Potential, "as_pairs", None)  # text output prints no potential
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "verdict: equal" in out
    assert "2^1" in out


def test_analyze_cycle_exit_2(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("nbgraph 5\n" + "".join(f"e {i} {(i + 1) % 5}\n" for i in range(5)))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "is_cycle" in out


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("nbgraph 3\nzzz\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


def test_analyze_huge_header_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("nbgraph 1000000000\ne 0 1\ne 1 2\ne 2 0\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 1:" in err


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/graph.txt")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{dir}"],
        ["walk", "{k4e}", "--len", "5", "--samples", "10", "--csv", "{dir}"],
        ["gen", "k4e", "-o", "{dir}"],
    ],
    ids=["input", "walk-csv", "gen-output"],
)
def test_directory_as_file_exit_2(k4e_file, tmp_path, capsys, argv):
    code, _, err = run_cli(capsys, *[a.format(dir=tmp_path, k4e=k4e_file) for a in argv])
    assert code == 2
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err


def test_analyze_json_validates_against_schema(k4e_file, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources

    code, out, _ = run_cli(capsys, "analyze", k4e_file, "--json", "--with-variance")
    assert code == 1
    report = json.loads(out)
    schema = json.loads(
        importlib.resources.files("nbrw.schemas").joinpath("analysis_report.schema.json").read_text()
    )
    jsonschema.validate(report, schema)
    assert report["verdict"] == "strict"
    assert report["lambda"]["exact"] == [[2, 3, 5]]
    assert abs(report["asymptotic_variance"] - 0.016) <= 1e-9
    assert report["rho"]["iterations"] >= 1


def test_analyze_json_equal_validates(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources

    path = tmp_path / "w523.txt"
    run_cli(capsys, "gen", "wheel", "--n", "5", "--l1", "2", "--l2", "3", "-o", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")  # compact: one line
    report = json.loads(out)
    schema = json.loads(
        importlib.resources.files("nbrw.schemas").joinpath("analysis_report.schema.json").read_text()
    )
    jsonschema.validate(report, schema)
    witness = report["cycle_condition"]["witness"]
    assert witness["type"] == "potential"
    # the potential read back equals the library's ExactValue map, built from Fractions
    potential = check_cycle_condition(parse_graph_text(path.read_text())).potential
    assert witness["phi"] == {str(d): value.as_pairs() for d, value in potential.items()}


def test_analyze_variance_exactly_zero_on_equal_graph(tmp_path, capsys):
    path = tmp_path / "w523.txt"
    run_cli(capsys, "gen", "wheel", "--n", "5", "--l1", "2", "--l2", "3", "-o", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json", "--with-variance")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "equal"
    assert report["asymptotic_variance"] == 0.0


def test_analyze_not_irreducible_json_validates(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources

    path = tmp_path / "c5.txt"
    path.write_text("nbgraph 5\n" + "".join(f"e {i} {(i + 1) % 5}\n" for i in range(5)))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 2
    report = json.loads(out)
    schema = json.loads(
        importlib.resources.files("nbrw.schemas").joinpath("analysis_report.schema.json").read_text()
    )
    jsonschema.validate(report, schema)


def test_walk_deterministic_csv(k4e_file, tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    code, out1, _ = run_cli(
        capsys, "walk", k4e_file, "--len", "50", "--samples", "2000",
        "--seed", "7", "--workers", "2", "--csv", str(csv1),
    )
    assert code == 0
    assert "mean_bits_per_step" in out1
    code, out2, _ = run_cli(
        capsys, "walk", k4e_file, "--len", "50", "--samples", "2000",
        "--seed", "7", "--workers", "4", "--csv", str(csv2),
    )
    assert csv1.read_bytes() == csv2.read_bytes()


def test_walk_one_sample_rejected(k4e_file, capsys):
    code, _, err = run_cli(capsys, "walk", k4e_file, "--len", "10", "--samples", "1")
    assert code == 2
    assert "samples" in err


@pytest.mark.parametrize("length", [str(2**63), "99999999999999999999"])
def test_walk_len_beyond_int64_exit_64(k4e_file, capsys, monkeypatch, length):
    # refused while the arguments are parsed: no graph is read, no walk starts
    monkeypatch.setattr(nbrw.walks, "run_walks", None)
    monkeypatch.setattr(nbrw.cli, "_load_graph_arg", None)
    with pytest.raises(SystemExit) as exc:
        main(["walk", k4e_file, "--len", length, "--samples", "100"])
    assert exc.value.code == 64
    assert "--len" in capsys.readouterr().err


def test_walk_thread_env_cap(k4e_file, capsys, monkeypatch):
    monkeypatch.setenv("NBRW_THREADS", "1")
    code, out, _ = run_cli(capsys, "walk", k4e_file, "--len", "10", "--samples", "100", "--workers", "8")
    assert code == 0
    assert "workers: 1" in out


def test_walk_malformed_thread_env_exit_64(k4e_file, capsys, monkeypatch):
    monkeypatch.setenv("NBRW_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["walk", k4e_file, "--len", "10", "--samples", "100"])
    assert exc.value.code == 64
    assert "NBRW_THREADS" in capsys.readouterr().err


def test_pdf_stdout_and_file(k4e_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "pdf", k4e_file, "--len", "1")
    assert code == 0
    assert out.splitlines()[0] == "bits_per_step,probability"
    assert out.splitlines()[1] == "0,0.4"
    target = tmp_path / "pdf.csv"
    code, out, _ = run_cli(capsys, "pdf", k4e_file, "--len", "10", "--csv", str(target))
    assert code == 0
    assert "mean_bits_per_step: 0.600000000" in out
    assert target.read_text().startswith("bits_per_step,probability\n")


def test_pdf_capability_error(tmp_path, capsys):
    # three distinct branching degrees: vertex degrees 5, 4, 3
    path = tmp_path / "three.txt"
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)]
    path.write_text("nbgraph 6\n" + "".join(f"e {a} {b}\n" for a, b in edges))
    code, _, err = run_cli(capsys, "pdf", str(path), "--len", "3")
    assert code == 2
    assert "branching degrees" in err


def test_asymvar_json(k4e_file, capsys):
    code, out, _ = run_cli(capsys, "asymvar", k4e_file, "--truncate", "64", "128")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["limit"] - 0.016) <= 1e-9
    assert payload["method"] == "fundamental_solve"
    assert [entry[0] for entry in payload["truncated"]] == [64, 128]


def test_asymvar_k4_zero(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    run_cli(capsys, "gen", "complete", "--n", "4", "-o", str(path))
    code, out, _ = run_cli(capsys, "asymvar", str(path))
    assert code == 0
    assert abs(json.loads(out)["limit"]) <= 1e-12


def test_gen_hk_matches_wheel_parameters(tmp_path, capsys):
    a = tmp_path / "hk2.txt"
    b = tmp_path / "w523.txt"
    run_cli(capsys, "gen", "hk", "--k", "2", "-o", str(a))
    run_cli(capsys, "gen", "wheel", "--n", "5", "--l1", "2", "--l2", "3", "-o", str(b))
    assert parse_graph_text(a.read_text()).edges == parse_graph_text(b.read_text()).edges


def test_analyze_tol_propagates(k4e_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", k4e_file, "--json", "--tol", "1e-6")
    report = json.loads(out)
    assert report["rho"]["rel_tol"] == 1e-6
    assert abs(report["rho"]["value"] - 1.52138) <= 1e-4


def test_walk_csv_probabilities_sum_to_one(k4e_file, tmp_path, capsys):
    target = tmp_path / "hist.csv"
    run_cli(capsys, "walk", k4e_file, "--len", "40", "--samples", "3000", "--csv", str(target))
    rows = target.read_text().strip().splitlines()[1:]
    total = sum(float(line.split(",")[1]) for line in rows)
    assert abs(total - 1.0) <= 1e-9


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1e-17", "abc"])
def test_analyze_bad_tol_exit_64(k4e_file, capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", k4e_file, "--tol", tol])
    assert exc.value.code == 64
    assert "--tol" in capsys.readouterr().err


def test_analyze_unresolved_rho_exit_2(k4e_file, capsys, monkeypatch):
    from nbrw import PowerIterationError, conditions

    def stalled(g, rel_tol):
        raise PowerIterationError("the Perron bracket stopped narrowing", last_estimate=1.5, iterations=1000)

    monkeypatch.setattr(conditions, "growth_verdict", stalled)  # cmd_analyze imports it when it runs
    code, _, err = run_cli(capsys, "analyze", k4e_file)
    assert code == 2
    assert "stopped narrowing" in err


@pytest.mark.parametrize(
    "family, tol, equal",
    [(["k4e"], 1e-12, False), (["wheel", "--n", "5", "--l1", "2", "--l2", "3"], 1e-14, True)],
)
def test_analyze_reports_rho_bracket(tmp_path, capsys, applications, family, tol, equal):
    path = tmp_path / "g.txt"
    run_cli(capsys, "gen", *family, "-o", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json", "--tol", str(tol))
    assert code == (0 if equal else 1)
    rho = json.loads(out)["rho"]
    assert rho["low"] <= rho["value"] <= rho["high"]
    assert rho["high"] - rho["low"] <= tol * rho["low"]
    # matvecs counts the power steps on B and the applications of B reduced
    # to the branching darts that chose the start
    assert rho["matvecs"] == len(applications)
    if equal:
        # the potential is a Perron vector: one matvec certifies rho = lambda
        assert rho["matvecs"] == rho["iterations"] == 1
    else:
        assert rho["matvecs"] > rho["iterations"] >= 1
    code, out, _ = run_cli(capsys, "analyze", str(path), "--tol", str(tol))
    assert f"bracket [{rho['low']:.15g}, {rho['high']:.15g}]" in out


# the witnesses of wheel_graph(1025, 2, 12), as the plain power iteration on B reported them
W1025_PATH = [0, 2]
W1025_CYCLE = [0, 2, *range(4147, 4124, -2), *range(4100, 4123, 2), 4099, 4097,
               *range(28699, 28676, -2), *range(4100, 4123, 2)]


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
def test_analyze_strict_wheel_certifies_rho_from_the_quotient(tmp_path, capsys, applications, tol):
    # 28,700 darts on suspended paths of up to 12: the plain power iteration
    # takes 2,646 matvecs at 1e-12 and cannot resolve 1e-14
    path = tmp_path / "w.txt"
    run_cli(capsys, "gen", "wheel", "--n", "1025", "--l1", "2", "--l2", "12", "-o", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json", "--tol", str(tol))
    assert code == 1
    report = json.loads(out)
    rho = report["rho"]
    assert rho["matvecs"] == len(applications) < 100
    assert rho["low"] <= rho["value"] <= rho["high"]
    assert rho["high"] - rho["low"] <= tol * rho["low"]
    assert report["verdict"] == "strict"
    assert report["suspended_path_condition"]["witness"] == {"type": "path", "darts": W1025_PATH}
    assert report["cycle_condition"]["witness"] == {"type": "cycle", "darts": W1025_CYCLE}


@pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 EiB for an array"])
def test_out_of_memory_exit_2(k4e_file, capsys, monkeypatch, message):
    from nbrw import walks

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(walks, "run_walks", exhausted)
    code, _, err = run_cli(capsys, "walk", k4e_file, "--len", "5", "--samples", "10")
    assert code == 2
    assert err == f"error: out of memory{': ' + message if message else ''}\n"


# Runs one command in a fresh interpreter and reports its exit code and the
# scipy modules it left loaded, on the last line of standard error.
_SCIPY_PROBE = """
import sys
from nbrw.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, expected_code, sparse_solve",
    [
        (["gen", "k4e"], 0, False),
        (["analyze", "{k4e}", "--json"], 1, False),
        (["analyze", "{w523}", "--json", "--with-variance"], 0, False),  # the variance is exactly 0
        (["walk", "{k4e}", "--len", "5", "--samples", "10"], 0, False),
        (["pdf", "{k4e}", "--len", "5"], 0, False),
        (["asymvar", "{k4e}"], 0, False),
        (["analyze", "{k4e}", "--with-variance"], 1, False),
        # one more branching vertex than the dense solve takes
        (["asymvar", "{wide}"], 0, True),
    ],
    ids=["gen", "analyze", "analyze-variance-equal", "walk", "pdf", "asymvar", "analyze-variance-strict",
         "asymvar-above-dense-cutoff"],
)
def test_scipy_loaded_only_by_sparse_solves(k4e_file, tmp_path, capsys, argv, expected_code, sparse_solve):
    w523, wide = tmp_path / "w523.txt", tmp_path / "wide.txt"
    run_cli(capsys, "gen", "wheel", "--n", "5", "--l1", "2", "--l2", "3", "-o", str(w523))
    if "{wide}" in argv:
        spokes = str(_DENSE_UNKNOWNS)  # the hub and every spoke's end branch
        run_cli(capsys, "gen", "wheel", "--n", spokes, "--l1", "1", "--l2", "2", "-o", str(wide))
    src = str(Path(nbrw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [a.format(k4e=k4e_file, w523=w523, wide=wide) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *args], env=env, capture_output=True, text=True, timeout=120
    )
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert int(code) == expected_code, proc.stderr
    if sparse_solve:
        assert "scipy.sparse.linalg" in loaded
    else:
        assert loaded == []


# modules that some command needs and others need not load; numpy.ma comes
# with np.unique calls that ask for no return_* arrays
_PROBED = ("concurrent.futures", "nbrw._kernels", "nbrw.conditions", "nbrw.families", "nbrw.variance", "nbrw.walks",
           "numpy.ma")
_MODULE_PROBE = f"""
import sys
from nbrw.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m in {_PROBED!r}), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, expected_code, loaded",
    [
        (["analyze", "{k4e}", "--json"], 1, ["nbrw.conditions"]),
        (["analyze", "{k4e}", "--with-variance"], 1, ["nbrw.conditions", "nbrw.variance"]),
        (["walk", "{k4e}", "--len", "5", "--samples", "10"], 0, ["nbrw._kernels", "nbrw.walks"]),
        (["pdf", "{k4e}", "--len", "5"], 0, ["nbrw.walks"]),
        (["gen", "k4e"], 0, ["nbrw.families"]),
    ],
    ids=["analyze", "analyze-variance", "walk", "pdf", "gen"],
)
def test_commands_load_only_the_modules_they_use(k4e_file, argv, expected_code, loaded):
    src = str(Path(nbrw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [a.format(k4e=k4e_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *args], env=env, capture_output=True, text=True, timeout=120
    )
    code, *modules = proc.stderr.splitlines()[-1].split()
    assert int(code) == expected_code, proc.stderr
    assert modules == loaded
