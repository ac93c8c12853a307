import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nbrw
from nbrw import check_cycle_condition, parse_graph_text
from nbrw._kernels import available_engines, get_kernel
from nbrw.cli import main
from nbrw.variance import _DENSE_UNKNOWNS

from _reference_criteria import potential


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


# every family with its gen arguments, the library graph and the comment gen writes
GEN_FAMILIES = {
    "wheel": (["wheel", "--n", "5", "--l1", "2", "--l2", "3"], lambda: nbrw.wheel_graph(5, 2, 3),
              "wheel n=5 l1=2 l2=3"),
    "hk-even": (["hk", "--k", "4"], lambda: nbrw.equal_growth_wheel(4), "hk k=4"),
    "hk-odd": (["hk", "--k", "5"], lambda: nbrw.equal_growth_wheel(5), "hk k=5"),
    "k4e": (["k4e"], nbrw.k4_minus_edge, "K4 minus an edge"),
    "complete": (["complete", "--n", "6"], lambda: nbrw.complete_graph(6), "complete n=6"),
    "bipartite": (["bipartite", "--a", "3", "--b", "4"], lambda: nbrw.complete_bipartite_graph(3, 4),
                  "complete bipartite a=3 b=4"),
}
# whole-loops, parallel edges and a vertex on nothing but loops
LOOPY_TEXT = "# loopy\nnbgraph 4\ne 0 1\ne 1 0\ne 1 1\ne 2 2\ne 1 2\ne 2 0\ne 3 3\ne 3 3\ne 0 3\n"


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_gen_writes_the_library_graphs_text(capsys, family):
    argv, build, comment = GEN_FAMILIES[family]
    code, out, _ = run_cli(capsys, "gen", *argv)
    assert code == 0
    assert out == nbrw.format_graph_text(build(), comment)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_gen_subdivide_writes_the_library_graphs_text(tmp_path, capsys, monkeypatch, source, m):
    import io

    path = tmp_path / "loopy.txt"
    path.write_text(LOOPY_TEXT)
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(LOOPY_TEXT))
    code, out, _ = run_cli(capsys, "gen", "subdivide", "--m", str(m), "-i", str(path) if source == "file" else "-")
    assert code == 0
    expected = nbrw.subdivide(parse_graph_text(LOOPY_TEXT), m)
    assert out == nbrw.format_graph_text(expected, f"subdivision m={m}")


@pytest.mark.parametrize(
    "text, message",
    [("nbgraph 3\nzzz\n", "error: line 2: unrecognized line 'zzz'"),
     ("# c\nnbgraph 2\ne 0 5\n", "error: line 3: edge endpoint out of range: (0, 5)"),
     (None, "error: ")],
    ids=["malformed", "out-of-range", "missing"],
)
def test_gen_subdivide_bad_input_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, "gen", "subdivide", "--m", "2", "-i", str(path))
    assert code == 2 and out == ""
    assert err.startswith(message) and "invalid parameters" not in err


def test_gen_subdivide_half_loop_exit_64(tmp_path, capsys):
    path = tmp_path / "hl.txt"
    path.write_text("nbgraph 2\ne 0 1\ne 0 1\nhl 0\nhl 1\n")
    code, out, err = run_cli(capsys, "gen", "subdivide", "--m", "2", "-i", str(path))
    assert code == 64 and out == ""
    assert err == "gen subdivide: invalid parameters: cannot subdivide a graph with half-loops\n"


@pytest.mark.parametrize("family", [f for f in GEN_FAMILIES if f != "k4e"] + ["subdivide"])
def test_gen_refuses_a_family_above_the_bound(tmp_path, capsys, monkeypatch, family):
    # the closed-form sizes are exact: a bound at the larger of the two
    # admits the graph, one below refuses it
    from nbrw import families

    if family == "subdivide":
        path = tmp_path / "loopy.txt"
        path.write_text(LOOPY_TEXT)
        argv, g = ["subdivide", "--m", "3", "-i", str(path)], nbrw.subdivide(parse_graph_text(LOOPY_TEXT), 3)
    else:
        argv, build, _ = GEN_FAMILIES[family]
        g = build()
    size = max(g.vertex_count, len(g.edges))
    monkeypatch.setattr(families, "_MAX_VERTEX_COUNT", size)
    assert run_cli(capsys, "gen", *argv)[0] == 0
    monkeypatch.setattr(families, "_MAX_VERTEX_COUNT", size - 1)
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 64 and out == ""
    assert err.startswith(f"gen {argv[0]}: invalid parameters: ") and f"at most {size - 1}" in err


def test_gen_refuses_before_building(capsys, monkeypatch):
    # 2**16 as the bound: building the 79,800 edges of K_400 allocates
    # megabytes, refusing it a few kilobytes beside the parser
    from nbrw import families

    monkeypatch.setattr(families, "_MAX_VERTEX_COUNT", 2**16)
    peaks = {}
    for n in (362, 400):  # 65,341 edges, then 79,800
        tracemalloc.start()
        try:
            peaks[n] = (run_cli(capsys, "gen", "complete", "--n", str(n))[0], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[362][0] == 0 and peaks[362][1] > 4 * 2**20
    assert peaks[400][0] == 64 and peaks[400][1] < 2**19


# ``python -m nbrw`` with the given arguments; prints its exit code and the
# modules of interest it left loaded
_ENTRY_MODULE_PROBE = """
import runpy, sys
sys.argv[0] = "nbrw"
try:
    runpy.run_module("nbrw", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    loaded = (m for m in sys.modules if m.split(".")[0] == "numpy" or m in ("nbrw.graph", "nbrw.operators"))
    print(exc.code, *sorted(loaded), file=sys.stderr)
"""


@pytest.mark.parametrize("family", [*GEN_FAMILIES, "subdivide"])
def test_gen_loads_no_numpy(tmp_path, family):
    path = tmp_path / "loopy.txt"
    path.write_text(LOOPY_TEXT)
    argv = ["subdivide", "--m", "2", "-i", str(path)] if family == "subdivide" else GEN_FAMILIES[family][0]
    src = str(Path(nbrw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _ENTRY_MODULE_PROBE, "gen", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.startswith("# ")
    assert proc.stderr.split() == ["0"]


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
    phi = potential(check_cycle_condition(parse_graph_text(path.read_text())))
    assert witness["phi"] == {str(d): value.as_pairs() for d, value in phi.items()}


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
    monkeypatch.setattr(nbrw.cli, "_read_input", None)
    with pytest.raises(SystemExit) as exc:
        main(["walk", k4e_file, "--len", length, "--samples", "100"])
    assert exc.value.code == 64
    assert "--len" in capsys.readouterr().err


def test_walk_samples_beyond_the_address_space_exit_2(k4e_file, capsys):
    code, _, err = run_cli(capsys, "walk", k4e_file, "--len", "3", "--samples", str(10**20))
    assert code == 2
    assert err == "error: out of memory\n"


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


def test_pdf_hostile_header_exit_2_before_any_per_vertex_table(tmp_path, capsys):
    # one edge cannot connect 2**22 vertices: refused before a list per vertex is built
    path = tmp_path / "hostile.txt"
    path.write_text("nbgraph 4194304\ne 0 1\n")
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "pdf", str(path), "--len", "3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == "error: requires NB-irreducibility, got not_connected\n"
    assert peak < 1_000_000


def test_walk_hostile_header_exit_2_before_any_per_vertex_table(tmp_path, capsys, monkeypatch):
    # the compiled kernel decides irreducibility on the edge list, so one edge
    # cannot make it build a table for each of 2**22 vertices
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    monkeypatch.delenv("NBRW_PURE_PYTHON", raising=False)
    path = tmp_path / "hostile.txt"
    path.write_text("nbgraph 4194304\ne 0 1\n")
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "walk", str(path), "--len", "3", "--samples", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == "error: requires NB-irreducibility, got not_connected\n"
    assert peak < 1_000_000


_HOSTILE_REFUSED = "error: requires NB-irreducibility, got not_connected\n"


@pytest.mark.parametrize(
    "argv, pure, out, err",
    [
        (["analyze"], False, "graph: 4194304 vertices, 1 edges, 2 darts\ndegrees: deg 0: 4194302, deg 1: 2\n"
         "nb_irreducible: not_connected\nerror: graph is not NB-irreducible: not_connected\n", ""),
        (["analyze", "--json"], False, '{"graph": {"vertices": 4194304, "edges": 1, "darts": 2, "degree_histogram": '
         '{"0": 4194302, "1": 2}}, "nb_irreducible": "not_connected", "error": "graph is not NB-irreducible: '
         'not_connected"}\n', ""),
        (["asymvar"], False, "", _HOSTILE_REFUSED),
        (["pdf", "--len", "3"], True, "", _HOSTILE_REFUSED),
        (["walk", "--len", "3", "--samples", "10"], True, "", _HOSTILE_REFUSED),
    ],
    ids=["analyze", "analyze-json", "asymvar", "pdf-pure", "walk-pure"],
)
def test_hostile_header_exit_2_before_any_per_vertex_array(tmp_path, capsys, monkeypatch, argv, pure, out, err):
    # a Graph builds its per-vertex arrays only after the header has passed
    # the V <= E + 1 test, so one edge cannot make it allocate 2**22 entries
    if pure:
        monkeypatch.setenv("NBRW_PURE_PYTHON", "1")
    path = tmp_path / "hostile.txt"
    path.write_text("nbgraph 4194304\ne 0 1\n")
    tracemalloc.start()
    try:
        result = run_cli(capsys, argv[0], str(path), *argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, out, err)
    assert peak < 5_000_000


# Runs ``python -m nbrw`` with numpy unimportable when the first argument is "block".
_NUMPY_BLOCKED = """
import runpy, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")

if sys.argv.pop(1) == "block":
    sys.meta_path.insert(0, NoNumpy())
sys.argv[0] = "nbrw"
runpy.run_module("nbrw", run_name="__main__", alter_sys=True)
"""


@pytest.fixture
def blocked_inputs(k4e_file, tmp_path, capsys):
    files = {name: tmp_path / f"{name}.txt" for name in ("w532", "three", "cycle", "malformed", "loopy", "hostile")}
    run_cli(capsys, "gen", "wheel", "--n", "5", "--l1", "3", "--l2", "2", "-o", str(files["w532"]))
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)]
    files["three"].write_text("nbgraph 6\n" + "".join(f"e {a} {b}\n" for a, b in edges))
    files["cycle"].write_text("nbgraph 5\n" + "".join(f"e {i} {(i + 1) % 5}\n" for i in range(5)))
    files["malformed"].write_text("nbgraph 3\ne 0 1\nzzz\n")
    files["loopy"].write_text("nbgraph 3\ne 0 1\ne 0 1\ne 1 2\ne 2 0\ne 2 2\nhl 0\n")
    files["hostile"].write_text("nbgraph 4194304\ne 0 1\n")
    return {"k4e": k4e_file, **files}


def _same_without_numpy(files, tmp_path, argv, expected_code):
    """``python -m nbrw *argv`` with numpy unimportable and with numpy open:
    the same exit code, stdout, stderr and CSV file; returns that run."""
    src = str(Path(nbrw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("NBRW_PURE_PYTHON", None)
    runs = []
    for mode in ("block", "open"):
        csv = tmp_path / f"{mode}.csv"
        args = [a.format(csv=csv, **files) for a in argv]
        proc = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED, mode, *args],
                              env=env, capture_output=True, text=True, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr, csv.read_text() if csv.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == expected_code
    return runs[0]


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["{k4e}", "--len", "10", "--csv", "{csv}"], 0),
        (["{k4e}", "--len", "10"], 0),
        (["{w532}", "--len", "40", "--csv", "{csv}"], 0),
        (["{w532}", "--len", "40"], 0),
        (["{three}", "--len", "3"], 2),
        (["{cycle}", "--len", "3"], 2),
        (["{malformed}", "--len", "3"], 2),
        (["{k4e}", "--len", "-1"], 2),
    ],
    ids=["k4e-csv", "k4e-stdout", "w532-csv", "w532-stdout", "three-degrees", "cycle", "malformed", "negative-len"],
)
def test_pdf_runs_without_numpy(blocked_inputs, tmp_path, argv, expected_code):
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    _same_without_numpy(blocked_inputs, tmp_path, ["pdf", *argv], expected_code)


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["{k4e}", "--len", "50", "--samples", "2000", "--seed", "7", "--csv", "{csv}"], 0),
        (["{loopy}", "--len", "40", "--samples", "3000", "--seed", "77", "--workers", "2", "--csv", "{csv}"], 0),
        (["{cycle}", "--len", "3", "--samples", "10"], 2),
        (["{malformed}", "--len", "3", "--samples", "10"], 2),
        (["{k4e}", "--len", "-1", "--samples", "10"], 2),
        (["{k4e}", "--len", "3", "--samples", "0"], 2),
    ],
    ids=["k4e-csv", "loops-workers", "cycle", "malformed", "negative-len", "no-samples"],
)
def test_walk_runs_without_numpy(blocked_inputs, tmp_path, argv, expected_code):
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    _, out, _, _ = _same_without_numpy(blocked_inputs, tmp_path, ["walk", *argv], expected_code)
    assert expected_code or "engine: compiled" in out


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--json"], ["asymvar"]],
                         ids=["analyze", "analyze-json", "asymvar"])
def test_hostile_header_refused_without_numpy(blocked_inputs, tmp_path, argv):
    # the edge list alone refutes the header, on any install
    _same_without_numpy(blocked_inputs, tmp_path, [argv[0], "{hostile}", *argv[1:]], 2)


# the edge cap, lowered to 8: K_{2,4} has 8 edges and is accepted; the wheel
# n=3 l1=2 l2=1 has 9, and its ninth edge, on line 10, is refused
CAP_COMMANDS = {"analyze": ["analyze"], "analyze-json": ["analyze", "--json"], "asymvar": ["asymvar"],
                "walk": ["walk", "--len", "8", "--samples", "4"], "pdf": ["pdf", "--len", "8"]}


@pytest.mark.parametrize("case", ["parse_text", "build_graph", "gen", *CAP_COMMANDS])
def test_one_edge_past_the_cap_is_refused(tmp_path, capsys, monkeypatch, case):
    from nbrw import _text, families

    at_cap, past_cap = families.complete_bipartite_edges(2, 4), families.wheel_edges(3, 2, 1)
    for module in (_text, families):
        monkeypatch.setattr(module, "_MAX_VERTEX_COUNT", 8)
    if case == "parse_text":
        assert len(_text.parse_text(_text.format_text(*at_cap)).edges) == 8
        with pytest.raises(nbrw.GraphParseError, match="^line 10: more than 8 edges$"):
            _text.parse_text(_text.format_text(*past_cap))
    elif case == "build_graph":
        assert len(nbrw.build_graph(*at_cap).edges) == 8
        with pytest.raises(nbrw.GraphError, match="^9 edges; at most 8$") as err:
            nbrw.build_graph(*past_cap)
        assert not isinstance(err.value, nbrw.GraphParseError)
    elif case == "gen":
        assert run_cli(capsys, "gen", "bipartite", "--a", "2", "--b", "4")[0] == 0
        code, out, err = run_cli(capsys, "gen", "wheel", "--n", "3", "--l1", "2", "--l2", "1")
        assert code == 64 and out == ""
        assert err == "gen wheel: invalid parameters: wheel would have 7 vertices and 9 edges; at most 8\n"
    else:
        path = tmp_path / "g.txt"
        path.write_text(_text.format_text(*at_cap))
        argv = [CAP_COMMANDS[case][0], str(path), *CAP_COMMANDS[case][1:]]
        assert run_cli(capsys, *argv)[0] == 0  # K_{2,4} is an equal graph
        path.write_text(_text.format_text(*past_cap))
        assert run_cli(capsys, *argv) == (2, "", "error: line 10: more than 8 edges\n")


@pytest.mark.parametrize("command", ["analyze", "asymvar"])
def test_commands_check_each_edge_once(k4e_file, capsys, command):
    from nbrw import _text

    checks = []
    target = _text._checked_edge.__code__
    sys.setprofile(lambda frame, event, _: event == "call" and frame.f_code is target and checks.append(1))
    try:
        code = run_cli(capsys, command, k4e_file)[0]
    finally:
        sys.setprofile(None)
    assert code in (0, 1)
    assert len(checks) == 5  # k4e has 5 edges


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
    assert json.loads(out)["limit"] == 0.0


@pytest.mark.parametrize("command", [["asymvar"], ["analyze", "--with-variance"]], ids=["asymvar", "analyze"])
def test_strict_variance_not_above_zero_exit_2(k4e_file, capsys, monkeypatch, command):
    import numpy as np

    from nbrw import variance

    # centred bit values of 0 make the strict k4e's computed limit exactly 0
    monkeypatch.setattr(variance, "centered_bit_values", lambda g: np.zeros(g.dart_count))
    code, out, err = run_cli(capsys, command[0], k4e_file, *command[1:])
    assert code == 2
    assert out == ""
    assert err == "error: float64 leaves the variance limit of a strict graph at 0.0, not above 0\n"


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
        (["asymvar", "{w523}"], 0, False),  # the variance is exactly 0, with nothing solved
        (["asymvar", "{k4e}", "--truncate", "8"], 0, False),
        (["analyze", "{k4e}", "--with-variance"], 1, False),
        # one more branching vertex than the dense solve takes
        (["asymvar", "{wide}"], 0, True),
    ],
    ids=["gen", "analyze", "analyze-variance-equal", "walk", "pdf", "asymvar", "asymvar-equal", "asymvar-truncated",
         "analyze-variance-strict", "asymvar-above-dense-cutoff"],
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
_PROBED = ("concurrent.futures", "nbrw._kernels", "nbrw._kernels.fallback", "nbrw.conditions", "nbrw.families",
           "nbrw.graph", "nbrw.operators", "nbrw.variance", "nbrw.walks", "numpy", "numpy.ma")
_MODULE_PROBE = f"""
import sys
from nbrw.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m in {_PROBED!r}), file=sys.stderr)
"""


# the selected builder lays out the darts for every command that reads them:
# the compiled kernel, or its numpy twin, which only then loads
_TABLES = ["nbrw._kernels"] if get_kernel()[0] == "compiled" else ["nbrw._kernels", "nbrw._kernels.fallback"]
_WALK_LOADS = _TABLES + ["nbrw.walks"] + ([] if get_kernel()[0] == "compiled" else ["numpy"])


@pytest.mark.parametrize(
    "argv, expected_code, loaded",
    [
        (["analyze", "{k4e}", "--json"], 1, _TABLES + ["nbrw.conditions", "nbrw.graph", "nbrw.operators", "numpy"]),
        (["analyze", "{k4e}", "--with-variance"], 1,
         _TABLES + ["nbrw.conditions", "nbrw.graph", "nbrw.operators", "nbrw.variance", "numpy"]),
        (["walk", "{k4e}", "--len", "5", "--samples", "10"], 0, _WALK_LOADS),
        (["walk", "{k4e}", "--len", "5", "--samples", "10", "--workers", "2"], 0, _WALK_LOADS),
        (["pdf", "{k4e}", "--len", "5"], 0, _WALK_LOADS),
        (["gen", "k4e"], 0, ["nbrw.families"]),
        # refused on the parsed edge list, before anything that needs numpy loads
        (["analyze", "{hostile}"], 2, []),
        (["analyze", "{hostile}", "--json"], 2, []),
        (["asymvar", "{hostile}"], 2, []),
    ],
    ids=["analyze", "analyze-variance", "walk", "walk-workers", "pdf", "gen", "analyze-hostile", "analyze-json-hostile",
         "asymvar-hostile"],
)
def test_commands_load_only_the_modules_they_use(k4e_file, tmp_path, argv, expected_code, loaded):
    hostile = tmp_path / "hostile.txt"
    hostile.write_text("nbgraph 4194304\ne 0 1\n")
    src = str(Path(nbrw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [a.format(k4e=k4e_file, hostile=hostile) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *args], env=env, capture_output=True, text=True, timeout=120
    )
    code, *modules = proc.stderr.splitlines()[-1].split()
    assert int(code) == expected_code, proc.stderr
    assert modules == loaded


def test_analyze_lays_out_the_darts_once(k4e_file, capsys, monkeypatch):
    # the verdict, both criteria, rho and the variance read one layout, from the selected builder
    from nbrw import _kernels

    module = _kernels._compiled if get_kernel()[0] == "compiled" else _kernels.fallback
    builder, calls = module.walk_tables, []
    monkeypatch.setattr(module, "walk_tables", lambda *args: calls.append(args) or builder(*args))
    assert run_cli(capsys, "analyze", k4e_file, "--with-variance")[0] == 1
    assert len(calls) == 1
