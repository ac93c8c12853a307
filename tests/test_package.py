"""The lazy package shell and the process entry of ``python -m nbrw``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbrw

PUBLIC_NAMES = sorted(
    """BitStats CapabilityError ConditionVerdict ConsistencyError ExactBitDistribution ExactValue
    FactoredNbOperator Graph GraphError GraphParseError GrowthVerdict IrreducibilityVerdict
    PerronResult PowerIterationError PreconditionError SuspendedPath VarianceReport WalkBatch
    asymptotic_variance average_growth_rate build_graph build_transition_matrix
    build_weighted_matrix centered_bit_values check_cycle_condition check_suspended_path_condition
    complete_bipartite_graph complete_graph cover_growth_rate distribution_csv equal_growth_wheel
    equal_growth_wheel_parameters exact_bit_distribution factored_nb_operator format_graph_text growth_verdict histogram_csv interpolation_matrix is_nb_irreducible
    k4_minus_edge load_graph nb_perron parse_graph_text perron run_walks
    save_graph subdivide suspended_path_decomposition tracked_degrees truncated_variance
    variance_report wheel_graph""".split()
)


def _run(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    src = str(Path(nbrw.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**base, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_no_submodule_and_no_numpy():
    proc = _run(
        "import sys, nbrw\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy') or m.startswith('nbrw.')))\n"
        "print(nbrw.graph.Graph is nbrw.Graph, nbrw.graph is sys.modules['nbrw.graph'], 'walks' in dir(nbrw))"
    )
    assert proc.stdout.splitlines() == ["", "True True True"]


def test_public_names_are_the_defining_modules_objects():
    assert sorted(nbrw.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(nbrw, name)
        assert obj.__module__.startswith("nbrw.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(PUBLIC_NAMES) <= set(dir(nbrw))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        nbrw.nonexistent


def test_library_calls_load_no_scipy():
    # scipy's one use is the sparse LU above the dense cutoff; perron takes
    # a numpy array as it is, and the solve at the cutoff is dense
    proc = _run(
        "import sys, numpy as np, nbrw\n"
        "from nbrw.variance import _DENSE_UNKNOWNS\n"
        "g = nbrw.k4_minus_edge()\n"
        "nbrw.perron(np.array([[0, 0, 1], [2, 0, 0], [1, 1, 0]], dtype=float))\n"
        "nbrw.nb_perron(g)\n"
        "nbrw.truncated_variance(g, 8)\n"
        "nbrw.asymptotic_variance(nbrw.wheel_graph(_DENSE_UNKNOWNS - 1, 1, 2))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert proc.stdout.split() == []


# Runs ``python -m nbrw`` with the given arguments and reports the exit code,
# whether the collector is off with objects frozen at exit, and the
# OPENBLAS_NUM_THREADS that numpy found when it loaded, with whether the
# collector was on then.
_ENTRY_PROBE = """
import gc, os, runpy, sys
seen = []
def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.extend([os.environ.get("OPENBLAS_NUM_THREADS"), gc.isenabled()])
sys.addaudithook(hook)
sys.argv[0] = "nbrw"
try:
    runpy.run_module("nbrw", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0, *seen, file=sys.stderr)
"""


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("3", "3")])
def test_entry_sets_one_blas_thread_unless_the_user_did(tmp_path, user_value, expected):
    # gen loads no numpy, so the probe analyzes k4e: the collector stays off
    # through the command, numpy's import included, and all is frozen at exit
    path = tmp_path / "k4e.txt"
    path.write_text(nbrw.format_graph_text(nbrw.k4_minus_edge()))
    env = {} if user_value is None else {"OPENBLAS_NUM_THREADS": user_value}
    proc = _run(_ENTRY_PROBE, "analyze", str(path), **env)
    assert "verdict: strict" in proc.stdout.splitlines()
    assert proc.stderr.split() == ["1", "False", "True", expected, "False"]


def test_installed_command_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["nbrw"]
    assert target == "nbrw.__main__:main"
    proc = _run("import sys; from nbrw.__main__ import main; sys.argv[0] = 'nbrw'; sys.exit(main())", "gen", "k4e")
    assert "nbgraph 4" in proc.stdout.splitlines()
