#!/usr/bin/env python3
"""Benchmark of the nbrw command line on four workloads.

Run from the root of a checkout:

    python3 clibench/run.py --workload verdict --seed 1 --seconds 18 --trace 0
    python3 clibench/run.py --workload all          # every workload, one after another

Each workload generates one equal-growth graph (rho = lambda) and one
strict graph (rho > lambda) with ``nbrw gen``, relabels their vertices and
edges from ``--seed``, and then, after one warm-up round, repeats rounds
of one CLI invocation per graph, each in its own process, for
``--seconds``.  Every output is checked against oracles computed from the
graph file alone (oracles.py).

With ``--trace 0`` it reports the end-to-end metrics: means over the
timed rounds of the wall times, the largest peak RSS of any invocation
(from ``os.wait4``) and the median set-up time.  With ``--trace 1`` it
runs each invocation in-process through ``nbrw.cli.main``, plain, with
spans around every layer (tracing.py), and plain again, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary
goes to standard error and a full record (invocations, environment,
spans) to ``.bench_build/clibench/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "clibench"
SCHEMA = SRC / "nbrw" / "schemas" / "analysis_report.schema.json"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
WALK_LEN, WALK_SAMPLES, WALK_WORKERS = 1000, 40_000, 2
PDF_LEN = 100
IDENTITY_SAMPLES = 2000  # prefix compared between the compiled and fallback kernels
STRIPPED_ENV = ("NBRW_PURE_PYTHON", "NBRW_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or the build failed)."""


# --- workloads -----------------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    label: str
    gen: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    equal: GraphSpec
    strict: GraphSpec
    argv: Callable[[str, str, int], list[str]]  # (graph path, csv path, seed) -> CLI arguments
    check: Callable  # (ctx, oracle graph, expect_equal, Output) -> list of failures


@dataclass
class Output:
    code: int
    stdout: str
    csv: str | None


def _analyze_argv(with_variance: bool):
    def argv(graph: str, csv: str, seed: int) -> list[str]:
        return ["analyze", graph, "--json"] + (["--with-variance"] if with_variance else [])

    return argv


def _walk_argv(graph: str, csv: str, seed: int) -> list[str]:
    return ["walk", graph, "--len", str(WALK_LEN), "--samples", str(WALK_SAMPLES),
            "--workers", str(WALK_WORKERS), "--seed", str(seed), "--csv", csv]


def _pdf_argv(graph: str, csv: str, seed: int) -> list[str]:
    return ["pdf", graph, "--len", str(PDF_LEN), "--csv", csv]


# --- checks ------------------------------------------------------------------------


class Context:
    """Per-run state the checks share: the schema, the expected walk
    engine, and oracle values cached per graph."""

    def __init__(self, expected_engine: str):
        self.expected_engine = expected_engine
        self.walk_engines: set[str] = set()  # as reported by ``nbrw walk``
        self._validator = None
        self._cache: dict = {}

    def validator(self):
        if self._validator is None:
            import jsonschema

            schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
            self._validator = jsonschema.validators.validator_for(schema)(schema)
        return self._validator

    def oracle(self, g: oracles.DartGraph, what: str, *args):
        key = (id(g), what, args)
        if key not in self._cache:
            self._cache[key] = getattr(g, what)(*args)
        return self._cache[key]


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def check_report(ctx: Context, g: oracles.DartGraph, expect_equal: bool, out: Output) -> list[str]:
    bad = []
    if out.code != (0 if expect_equal else 1):
        bad.append(f"exit code {out.code}")
    report = json.loads(out.stdout)
    bad += [f"schema: {e.message}" for e in list(ctx.validator().iter_errors(report))[:3]]
    if bad:
        return bad
    graph = report["graph"]
    histogram = {str(d): c for d, c in sorted(Counter(int(x) for x in g.degree).items())}
    if (graph["vertices"], graph["edges"], graph["darts"], graph["degree_histogram"]) != (
        g.vertex_count, g.edge_count, g.dart_count, histogram
    ):
        bad.append(f"graph summary {graph}")
    pairs = g.lambda_pairs()
    lam = 2.0 ** g.log2_lambda()
    if report["nb_irreducible"] != "ok":
        bad.append(f"nb_irreducible {report['nb_irreducible']}")
    if report["lambda"]["exact"] != pairs or not _close(report["lambda"]["float"], lam, 1e-12):
        bad.append(f"lambda {report['lambda']} != {pairs}")
    if ctx.oracle(g, "rates_equal") != expect_equal:
        bad.append("oracle's path balances contradict the family's construction")
    if report["verdict"] != ("equal" if expect_equal else "strict"):
        bad.append(f"verdict {report['verdict']}")

    path_c, cycle_c = report["suspended_path_condition"], report["cycle_condition"]
    for name, cond in (("path", path_c), ("cycle", cycle_c)):
        if cond["holds"] != expect_equal or cond["lambda"]["exact"] != pairs:
            bad.append(f"{name} condition holds={cond['holds']} lambda={cond['lambda']['exact']}")
    if expect_equal:
        witness = cycle_c["witness"] or {}
        phi = {int(d): v for d, v in witness.get("phi", {}).items()}
        if witness.get("type") != "potential" or not g.potential_holds(phi):
            bad.append("potential certificate fails phi(f) = phi(e) * lambda / outdeg(e)")
        if path_c["witness"] is not None:
            bad.append("path condition holds but carries a witness")
    else:
        pw, cw = path_c["witness"] or {}, cycle_c["witness"] or {}
        if pw.get("type") != "path" or not g.is_violating_path(pw.get("darts", [])):
            bad.append(f"path witness {pw} is not a violating suspended path")
        if cw.get("type") != "cycle" or not g.is_violating_cycle(cw.get("darts", [])):
            bad.append("cycle witness is not a violating closed non-backtracking walk")

    rho = report["rho"]["value"]
    low, high = ctx.oracle(g, "rho_bracket")
    if not (low * (1 - 1e-9) <= rho <= high * (1 + 1e-9)):
        bad.append(f"rho {rho} outside oracle bracket [{low}, {high}]")
    if expect_equal and not _close(rho, lam, 1e-9):
        bad.append(f"rho {rho} != lambda {lam}")
    if not expect_equal and not (rho > lam and low > lam):
        bad.append(f"rho {rho} (oracle low {low}) not above lambda {lam}")
    if not _close(report["gap"], rho - report["lambda"]["float"], 1e-9, 1e-15):
        bad.append(f"gap {report['gap']}")

    if "asymptotic_variance" in report:
        v = report["asymptotic_variance"]
        if expect_equal and abs(v) > 1e-9:
            bad.append(f"variance {v} not 0 on an equal graph")
        if not expect_equal:
            want = ctx.oracle(g, "asymptotic_variance")
            if not (v > 0 and _close(v, want, 1e-6, 1e-12)):
                bad.append(f"variance {v} != oracle {want}")
    return bad


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _csv_rows(text: str | None) -> list[tuple[float, float]]:
    lines = (text or "").strip().splitlines()
    if not lines or lines[0] != "bits_per_step,probability":
        raise ValueError("CSV header missing")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def check_walk(ctx: Context, g: oracles.DartGraph, expect_equal: bool, out: Output) -> list[str]:
    if out.code != 0:
        return [f"exit code {out.code}"]
    f = _fields(out.stdout)
    ctx.walk_engines.add(f.get("engine", "?"))
    bad = []
    want = {"length": str(WALK_LEN), "samples": str(WALK_SAMPLES), "workers": str(WALK_WORKERS),
            "engine": ctx.expected_engine}
    bad += [f"{k}: {f.get(k)} != {v}" for k, v in want.items() if f.get(k) != v]
    mean, sem = float(f["mean_bits_per_step"]), float(f["standard_error_of_mean"])
    var_step = float(f["variance_per_step"])
    log2_lam = g.log2_lambda()
    if abs(mean - log2_lam) > 5 * sem + 1e-9:
        bad.append(f"mean {mean} more than 5 standard errors ({sem}) from log2 lambda {log2_lam}")

    # moments of the bit total from the histogram give the sampling error of the variance
    rows = _csv_rows(out.csv)
    n = WALK_SAMPLES
    total = sum(p for _, p in rows)
    mu = sum(p * b for b, p in rows) * WALK_LEN
    m2 = sum(p * (b * WALK_LEN - mu) ** 2 for b, p in rows)
    m4 = sum(p * (b * WALK_LEN - mu) ** 4 for b, p in rows)
    if abs(total - 1) > 1e-9 * len(rows) or not _close(mu / WALK_LEN, mean, 1e-9, 1e-8):
        bad.append(f"histogram sums to {total}, mean {mu / WALK_LEN}")
    if not _close(m2 * n / (n - 1), var_step * WALK_LEN, 1e-6, 1e-6):
        bad.append(f"histogram variance {m2 * n / (n - 1)} != printed {var_step * WALK_LEN}")
    se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n) / WALK_LEN
    exact = ctx.oracle(g, "finite_variance", WALK_LEN)
    if abs(var_step - exact) > 5 * se_var + 1e-9:
        bad.append(f"variance per step {var_step} vs oracle {exact}: beyond 5 x {se_var}")
    return bad


def check_pdf(ctx: Context, g: oracles.DartGraph, expect_equal: bool, out: Output) -> list[str]:
    if out.code != 0:
        return [f"exit code {out.code}"]
    f = _fields(out.stdout)
    bad = []
    rows = _csv_rows(out.csv)
    total = sum(p for _, p in rows)
    csv_mean = sum(p * b for b, p in rows)
    log2_lam = g.log2_lambda()
    if abs(total - 1) > 1e-9 * len(rows):
        bad.append(f"probabilities sum to {total}")
    if abs(csv_mean - log2_lam) > 1e-8 or abs(float(f["mean_bits_per_step"]) - log2_lam) > 1e-8:
        bad.append(f"mean {f['mean_bits_per_step']} / CSV {csv_mean} != log2 lambda {log2_lam}")
    exact = ctx.oracle(g, "finite_variance", PDF_LEN)
    if not _close(float(f["variance_of_bits"]) / PDF_LEN, exact, 1e-6, 1e-9):
        bad.append(f"variance per step {float(f['variance_of_bits']) / PDF_LEN} != oracle {exact}")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verdict", GraphSpec("hk8", ("hk", "--k", "8")),
                 GraphSpec("w257-3-8", ("wheel", "--n", "257", "--l1", "3", "--l2", "8")),
                 _analyze_argv(False), check_report),
        Workload("variance", GraphSpec("w129-3-12", ("wheel", "--n", "129", "--l1", "3", "--l2", "12")),
                 GraphSpec("w129-4-11", ("wheel", "--n", "129", "--l1", "4", "--l2", "11")),
                 _analyze_argv(True), check_report),
        Workload("walk", GraphSpec("w17-2-5", ("wheel", "--n", "17", "--l1", "2", "--l2", "5")),
                 GraphSpec("k4e", ("k4e",)), _walk_argv, check_walk),
        Workload("exact-law", GraphSpec("w5-2-3", ("wheel", "--n", "5", "--l1", "2", "--l2", "3")),
                 GraphSpec("w5-3-2", ("wheel", "--n", "5", "--l1", "3", "--l2", "2")), _pdf_argv, check_pdf),
    )
}


# --- processes ---------------------------------------------------------------------


def clean_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Invocation:
    label: str
    round: int  # 0 is the untimed warm-up round
    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int


def run_process(argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
    """Wall time, peak RSS (MB) and exit code of one child process.

    Peak RSS comes from ``os.wait4`` on this child alone; the children
    high-water mark of ``getrusage`` would carry an earlier, larger child
    into every later reading."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=clean_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_nbrw(argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
    return run_process([sys.executable, "-m", "nbrw", *argv], stdout_path)


def python_output(code: str, *args: str) -> str:
    result = subprocess.run([sys.executable, "-c", code, *args], env=clean_env(), cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    if result.returncode != 0:
        raise BenchError(f"probe failed: {result.stderr.strip()[-2000:]}")
    return result.stdout


def ensure_built() -> dict:
    """Build the package in place the way an install does (the optional
    walk extension, then bytecode), once per source state."""
    if not (SRC / "nbrw" / "__init__.py").is_file() or not (ROOT / "setup.py").is_file():
        raise BenchError(f"no nbrw source under {ROOT}; run from the root of a checkout")
    digest = hashlib.sha256()
    for path in [ROOT / "setup.py", ROOT / "pyproject.toml", *sorted((SRC / "nbrw" / "_kernels").glob("*"))]:
        if path.is_file() and path.suffix not in (".so", ".pyd"):
            digest.update(path.name.encode() + path.read_bytes())
    stamp = WORK_ROOT / "build.stamp"
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    if not (stamp.is_file() and stamp.read_text() == digest.hexdigest()):
        for cmd in (
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--build-temp", str(WORK_ROOT / "build")],
            [sys.executable, "-m", "compileall", "-q", str(SRC / "nbrw")],
        ):
            result = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True, text=True)
            if result.returncode != 0:
                raise BenchError(f"build step {cmd[1:3]} failed:\n{result.stderr[-4000:]}")
        stamp.write_text(digest.hexdigest())
    probe = (
        "import json, os, platform, numpy, scipy, nbrw._kernels as k;"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'engines': k.available_engines(),"
        " 'nproc': len(os.sched_getaffinity(0))}))"
    )
    env = json.loads(python_output(probe))
    env["compiled_kernel_imports"] = "compiled" in env["engines"]
    return env


# --- inputs --------------------------------------------------------------------------


def relabel(text: str, rng: random.Random) -> str:
    """The same graph with permuted vertex ids, edge order and orientations;
    every answer the program gives must be invariant under this."""
    lines = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    n = int(lines[0][1])
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for fields in lines[1:]:
        ends = [perm[int(v)] for v in fields[1:]]
        if rng.random() < 0.5:
            ends.reverse()
        edges.append(" ".join([fields[0], *map(str, ends)]))
    rng.shuffle(edges)
    return "\n".join([f"nbgraph {n}", *edges]) + "\n"


def make_graphs(workload: Workload, seed: int, work: Path, gen) -> tuple[list[float], dict]:
    """Write both graphs ``SETUP_REPEATS`` times with ``gen`` (a callable
    returning seconds), then relabel them from the seed.  Returns the
    set-up times and {label: (path, oracle graph)}."""
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(sum(gen(list(spec.gen), work / f"{spec.label}.gen.txt")
                         for spec in (workload.equal, workload.strict)))
    graphs = {}
    for spec in (workload.equal, workload.strict):
        rng = random.Random(f"{seed}:{spec.label}")
        text = relabel((work / f"{spec.label}.gen.txt").read_text(encoding="utf-8"), rng)
        path = work / f"{spec.label}.txt"
        path.write_text(text, encoding="utf-8")
        graphs[spec.label] = (str(path), oracles.parse_graph(text))
    return times, graphs


def gen_process(args: list[str], path: Path) -> float:
    wall, _, code = run_nbrw(["gen", *args, "-o", str(path)], path.with_suffix(".out"))
    if code != 0:
        raise BenchError(f"nbrw gen {' '.join(args)} exited {code}")
    return wall


# --- the two kinds of run -------------------------------------------------------------


@dataclass
class RunState:
    workload: Workload
    seed: int
    work: Path
    ctx: Context
    graphs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def cases(self):
        for spec, equal in ((self.workload.equal, True), (self.workload.strict, False)):
            path, g = self.graphs[spec.label]
            csv = self.work / f"{spec.label}.csv"
            yield spec.label, equal, g, self.workload.argv(path, str(csv), self.seed), csv

    def judge(self, label: str, equal: bool, g, out: Output) -> None:
        self.attempted += 1
        if out.code not in (0, 1):
            self.failed += 1
            self.failures.append(f"{label}: exited {out.code}")
            return
        try:
            problems = self.workload.check(self.ctx, g, equal, out)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.failures += [f"{label}: {p}" for p in problems]


def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.exists() else None


def measure(state: RunState, seconds: float) -> tuple[dict, list[Invocation]]:
    """One warm-up round, then timed rounds of one process per graph until
    ``seconds`` have passed.  Every round is checked; the warm-up round,
    which runs some 10 % slower on verdict and exact-law, is not timed."""
    invocations: list[Invocation] = []

    def one_round(number: int) -> dict[str, float]:
        walls = {}
        for label, equal, g, argv, csv in state.cases():
            csv.unlink(missing_ok=True)
            stdout_path = state.work / f"{label}.stdout"
            wall, rss, code = run_nbrw(argv, stdout_path)
            invocations.append(Invocation(label, number, argv, wall, rss, code))
            walls[label] = wall
            state.judge(label, equal, g, Output(code, stdout_path.read_text(encoding="utf-8"), _read(csv)))
        return walls

    one_round(0)
    rounds: list[dict[str, float]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round(len(rounds) + 1))
    eq, st = state.workload.equal.label, state.workload.strict.label
    # Means over rounds: the host alternates between a fast and a slow speed,
    # and a mean moves with the share of slow rounds where a median jumps.
    metrics = {
        "wall_s": (statistics.fmean(r[eq] + r[st] for r in rounds), "s"),
        "equal_s": (statistics.fmean(r[eq] for r in rounds), "s"),
        "strict_s": (statistics.fmean(r[st] for r in rounds), "s"),
        "peak_rss_mb": (max(i.rss_mb for i in invocations), "MB"),
    }
    return metrics, invocations


def engine_identity(state: RunState, env: dict) -> str:
    """Compare compiled and fallback count matrices on a sample prefix."""
    if not env["compiled_kernel_imports"]:
        return "skipped: the compiled kernel does not import"
    code = (
        "import sys, numpy as np; from nbrw import load_graph, run_walks;"
        "g = load_graph(sys.argv[1]); n, l, s = map(int, sys.argv[2:]);"
        "a = run_walks(g, l, n, s, engine='compiled'); b = run_walks(g, l, n, s, engine='python');"
        "print(int(np.array_equal(a.counts, b.counts) and np.array_equal(a.end_darts, b.end_darts)))"
    )
    for label, _, _, argv, _ in state.cases():
        same = python_output(code, argv[1], str(IDENTITY_SAMPLES), str(WALK_LEN), str(state.seed)).strip()
        if same != "1":
            state.failures.append(f"{label}: compiled and fallback kernels differ")
            return "differ"
    return "identical"


def untraced_run(state: RunState, seconds: float, env: dict) -> tuple[dict, dict]:
    setup, state.graphs = make_graphs(state.workload, state.seed, state.work, gen_process)
    metrics, invocations = measure(state, seconds)
    metrics["setup_s"] = (statistics.median(setup), "s")
    record = {"setup_s": setup, "invocations": [vars(i) for i in invocations]}
    if state.workload.name == "walk":
        record["engine_identity"] = engine_identity(state, env)
    return metrics, record


def _import_nbrw():
    sys.path.insert(0, str(SRC))
    import nbrw.cli

    return nbrw.cli


def in_process(state: RunState, cli, case) -> float:
    """One invocation through ``cli.main`` in this process; returns its wall time."""
    label, equal, g, argv, csv = case
    csv.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            print(repr(exc), file=err)
            code = -1
        wall = time.perf_counter() - start
    state.judge(label, equal, g, Output(code, out.getvalue(), _read(csv)))
    return wall


PER_LAYER_UNITS = {
    "cli.import_s": "s", "graph.parse_s": "s", "graph.irreducible_s": "s", "graph.irreducible_calls": "count",
    "conditions.lambda_s": "s", "conditions.lambda_calls": "count", "conditions.path_criterion_s": "s",
    "conditions.cycle_criterion_s": "s", "conditions.verdict_self_s": "s", "operators.nb_matrix_s": "s",
    "operators.nb_matrix_calls": "count", "operators.arcs": "count", "operators.perron_s": "s",
    "operators.perron_calls": "count", "operators.perron_iterations": "count",
    "operators.transition_matrix_s": "s", "variance.asymptotic_s": "s", "walks.run_walks_s": "s",
    "walks.bit_stats_s": "s", "walks.csv_s": "s", "walks.exact_dp_s": "s", "kernels.sample_s": "s",
    "kernels.steps_per_s": "steps/s", "families.gen_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
}


def traced_run(state: RunState) -> tuple[dict, dict]:
    imports = [float(python_output("import time; t = time.perf_counter(); import nbrw;"
                                   " print(time.perf_counter() - t)")) for _ in range(IMPORT_REPEATS)]
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    cli = _import_nbrw()

    gen_tracer = tracing.Tracer()
    uninstall = tracing.install(gen_tracer)
    try:
        def gen_in_process(args: list[str], path: Path) -> float:
            start = time.perf_counter()
            if cli.main(["gen", *args, "-o", str(path)]) != 0:
                raise BenchError(f"nbrw gen {' '.join(args)} failed")
            return time.perf_counter() - start

        _, state.graphs = make_graphs(state.workload, state.seed, state.work, gen_in_process)
    finally:
        uninstall()

    # each invocation runs plain, traced, plain: the overhead is the traced
    # time minus the mean of the two plain ones around it
    tracer = tracing.Tracer()
    plain, traced = [], []
    for case in state.cases():
        plain.append(in_process(state, cli, case))
        uninstall = tracing.install(tracer)
        try:
            traced.append(in_process(state, cli, case))
        finally:
            uninstall()
        plain.append(in_process(state, cli, case))
    plain_s, traced_s = sum(plain) / 2, sum(traced)

    s = tracing.SpanSummary(tracer)
    sample_s = s.time("kernels.sample")
    values = {
        "cli.import_s": statistics.median(imports),
        "graph.parse_s": s.time("graph.parse_graph_text"),
        "graph.irreducible_s": s.time("graph.is_nb_irreducible"),
        "graph.irreducible_calls": s.calls("graph.is_nb_irreducible"),
        "conditions.lambda_s": s.time("conditions.average_growth_rate"),
        "conditions.lambda_calls": s.calls("conditions.average_growth_rate"),
        "conditions.path_criterion_s": s.time("conditions.check_suspended_path_condition"),
        "conditions.cycle_criterion_s": s.time("conditions.check_cycle_condition"),
        "conditions.verdict_self_s": s.self_time("conditions.growth_verdict"),
        "operators.nb_matrix_s": s.time("operators.build_nb_matrix"),
        "operators.nb_matrix_calls": s.calls("operators.build_nb_matrix"),
        "operators.arcs": s.counts["operators.arcs"],
        "operators.perron_s": s.time("operators.perron"),
        "operators.perron_calls": s.calls("operators.perron"),
        "operators.perron_iterations": s.counts["operators.perron_iterations"],
        "operators.transition_matrix_s": s.time("operators.build_transition_matrix"),
        "variance.asymptotic_s": s.time("variance.asymptotic_variance"),
        "walks.run_walks_s": s.time("walks.run_walks"),
        "walks.bit_stats_s": s.time("walks.bit_stats"),
        "walks.csv_s": s.time("walks.distribution_csv", "walks.histogram_csv"),
        "walks.exact_dp_s": s.time("walks.exact_bit_distribution"),
        "kernels.sample_s": sample_s,
        "kernels.steps_per_s": s.counts["kernels.steps"] / sample_s if sample_s > 0 else 0.0,
        "families.gen_s": tracing.SpanSummary(gen_tracer).covered(lambda n: n.startswith("families.")) / SETUP_REPEATS,
        "trace.overhead_s": traced_s - plain_s,
        "trace.coverage": s.coverage(),
    }
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    record = {"untraced_s": plain_s, "traced_s": traced_s, "import_s": imports, "layers": s.by_name(),
              "spans": [[n, round(a, 7), round(b, 7), p] for n, a, b, p in tracer.spans]}
    return metrics, record


# --- entry point ----------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    env = ensure_built()
    work = WORK_ROOT / f"run-{os.getpid()}-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context("compiled" if env["compiled_kernel_imports"] else "python")
    state = RunState(workload, seed, work, ctx)
    try:
        bad = oracles.k4e_self_check()
        state.failures += [f"oracle self-check: {b}" for b in bad]
        metrics, record = traced_run(state) if trace else untraced_run(state, seconds, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not state.failures,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    record.update(workload=workload.name, seed=seed, seconds=seconds, trace=trace, environment=env,
                  walk_engines=sorted(ctx.walk_engines), failures=state.failures, result=result)
    (records / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))

    print(f"{workload.name}: attempted {state.attempted}, failed {state.failed}, "
          f"correct {result['correct']}  (default engine {ctx.expected_engine}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)
    for failure in state.failures[:20]:
        print(f"  FAIL {failure}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"clibench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
