import contextlib
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lassodist as ld
from lassodist import _engine, _json, cli, simulate
from lassodist.cli import render_json
from lassodist.errors import NumericalError

from conftest import FIXTURES, GOLDEN, SRC
from mvn_oracle import singular_box_prob

N1P2 = str(FIXTURES / "n1p2_uniform.json")
N1P2_LAM12 = str(FIXTURES / "n1p2_lam12.json")
D2X3 = str(FIXTURES / "design_2x3.json")
D2X4 = str(FIXTURES / "design_2x4.json")
CORR2 = str(FIXTURES / "corr2.json")
CORR3 = str(FIXTURES / "corr3.json")
X2X3_RANK2 = str(FIXTURES / "x2x3_rank2.json")
N12P10 = str(FIXTURES / "n12p10.json")
SCALED_2X3 = str(FIXTURES / "scaled_2x3.json")  # column norms 1e12, about 1 and 2.2
HUGE_SIGMA = str(FIXTURES / "huge_sigma.json")  # sigma = 1e160 on the 2 x 2 identity
TINY_SIGMA = str(FIXTURES / "tiny_sigma.json")  # sigma = 1e-200
HUGE_DESIGN = str(FIXTURES / "huge_design.json")  # entries 1e160: X'X overflows
HUGE_MEAN = str(FIXTURES / "huge_mean.json")  # entries 1e150, beta (1e10, 1): X'X beta overflows
# X'X's largest diagonal entry 1e300 and sigma = 1e150 are legal alone; sigma^2 X'X overflows
HUGE_SIGMA_GRAM = str(FIXTURES / "huge_sigma_gram.json")


def _source_env():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args):
    """A fresh interpreter on the source tree."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_source_env())


def run_cli(*args):
    # a RuntimeWarning fails the call, as it fails tier-1 in process
    return run_python("-W", "error::RuntimeWarning", "-m", "lassodist", *args)


GOLDEN_CASES = [
    ("check_unique_n1p2_uniform.json", ("check-unique", "--input", N1P2)),
    ("check_unique_n1p2_lam12.json", ("check-unique", "--input", N1P2_LAM12)),
    ("structural_set_2x3.json", ("structural-set", "--input", D2X3)),
    ("check_unique_2x4.json", ("check-unique", "--input", D2X4)),
    ("general_position_2x4.json", ("general-position", "--input", D2X4)),
    ("solve_n1p2_uniform.json", ("solve", "--input", N1P2)),
    ("orthant_prob_corr2.json", ("orthant-prob", "--input", CORR2, "--signs", "0,0")),
    ("cdf_corr2.json", ("cdf", "--input", CORR2, "--z", "0.4,-0.1")),
    # Genz blocks: pins the lattice seeds and the per-shift evaluation
    ("orthant_prob_corr3.json", ("orthant-prob", "--input", CORR3, "--signs", "0,0,0")),
    ("cdf_corr3.json", ("cdf", "--input", CORR3, "--z", "0.5,0.5,0.5")),
    ("prob_zero_n1p2.json", ("prob-zero", "--input", N1P2)),
    ("prob_zero_n1p2_mc.json",
     ("prob-zero", "--input", N1P2, "--method", "mc", "--samples", "8192", "--seed", "1")),
    # Monte-Carlo orthant events: full rank with thresholds over three blocks,
    # rank-deficient with every replicate solved, and bhat = 0 at full rank
    ("orthant_prob_corr3_mc.json",
     ("orthant-prob", "--input", CORR3, "--signs", "1,0,-1", "--z", "0.05,0,-0.05",
      "--method", "mc", "--samples", "20000", "--seed", "1")),
    ("orthant_prob_x2x3_rank2_mc.json",
     ("orthant-prob", "--input", X2X3_RANK2, "--signs", "1,0,0", "--method", "mc",
      "--samples", "10000", "--seed", "5")),
    ("prob_zero_corr3_mc.json",
     ("prob-zero", "--input", CORR3, "--method", "mc", "--samples", "20000", "--seed", "2")),
    # bhat_1 is of order 1e-12 on a column of norm 1e12, and nonzero in every replicate
    ("prob_zero_scaled_2x3_mc.json",
     ("prob-zero", "--input", SCALED_2X3, "--method", "mc", "--samples", "20000", "--seed", "1")),
    ("simulate_n1p2.json", ("simulate", "--input", N1P2, "--reps", "2000", "--seed", "3")),
    ("simulate_n1p2.csv",
     ("simulate", "--input", N1P2, "--reps", "2000", "--seed", "3", "--report", "csv")),
    # three replicate chunks with p > n: blocks, pattern counting and cone tests
    ("simulate_x2x3_rank2.json",
     ("simulate", "--input", X2X3_RANK2, "--reps", "10000", "--seed", "5")),
    # 885 sign patterns and 414 supports, 149 kB: a report written in several batches
    ("simulate_n12p10.json", ("simulate", "--input", N12P10, "--reps", "4000", "--seed", "7")),
    ("shrinkage_map_corr2.json", ("shrinkage-map", "--input", CORR2, "--b", "0.5,-0.3")),
    ("density_grid_corr2.csv", ("density-grid", "--input", CORR2, "--grid", "-1:1:5")),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_outputs_are_byte_stable(golden, args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()
    # a warning in the child, which pytest's filters do not reach, would show here
    assert proc.stderr == ""


def _generic_render(obj, indent=0):
    """The renderer before its plain-int list path, kept as the reference."""
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            raise NumericalError("non-finite value in output")
        if x == 0.0:
            x = 0.0
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in obj):
            return "[" + ", ".join(_generic_render(v) for v in obj) + "]"
        pad = "  " * (indent + 1)
        inner = ",\n".join(pad + _generic_render(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + "  " * indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (indent + 1)
        inner = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_generic_render(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + "  " * indent + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _outcome(render, obj):
    try:
        return render(obj)
    except NumericalError:
        return NumericalError


_ints = st.integers(-(10**20), 10**20)
_leaves = st.one_of(
    _ints, st.booleans(), st.none(), st.text(max_size=4), st.just(-0.0), st.floats(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.lists(_ints | st.booleans(), max_size=6),
        st.lists(st.integers(-1000, 1000), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    ),
    max_leaves=30,
)


@given(_payloads)
@settings(deadline=None, max_examples=300)
def test_render_matches_the_generic_renderer(obj):
    # plain-int lists take a join of str; bools, numpy scalars and floats
    # in a list keep the per-value path
    assert _outcome(render_json, obj) == _outcome(lambda o: _generic_render(o) + "\n", obj)


def _rows_lazy(doc):
    """doc with each top-level list of dicts made an iterator, as a streamed
    report's rows are."""
    return {k: iter(v) if isinstance(v, list) and all(isinstance(r, dict) for r in v) else v
            for k, v in doc.items()}


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_streamed_report_matches_the_whole_text(monkeypatch, golden):
    text = (GOLDEN / golden).read_text()
    doc = json.loads(text)
    assert render_json(doc) == text
    monkeypatch.setattr(_json, "_BATCH", 1000)
    batches = list(_json._batches(_json.stream_json(_rows_lazy(doc))))
    assert "".join(batches) == text
    # every batch but the last holds at least _BATCH characters
    assert all(len(b) >= 1000 for b in batches[:-1]) and len(batches) > len(text) // 2000


# a report's values: payloads, and lists of dict rows, each streamed as an
# iterator (True) or rendered whole (False)
_rows = st.lists(st.dictionaries(st.text(max_size=4), _payloads, max_size=3), max_size=4)
_entries = _payloads.map(lambda v: (v, False)) | st.tuples(_rows, st.booleans())


@given(st.dictionaries(st.text(max_size=4), _entries, max_size=5))
@settings(deadline=None, max_examples=300)
def test_streamed_render_matches_render_json(report):
    # an error is raised wherever render_json raises it
    whole = {k: v for k, (v, _) in report.items()}
    streamed = {k: iter(v) if lazy else v for k, (v, lazy) in report.items()}
    stream = _outcome(lambda r: "".join(_json.stream_json(r)), streamed)
    assert stream == _outcome(render_json, whole)


def _keep_summary(monkeypatch):
    """Make simulate.run_simulation return its first summary on every later call."""
    kept = []
    run = simulate.run_simulation
    monkeypatch.setattr(simulate, "run_simulation", lambda *a: kept[0] if kept else
                        kept.append(run(*a)) or kept[0])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_report_streams_in_bounded_memory(monkeypatch):
    # 149 kB of report on n12p10. With its rows made as they are written the
    # report takes 0.31 MB traced (the summary aside) and the whole call
    # 2.25 MB; built as dicts and one string, with the solver's wider
    # temporaries, they take 0.90 and 3.2 MB
    args = ["simulate", "--input", N12P10, "--reps", "4000", "--seed", "7"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert cli.main(args) == 0
        call = _traced_peak(lambda: cli.main(args))
        _keep_summary(monkeypatch)
        cli.main(args)
        report = _traced_peak(lambda: cli.main(args))
    assert call < 2.7e6 and report < 0.6e6


def test_failed_report_writes_nothing(monkeypatch, capsys):
    # the ECDF grid comes after 149 kB of rows: a NaN in it raises before
    # the first batch is written
    axes = simulate._ecdf_axes

    def nan_axes(*args):
        grids = axes(*args)
        grids[len(grids) // 2][3] = math.nan
        return grids

    monkeypatch.setattr(simulate, "_ecdf_axes", nan_axes)
    assert cli.main(["simulate", "--input", N12P10, "--reps", "4000", "--seed", "7"]) == 3
    assert capsys.readouterr() == ("", "error: non-finite value in output\n")


def test_cli_runs_without_scipy():
    # scipy made unimportable: every golden command prints its golden, and
    # the p = 3 calls with Genz blocks (corr3.json) succeed
    code = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from lassodist.cli import main

results = []
for args in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""
    genz_calls = [
        ("orthant-prob", "--input", CORR3, "--signs", "0,0,0"),
        ("cdf", "--input", CORR3, "--z", "0.5,0.5,0.5"),
        ("prob-zero", "--input", X2X3_RANK2),
    ]
    calls = [args for _, args in GOLDEN_CASES] + genz_calls
    proc = run_python("-c", code, json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for (golden, _), (status, out) in zip(GOLDEN_CASES, results):
        assert status == 0 and out == (GOLDEN / golden).read_text(), golden
    (mass_status, mass), (cdf_status, cdf), (zero_status, zero) = results[len(GOLDEN_CASES):]
    assert mass_status == 0 and json.loads(mass)["n_samples"] > 0
    assert cdf_status == 0 and 0.0 < json.loads(cdf)["cdf"] < 1.0
    assert zero_status == 0 and json.loads(zero)["n_samples"] > 0


def _state_at_exit(*args):
    """Run `python -m lassodist *args` in a fresh interpreter with an atexit
    hook: (process, the names in sys.modules at exit, or None if the hook
    did not run)."""
    code = """
import atexit, json, runpy, sys
atexit.register(lambda: sys.stderr.write("\\n" + json.dumps(sorted(sys.modules)) + "\\n"))
runpy.run_module("lassodist", run_name="__main__", alter_sys=True)
"""
    proc = run_python("-c", code, *args)
    lines = proc.stderr.splitlines()
    return proc, set(json.loads(lines[-1])) if lines and lines[-1].startswith("[") else None


# a Genz block draws its lattice shifts from the standard library's random;
# numpy.random (and the secrets and OpenSSL modules it loads) loads on no call
_QUADRATURE_ABSENT = {"lassodist.geometry", "lassodist.rng", "lassodist.simulate",
                      "lassodist.solver", "lassodist.simplex", "numpy.random", "secrets"}
# the Genz kernel compiles on the first Genz block only
_MC_ABSENT = {"lassodist._genz", "numpy.random", "secrets"}


@pytest.mark.parametrize("args,golden,present,absent", [
    (("check-unique", "--input", D2X4), "check_unique_2x4.json", {"lassodist.geometry"},
     {"lassodist.distribution", "lassodist.simulate", "lassodist.solver", "numpy.random"}),
    (("orthant-prob", "--input", CORR2, "--signs", "0,0"), "orthant_prob_corr2.json",
     {"lassodist.distribution"}, _QUADRATURE_ABSENT | {"lassodist._genz"}),
    (("orthant-prob", "--input", CORR3, "--signs", "0,0,0"), "orthant_prob_corr3.json",
     {"lassodist.distribution", "lassodist._genz", "random"}, _QUADRATURE_ABSENT),
    (("cdf", "--input", CORR3, "--z", "0.5,0.5,0.5"), "cdf_corr3.json",
     {"lassodist.distribution", "lassodist._genz", "random"}, _QUADRATURE_ABSENT),
    (("simulate", "--input", N1P2, "--reps", "2000", "--seed", "3"), "simulate_n1p2.json",
     {"lassodist.simulate", "lassodist.solver", "lassodist.rng"},
     _MC_ABSENT | {"lassodist.distribution", "lassodist.geometry"}),
    (("prob-zero", "--input", N1P2, "--method", "mc", "--samples", "8192", "--seed", "1"),
     "prob_zero_n1p2_mc.json",
     {"lassodist.simulate", "lassodist.solver", "lassodist.rng"},
     _MC_ABSENT | {"lassodist.distribution", "lassodist.geometry"}),
], ids=["check-unique", "orthant-prob.closed-form", "orthant-prob.genz", "cdf.genz", "simulate",
        "prob-zero.mc"])
def test_call_loads_only_its_engine(args, golden, present, absent):
    proc, loaded = _state_at_exit(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()
    assert present <= loaded, present - loaded
    # records are built by model._record, not by generated dataclass code, and
    # options are parsed from the CLI's table, not by argparse and its gettext
    absent = absent | {"dataclasses", "argparse", "gettext", "locale"}
    assert not loaded & absent, loaded & absent


def test_main_module_reads_the_method_as_the_parser_does(capsys):
    # __main__ scans the raw arguments for --method before cli.py compiles;
    # "--method=mc" names the Monte-Carlo engine as "--method mc" does
    args = ("orthant-prob", "--input", CORR3, "--signs", "1,0,-1", "--method=mc",
            "--samples", "8192", "--seed", "1")
    proc, loaded = _state_at_exit(*args)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(list(args)) == 0
    assert proc.stdout == capsys.readouterr().out
    assert "lassodist.simulate" in loaded and "lassodist.distribution" not in loaded


def test_engine_imports_are_acyclic():
    # the Genz kernel imports nothing of the package, and the Monte-Carlo
    # engine runs without the distribution module it serves
    code = """
import json, sys
import lassodist._genz
genz = sorted(m for m in sys.modules if m.startswith("lassodist"))
import numpy as np
from lassodist.model import build_problem, gaussian_model, tuning_vector
from lassodist.simulate import SimulationConfig, estimate_nonuniqueness_probability
prob = build_problem(np.array([[1.0, 2.0]]))
rp = estimate_nonuniqueness_probability(
    prob, gaussian_model(prob, [0.5, 0.0], 1.0), tuning_vector([1.0, 2.0]),
    SimulationConfig(n_rep=500, seed=3))
print(json.dumps([genz, "lassodist.distribution" in sys.modules, type(rp).__module__,
                  rp.n_samples]))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    genz, distribution_loaded, record_home, n = json.loads(proc.stdout)
    assert genz == ["lassodist", "lassodist._genz"]
    assert not distribution_loaded
    assert record_home == "lassodist.model" and n == 500


def test_exit_runs_atexit_and_keeps_the_code(tmp_path):
    # the call ends with os._exit: atexit handlers (the hook of _state_at_exit)
    # still run, stdout is flushed and main()'s code is the exit status
    proc, loaded = _state_at_exit("orthant-prob", "--input", CORR2, "--signs", "0,0")
    assert proc.returncode == 0 and loaded, proc.stderr
    assert proc.stdout == (GOLDEN / "orthant_prob_corr2.json").read_text()
    big = tmp_path / "p5.json"
    big.write_text(json.dumps({"X": np.eye(5).tolist(), "lambda": [1.0] * 5}))
    for args, code in ((("solve", "--input", str(tmp_path / "nope.json")), 2),
                       (("cdf", "--input", str(big), "--z", "0,0,0,0,0"), 3),
                       (("no-such-command",), 64)):
        proc, loaded = _state_at_exit(*args)
        assert proc.returncode == code and loaded and proc.stdout == "", (args, proc.stderr)


def test_broken_pipe_exits_1_without_a_traceback():
    # 149 kB of report, more than a pipe holds: the call is still writing
    # when the reader closes the pipe after one byte
    proc = subprocess.Popen(
        [sys.executable, "-m", "lassodist", "simulate", "--input", N12P10, "--reps", "4000",
         "--seed", "7"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_source_env())
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


def _spy(calls, fn):
    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return spy


def test_solver_runs_through_its_module_attributes(monkeypatch, capsys, corr2):
    # perfbench/tracing.py replaces these attributes with timing wrappers
    import lassodist.cli
    import lassodist.distribution
    import lassodist.geometry
    import lassodist.rng
    import lassodist.solver

    calls = []
    monkeypatch.setattr(lassodist.cli, "solve", _spy(calls, lassodist.solver.solve))
    assert lassodist.cli.main(["solve", "--input", N1P2]) == 0
    assert capsys.readouterr().out == (GOLDEN / "solve_n1p2_uniform.json").read_text()
    assert len(calls) == 1

    tuning = ld.uniform_tuning(2, 0.4)
    want = lassodist.geometry.map_ls_to_lasso(corr2, tuning, [0.9, -0.6])
    calls.clear()
    monkeypatch.setattr(lassodist.geometry, "solve", _spy(calls, lassodist.solver.solve))
    got = lassodist.geometry.map_ls_to_lasso(corr2, tuning, [0.9, -0.6])
    assert len(calls) == 1 and np.array_equal(got.b, want.b)

    assert lassodist.distribution.solve_many is lassodist.solver.solve_many
    assert lassodist.distribution.gaussian_chunks is lassodist.rng.gaussian_chunks
    with pytest.raises(AttributeError, match="no_such_name"):
        lassodist.cli.no_such_name  # noqa: B018


def test_render_rejects_unserialisable_objects():
    with pytest.raises(TypeError, match="cannot serialize"):
        render_json({"x": [object()]})


@pytest.mark.parametrize("args", [
    ("prob-zero", "--input", CORR3, "--method", "mc", "--samples", "8192", "--seed", "1"),
    ("simulate", "--input", CORR3, "--reps", "400", "--seed", "1"),
], ids=["prob-zero.mc", "simulate"])
def test_monte_carlo_call_skips_numpy_ma(args):
    # numpy.ma costs 12-40 ms of import, and np.unique on a 1-d array loads
    # it; on corr3 the solver's active-set finish runs in both calls
    proc = run_python("-X", "importtime", "-m", "lassodist", *args)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["seed"] == 1
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "numpy" in imported and "numpy.ma" not in imported


def test_import_lassodist_loads_no_submodule():
    proc = run_python("-c", "import json, sys, lassodist; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "lassodist" in loaded
    assert [m for m in loaded if m.startswith("lassodist.")] == []


def test_public_names_resolve_to_their_home_modules():
    homes = {}
    for module in ("distribution", "errors", "geometry", "model", "simulate", "solver"):
        mod = importlib.import_module(f"lassodist.{module}")
        homes.update({name: mod for name in ld.__all__ if name in vars(mod)
                      and getattr(mod, name).__module__ == mod.__name__})
    assert sorted(homes) == ld.__all__ == sorted(set(ld.__all__))
    for name, mod in homes.items():
        assert getattr(ld, name) is getattr(mod, name), name
    assert set(ld.__all__) <= set(dir(ld))
    namespace = {}
    exec("from lassodist import *", namespace)
    assert {name: namespace[name] for name in ld.__all__} == {
        name: getattr(mod, name) for name, mod in homes.items()
    }
    with pytest.raises(AttributeError, match="no_such_name"):
        ld.no_such_name  # noqa: B018


def test_engine_table_covers_the_subcommands():
    from lassodist import _ENGINES, cli

    assert set(_ENGINES) == set(cli._SUBCOMMANDS)
    listed = [line.split()[0] for line in cli._USAGE.split("subcommands:")[1].splitlines()
              if line.startswith("  ")]
    assert listed == list(cli._SUBCOMMANDS)
    for module in set(_ENGINES.values()):
        importlib.import_module(f"lassodist.{module}")


def test_prob_zero_rank_two_of_three():
    # a rank-deficient design takes the rectangle kernel, not Monte Carlo
    proc = run_cli("prob-zero", "--input", X2X3_RANK2)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    env = json.loads((FIXTURES / "x2x3_rank2.json").read_text())
    X, lam = np.array(env["X"]), np.array(env["lambda"])
    gram = X.T @ X
    want, _ = singular_box_prob(gram @ np.array(env["beta"]), gram, -lam, lam)
    assert out["method"] == "quadrature" and out["seed"] == 0
    assert abs(out["estimate"] - want) <= out["quad_tol"] < 1e-6


def test_golden_json_is_valid_json():
    for golden, _ in GOLDEN_CASES:
        if golden.endswith(".json"):
            json.loads((GOLDEN / golden).read_text())


def test_nonuniqueness_witness_payload():
    data = json.loads((GOLDEN / "check_unique_n1p2_lam12.json").read_text())
    assert data["unique"] is False
    assert data["witness"]["y"] == [2.5]
    assert data["witness"]["b"] == [0.5, 0.5]
    assert data["witness"]["b_tilde"] == [0, 0.75]
    assert data["face"]["model"] == [1, 2]
    assert data["face"]["signs"] == [1, 1]
    # the witness is built on the unit-norm columns and mapped back to X's units
    env = json.loads((FIXTURES / "n1p2_lam12.json").read_text())
    prob, t = ld.build_problem(env["X"]), ld.tuning_vector(env["lambda"])
    w = data["witness"]
    assert ld.is_solution(prob, w["y"], t, w["b"]).ok
    assert ld.is_solution(prob, w["y"], t, w["b_tilde"]).ok


def test_unique_payload_has_null_witness():
    data = json.loads((GOLDEN / "check_unique_n1p2_uniform.json").read_text())
    assert data == {"unique": True, "witness": None, "face": None}
    data24 = json.loads((GOLDEN / "check_unique_2x4.json").read_text())
    assert data24["unique"] is True
    gp = json.loads((GOLDEN / "general_position_2x4.json").read_text())
    assert gp == {"general_position": False}


def test_structural_set_payload():
    data = json.loads((GOLDEN / "structural_set_2x3.json").read_text())
    assert data == {"structural_set": [1, 2, 3]}


def test_help_and_usage():
    ok = run_cli("-h")
    assert ok.returncode == 0 and "subcommands:" in ok.stdout
    bad = run_cli("no-such-command")
    assert bad.returncode == 64 and "subcommands:" in bad.stderr
    none = run_cli()
    assert none.returncode == 64


def test_every_subcommand_builds_its_parser(capsys):
    # each subcommand's help is built from its own options, so a bad option
    # spec would show only when that one subcommand runs
    from lassodist import cli

    for name in cli._SUBCOMMANDS:
        assert cli.main([name, "--help"]) == 0, name
        assert capsys.readouterr().out.startswith(f"usage: lassodist {name} "), name


def test_tol_only_where_it_is_read():
    for args in (("cdf", "--input", CORR2, "--z", "0.4,-0.1", "--tol", "1e-3"),
                 ("prob-zero", "--input", N1P2, "--tol", "1e-3")):
        proc = run_cli(*args)
        assert proc.returncode == 2 and "--tol" in proc.stderr, args
    # simulate's default tolerance sits in the option table; 0 is not mapped to it
    zero = run_cli("simulate", "--input", N1P2, "--reps", "10", "--tol", "0")
    assert zero.returncode == 2 and zero.stderr == "error: tolerances must be positive\n"


def test_tol_must_be_finite_and_positive(capsys):
    # each of these exits 0 with a changed answer if the tolerance is let through
    from lassodist import cli

    for args in (("structural-set", "--input", N1P2, "--tol", "-1"),
                 ("structural-set", "--input", N1P2, "--tol", "nan"),
                 ("check-unique", "--input", N1P2, "--tol", "0"),
                 ("check-unique", "--input", N1P2, "--tol", "-1"),
                 ("selectable", "--input", N1P2, "--model", "2", "--tol", "inf"),
                 ("solve", "--input", N1P2, "--tol", "inf"),
                 ("simulate", "--input", N1P2, "--tol", "inf", "--reps", "5")):
        assert cli.main(list(args)) == 2, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "must be" in err, (args, err)


def test_input_error_exit_codes(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli("solve", "--input", str(broken)).returncode == 2

    missing = run_cli("solve", "--input", str(tmp_path / "nope.json"))
    assert missing.returncode == 2

    no_lam = tmp_path / "no_lam.json"
    no_lam.write_text('{"X": [[1.0, 2.0]], "y": [3.0]}')
    assert run_cli("structural-set", "--input", str(no_lam)).returncode == 2

    # envelope has no y and none was passed
    assert run_cli("solve", "--input", D2X4).returncode == 2

    # malformed X, vectors and sigma: one error line naming the entry, no traceback
    for i, (fields, name) in enumerate((
        ({"X": [[1.0, "a"]], "lambda": [1, 1]}, "not a numeric matrix"),
        ({"lambda": "ab"}, "'lambda'"),
        ({"lambda": [1, [2, 3]]}, "'lambda'"),
        ({"lambda": [1, 1], "sigma": "x"}, "'sigma'"),
        ({"lambda": [1, 1], "sigma": [1]}, "'sigma'"),
        # the model is built at load, so a subcommand that reads none checks sigma too
        ({"lambda": [1, 1], "sigma": 0}, "sigma must be a positive real"),
        ({"lambda": [1, 1], "sigma": float("inf")}, "sigma must be a positive real"),
        # rejected at load although check-unique reads no y
        ({"lambda": [1, 1], "y": [float("nan")]}, "'y'"),
        ({"lambda": [1, 1], "y": [float("inf")]}, "'y'"),
    )):
        env = tmp_path / f"malformed{i}.json"
        env.write_text(json.dumps({"X": [[1.0, 2.0]], **fields}))
        proc = run_cli("check-unique", "--input", str(env))
        assert proc.returncode == 2, fields
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert name in proc.stderr

    wrong_z = run_cli("cdf", "--input", CORR2, "--z", "0.1,0.2,0.3")
    assert wrong_z.returncode == 2
    nan_z = run_cli("cdf", "--input", CORR2, "--z", "nan,0")
    assert nan_z.returncode == 2 and "NaN" in nan_z.stderr
    inf_z = run_cli("cdf", "--input", CORR2, "--z", "inf,0.25")
    assert inf_z.returncode == 2 and "lassodist.cdf" in inf_z.stderr

    wrong_signs = run_cli("orthant-prob", "--input", CORR2, "--signs", "1")
    assert wrong_signs.returncode == 2

    # a negative seed: Genz blocks (corr3) and a closed form (corr2) alike
    for args in (("orthant-prob", "--input", CORR3, "--signs", "0,0,0", "--seed", "-1"),
                 ("prob-zero", "--input", CORR3, "--seed", "-5"),
                 ("orthant-prob", "--input", CORR2, "--signs", "0,0", "--seed", "-1")):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stderr == "error: seed must be a nonnegative integer\n", proc.stderr

    # a missing required option is an input error
    assert run_cli("cdf", "--input", CORR2).returncode == 2

    # an empty --model is the empty model, not an error
    empty = run_cli("selectable", "--input", D2X4, "--model", "")
    assert empty.returncode == 0 and '"selectable": true' in empty.stdout

    # a malformed envelope, option or grid spec: one error line naming the
    # input, no numpy warning
    listed = tmp_path / "listed.json"
    listed.write_text("[[1.0, 2.0]]")
    for args, name in (
        (("solve", "--input", str(listed)), "must be a JSON object"),
        (("structural-set", "--input", N1P2, "--lam", "1,x"), "bad --lam value"),
        # an empty field is a bad value, not a field to skip
        (("prob-zero", "--input", CORR2, "--lam", "1,,1"), "bad --lam value"),
        (("orthant-prob", "--input", CORR2, "--signs", ",1,-1", "--z", "0.1,-0.1"),
         "bad --signs value"),
        (("solve", "--input", N1P2, "--y", "0.5,"), "bad --y value"),
        (("shrinkage-map", "--input", CORR2, "--z", "inf,0"), "z_ls must be finite"),
        (("shrinkage-map", "--input", CORR2, "--b", "nan,1"), "b must be finite"),
        (("density-grid", "--input", CORR2, "--grid", "0:inf:3"), "finite lo and hi"),
        # finite inputs whose scale overflows a float: no RuntimeWarning, no output
        (("density-grid", "--input", CORR2, "--grid", "-1e308:1e308:3"), "finite hi - lo"),
        (("solve", "--input", CORR2, "--y", "1e308,1e308"), "responses must be finite"),
        (("solve", "--input", CORR2, "--lam", "1e308,1e308", "--y", "1,1"), "tuning weights"),
        (("shrinkage-map", "--input", CORR2, "--z", "1e300,-1e300"), "responses must be finite"),
        (("cdf", "--input", CORR3, "--z", "1,1,1", "--lam", "1e308,1e308,1e308"),
         "tuning weights"),
        (("check-unique", "--input", D2X4, "--lam", "1e308,1e308,1e308,1e308"),
         "tuning weights"),
        # sigma^2, X'X and X'X beta must be finite, sigma^2 nonzero
        *((args, "sigma must be") for args in (
            ("prob-zero", "--input", HUGE_SIGMA),
            ("orthant-prob", "--input", HUGE_SIGMA, "--signs", "0,0"),
            ("cdf", "--input", HUGE_SIGMA, "--z", "0.1,0.1"),
            ("density-grid", "--input", HUGE_SIGMA, "--grid", "-1:1:3"),
            ("density-grid", "--input", TINY_SIGMA, "--grid", "-1:1:3"))),
        *((args, "design matrix entries") for args in (
            ("prob-zero", "--input", HUGE_DESIGN),
            ("solve", "--input", HUGE_DESIGN),
            ("check-unique", "--input", HUGE_DESIGN),
            ("general-position", "--input", HUGE_DESIGN))),
        (("prob-zero", "--input", HUGE_MEAN), "beta is too large"),
        (("prob-zero", "--input", HUGE_SIGMA_GRAM), "sigma is too large for the design"),
        (("density-grid", "--input", CORR2, "--grid", "0:1"), "must be lo:hi:steps"),
        (("density-grid", "--input", CORR2, "--grid", "0:x:3"), "bad grid spec"),
        (("density-grid", "--input", CORR2, "--grid", "1:0:3"), "needs hi >= lo"),
        # a step count past numpy's largest array: an input error, not a traceback
        (("density-grid", "--input", CORR2, "--grid", "0:1:100000000000000000000"),
         "bad grid spec"),
        (("density-grid", "--input", CORR2), "needs --grid"),
        (("density-grid", "--input", CORR2, *("--grid", "0:1:2") * 3), "at most two"),
        # a threshold off its side, by either engine: plain floats, not numpy reprs
        (("orthant-prob", "--input", CORR2, "--signs", "1,0", "--z", "0.5,0.1"),
         "needs threshold 0, got 0.1"),
        (("orthant-prob", "--input", CORR2, "--signs", "1,0", "--z", "0.5,0.1", "--method", "mc"),
         "z_j = 0.1 lies on the wrong side of 0.0"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert name in proc.stderr and proc.stdout == "" and "np." not in proc.stderr


def test_limit_errors_exit_code_3(tmp_path):
    big = tmp_path / "p5.json"
    big.write_text(json.dumps({
        "X": np.eye(5).tolist(),
        "lambda": [1.0] * 5,
    }))
    proc = run_cli("cdf", "--input", str(big), "--z", "0,0,0,0,0")
    assert proc.returncode == 3
    assert "cdf" in proc.stderr or "3^p" in proc.stderr

    grid3 = run_cli("density-grid", "--input", str(big), "--grid", "0:1:2")
    assert grid3.returncode == 3

    # each entry of X'X = diag(1e300, 1e300) is a double, its determinant is not
    huge_det = tmp_path / "huge_det.json"
    huge_det.write_text(json.dumps({"X": [[1e150, 0.0], [0.0, 1e150]], "lambda": [1.0, 1.0]}))
    proc = run_cli("density-grid", "--input", str(huge_det), "--grid", "-1:1:2")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("options", [
    ("--signs", "1"),
    ("--signs", "1,0", "--z", "0.1,0,0"),
    ("--signs", "1,0", "--z", "0.1,0.2"),  # D0 needs threshold 0
    ("--signs", "1,-1", "--z", "-0.1,0"),  # D+ threshold below 0
    ("--signs", "1,-1", "--z", "0.1,0.2"),  # D- threshold above 0
    ("--signs", "1,0", "--z", "nan,0"),
    ("--signs", "1,0", "--z", "inf,0"),
    ("--signs", "0.5,0"),
    ("--signs", "1,0", "--samples", "0"),
    ("--signs", "1,0", "--seed", "-1"),
], ids=lambda options: " ".join(options))
def test_orthant_prob_mc_rejects_malformed_events(capsys, options):
    # the Monte-Carlo path builds simulate.region_orthant, which keeps the
    # rules of distribution.estimator_orthant_event
    code = cli.main(["orthant-prob", "--input", CORR2, "--method", "mc", *options])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name,method,engine", [
    ("prob-zero", "quad", "distribution"),
    ("prob-zero", "mc", "simulate"),
    ("orthant-prob", "mc", "simulate"),
    ("simulate", None, "simulate"),
    ("check-unique", None, "geometry"),
])
def test_engine_follows_the_method(name, method, engine):
    assert _engine(name, method) == engine


def test_signs_outside_minus_one_zero_one_rejected():
    # no entry is truncated to an integer
    for signs in ("0.7,0.2", "1,2", "-1,nan"):
        proc = run_cli("orthant-prob", "--input", CORR2, "--signs", signs)
        assert proc.returncode == 2, signs
        assert proc.stderr.startswith("error: --signs"), proc.stderr


def test_model_indices_checked_by_the_library(capsys):
    # 1-based on the command line, echoed sorted; a repeat is rejected, not merged
    from lassodist import cli

    assert cli.main(["selectable", "--input", D2X4, "--model", "3,1"]) == 0
    assert json.loads(capsys.readouterr().out)["model"] == [1, 3]
    for model in ("1,1", "2,1,2", "0", "5", "1.5"):
        assert cli.main(["selectable", "--input", D2X4, "--model", model]) == 2, model
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (model, err)


def test_perfbench_trace_sites_resolve():
    # perfbench/tracing.py wraps lassodist functions at these import sites,
    # so its traced run breaks if a refactor drops one
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", SRC.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    for modname, attr, _ in tracing.SITES:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_repeated_grid_flags_append(capsys):
    from lassodist import cli

    # two axes of 2 and 3 points
    assert cli.main(["density-grid", "--input", CORR2, "--grid", "-1:1:2", "--grid=0:1:3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [tuple(map(float, r.split(",")[:2])) for r in rows] == [
        (z1, z2) for z1 in (-1.0, 1.0) for z2 in (0.0, 0.5, 1.0)]


@pytest.mark.parametrize("args,flag", [
    (("solve", "--input", N1P2, "--bogus", "1"), "--bogus"),
    # a flag is spelled in full
    (("solve", "--inp", N1P2), "--inp"),
    (("solve", "--input", N1P2, "--y"), "--y"),
    (("simulate", "--input", N1P2, "--reps", "2.5"), "--reps"),
    (("prob-zero", "--input", N1P2, "--method", "foo"), "--method"),
    (("cdf", "--z", "0,0"), "--input"),
], ids=["unknown", "prefix", "no-value", "int", "choice", "required"])
def test_malformed_option_is_one_error_line(capsys, args, flag):
    from lassodist import cli

    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert flag in err


def test_negative_flag_values_accepted():
    # the token after a flag is its value, as is the text after "="
    proc = run_cli("orthant-prob", "--input", CORR2, "--signs", "-1,1", "--z", "-0.5,0.3")
    assert proc.returncode == 0, proc.stderr
    joined = run_cli("orthant-prob", "--input", CORR2, "--signs=-1,1", "--z=-0.5,0.3")
    assert (joined.returncode, joined.stdout, joined.stderr) == (0, proc.stdout, "")
    data = json.loads(proc.stdout)
    assert data["signs"] == [-1, 1]
    assert data["z"] == [-0.5, 0.3]
    assert 0.0 <= data["estimate"] <= 1.0


def test_lam_and_y_overrides():
    base = run_cli("structural-set", "--input", N1P2)
    assert json.loads(base.stdout) == {"structural_set": [2]}
    swapped = run_cli("structural-set", "--input", N1P2, "--lam", "1,2")
    assert json.loads(swapped.stdout) == {"structural_set": [1, 2]}

    small = run_cli("solve", "--input", N1P2, "--y", "0.5")
    data = json.loads(small.stdout)
    assert data["b"] == [0, 0]
    assert data["active_model"] == []

    # a large response is certified by the rounding bound of each KKT entry
    big_y = run_cli("solve", "--input", CORR2, "--y", "1e20,1e20")
    assert big_y.returncode == 0, big_y.stderr
    assert json.loads(big_y.stdout)["fit"] == [1e20, 1e20]


def test_orthant_prob_mc_agrees_with_quad():
    quad = json.loads(run_cli(
        "orthant-prob", "--input", CORR2, "--signs", "0,0"
    ).stdout)
    mc = json.loads(run_cli(
        "orthant-prob", "--input", CORR2, "--signs", "0,0",
        "--method", "mc", "--samples", "8192", "--seed", "2",
    ).stdout)
    assert mc["method"] == "monte-carlo"
    assert abs(quad["estimate"] - mc["estimate"]) <= 3.0 * mc["std_error"] + 1e-3


def test_density_grid_matches_library(corr2):
    rows = (GOLDEN / "density_grid_corr2.csv").read_text().strip().splitlines()
    assert rows[0] == "z1,z2,value"
    assert len(rows) == 1 + 25
    model = ld.gaussian_model(corr2, [0.0, -0.25], 1.0)
    t = ld.tuning_vector([0.75, 0.75])
    for line in rows[1:4]:
        z1, z2, val = (float(v) for v in line.split(","))
        assert abs(val - ld.error_density(corr2, model, t, [z1, z2])) <= 1e-15


def test_simulate_csv_shape():
    rows = (GOLDEN / "simulate_n1p2.csv").read_text().strip().splitlines()
    assert rows[0] == "axis,z,ecdf"
    assert len(rows) == 1 + 2 * 21
    by_axis = {}
    for line in rows[1:]:
        axis, z, f = line.split(",")
        by_axis.setdefault(int(axis), []).append((float(z), float(f)))
    for axis, pairs in by_axis.items():
        fs = [f for _, f in pairs]
        assert all(a <= b for a, b in zip(fs, fs[1:]))
        assert 0.0 <= fs[0] and fs[-1] <= 1.0


def test_simulate_json_payload():
    data = json.loads((GOLDEN / "simulate_n1p2.json").read_text())
    assert data["n_rep"] == 2000 and data["seed"] == 3
    assert data["nonunique_count"] == 0
    assert data["convergence_failures"] == 0
    assert sum(r["count"] for r in data["sign_pattern_freq"]) == 2000
    assert sum(r["count"] for r in data["support_freq"]) == 2000
    # the collinear first coordinate never activates
    for row in data["sign_pattern_freq"]:
        assert row["signs"][0] == 0


def test_shrinkage_map_both_directions():
    fwd = json.loads(run_cli(
        "shrinkage-map", "--input", CORR2, "--b", "0.5,-0.3"
    ).stdout)
    back = run_cli(
        "shrinkage-map", "--input", CORR2, "--z",
        ",".join(str(v) for v in fwd["z_ls"]),
    )
    data = json.loads(back.stdout)
    assert data["direction"] == "ls-to-lasso"
    assert np.allclose(data["b"], [0.5, -0.3], atol=1e-8)
    both = run_cli("shrinkage-map", "--input", CORR2, "--b", "1,1", "--z", "1,1")
    assert both.returncode == 2
    # the solver's scale-aware certificate is the map's only check
    for z in ("1e9,-1e9", "1e12,-1e12"):
        large = run_cli("shrinkage-map", "--input", CORR2, "--z", z)
        assert large.returncode == 0, large.stderr
        assert json.loads(large.stdout)["z_ls"] == [float(v) for v in z.split(",")]
