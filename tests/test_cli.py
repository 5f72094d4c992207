import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lassodist as ld

from conftest import FIXTURES, GOLDEN, SRC
from mvn_oracle import singular_box_prob

N1P2 = str(FIXTURES / "n1p2_uniform.json")
N1P2_LAM12 = str(FIXTURES / "n1p2_lam12.json")
D2X3 = str(FIXTURES / "design_2x3.json")
D2X4 = str(FIXTURES / "design_2x4.json")
CORR2 = str(FIXTURES / "corr2.json")
CORR3 = str(FIXTURES / "corr3.json")
X2X3_RANK2 = str(FIXTURES / "x2x3_rank2.json")


def run_cli(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lassodist", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


GOLDEN_CASES = [
    ("check_unique_n1p2_uniform.json", ("check-unique", "--input", N1P2)),
    ("check_unique_n1p2_lam12.json", ("check-unique", "--input", N1P2_LAM12)),
    ("structural_set_2x3.json", ("structural-set", "--input", D2X3)),
    ("check_unique_2x4.json", ("check-unique", "--input", D2X4)),
    ("general_position_2x4.json", ("general-position", "--input", D2X4)),
    ("solve_n1p2_uniform.json", ("solve", "--input", N1P2)),
    ("orthant_prob_corr2.json", ("orthant-prob", "--input", CORR2, "--signs", "0,0")),
    ("cdf_corr2.json", ("cdf", "--input", CORR2, "--z", "0.4,-0.1")),
    ("prob_zero_n1p2.json", ("prob-zero", "--input", N1P2)),
    ("prob_zero_n1p2_mc.json",
     ("prob-zero", "--input", N1P2, "--method", "mc", "--samples", "8192", "--seed", "1")),
    ("simulate_n1p2.json", ("simulate", "--input", N1P2, "--reps", "2000", "--seed", "3")),
    ("simulate_n1p2.csv",
     ("simulate", "--input", N1P2, "--reps", "2000", "--seed", "3", "--report", "csv")),
    ("shrinkage_map_corr2.json", ("shrinkage-map", "--input", CORR2, "--b", "0.5,-0.3")),
    ("density_grid_corr2.csv", ("density-grid", "--input", CORR2, "--grid", "-1:1:5")),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_outputs_are_byte_stable(golden, args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()


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
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(calls)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for (golden, _), (status, out) in zip(GOLDEN_CASES, results):
        assert status == 0 and out == (GOLDEN / golden).read_text(), golden
    (mass_status, mass), (cdf_status, cdf), (zero_status, zero) = results[len(GOLDEN_CASES):]
    assert mass_status == 0 and json.loads(mass)["n_samples"] > 0
    assert cdf_status == 0 and 0.0 < json.loads(cdf)["cdf"] < 1.0
    assert zero_status == 0 and json.loads(zero)["n_samples"] > 0


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
    assert data["witness"]["y"] == [4]
    assert data["witness"]["b"] == [1, 1]
    assert data["witness"]["b_tilde"] == [0, 1.5]
    assert data["face"]["model"] == [1, 2]
    assert data["face"]["signs"] == [1, 1]


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

    wrong_z = run_cli("cdf", "--input", CORR2, "--z", "0.1,0.2,0.3")
    assert wrong_z.returncode == 2
    nan_z = run_cli("cdf", "--input", CORR2, "--z", "nan,0")
    assert nan_z.returncode == 2 and "NaN" in nan_z.stderr
    inf_z = run_cli("cdf", "--input", CORR2, "--z", "inf,0.25")
    assert inf_z.returncode == 2 and "lassodist.cdf" in inf_z.stderr

    wrong_signs = run_cli("orthant-prob", "--input", CORR2, "--signs", "1")
    assert wrong_signs.returncode == 2

    # missing required argument trips argparse
    assert run_cli("cdf", "--input", CORR2).returncode == 2

    # non-finite vectors: one error line naming the input, no numpy warning
    for args, name in (
        (("shrinkage-map", "--input", CORR2, "--z", "inf,0"), "z_ls must be finite"),
        (("shrinkage-map", "--input", CORR2, "--b", "nan,1"), "b must be finite"),
        (("density-grid", "--input", CORR2, "--grid", "0:inf:3"), "finite lo and hi"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert name in proc.stderr


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


def test_negative_flag_values_accepted():
    proc = run_cli("orthant-prob", "--input", CORR2, "--signs", "-1,1", "--z", "-0.5,0.3")
    assert proc.returncode == 0, proc.stderr
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
