"""Command-line interface.

Input is a JSON problem envelope: {"X": [[...]], "lambda": [...], "beta":
[...], "sigma": s, "y": [...]} with beta, sigma, y optional (beta defaults to
zero, sigma to one). Vectors given on the command line are comma-separated.
All user-facing indices are 1-based; all floating-point output is serialized
with 17 significant digits so values round-trip exactly.

Exit codes: 0 success, 2 input error, 3 numerical or dimensional limit,
64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import distribution, geometry, simulate as simulate_mod
from .errors import (
    CombinatorialLimitError,
    ConditioningError,
    ConvergenceError,
    DimensionLimitError,
    InputError,
    NumericalError,
)
from .model import (
    DesignProblem,
    GaussianModel,
    SignVector,
    TuningVector,
    build_problem,
    gaussian_model,
    tuning_vector,
)
from .solver import describe_solution_set, solve

_USAGE = """\
usage: lassodist <subcommand> [options]

subcommands:
  solve             weighted Lasso solution for a given y
  structural-set    coordinates that some y can activate
  selectable        can a given model be the active set exactly
  check-unique      uniqueness of the solution for every y
  general-position  columns-in-general-position test
  prob-zero         P(bhat = 0)
  orthant-prob      probability of one sign-orthant event
  cdf               joint distribution function of the error
  density-grid      CSV grid of the continuous-part density (p = 2)
  simulate          Monte-Carlo replicates and empirical summaries
  shrinkage-map     least-squares <-> Lasso correspondence

Run `lassodist <subcommand> --help` for the options of one subcommand.
"""


def _render(obj, indent=0):
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
            x = 0.0  # never emit -0
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in obj):
            return "[" + ", ".join(_render(v) for v in obj) + "]"
        pad = "  " * (indent + 1)
        inner = ",\n".join(pad + _render(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + "  " * indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (indent + 1)
        inner = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_render(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + "  " * indent + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_json(obj) -> str:
    return _render(obj) + "\n"


@dataclass(frozen=True, eq=False)
class Envelope:
    problem: DesignProblem
    lam: np.ndarray | None
    beta: np.ndarray
    sigma: float
    y: np.ndarray | None


def load_envelope(path: str) -> Envelope:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "X" not in data:
        raise InputError(f"{path}: envelope must be a JSON object with an 'X' matrix")
    try:
        X = np.asarray(data["X"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: 'X' is not a numeric matrix: {exc}") from exc
    problem = build_problem(X)
    p = problem.p

    def vec(name, length):
        if data.get(name) is None:
            return None
        v = np.asarray(data[name], dtype=float).ravel()
        if v.shape[0] != length:
            raise InputError(f"{path}: '{name}' must have length {length}, got {v.shape[0]}")
        return v

    lam = vec("lambda", p)
    beta = vec("beta", p)
    y = vec("y", problem.n)
    sigma = data.get("sigma")
    if sigma is None:
        sigma = 1.0
    sigma = float(sigma)
    if not sigma > 0:
        raise InputError(f"{path}: 'sigma' must be positive")
    if beta is None:
        beta = np.zeros(p)
    return Envelope(problem=problem, lam=lam, beta=beta, sigma=sigma, y=y)


def _csv_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise InputError(f"bad {what} value: {exc}") from exc


def _model_indices(text: str | None, p: int):
    """Parse a 1-based comma-separated index list into 0-based indices."""
    if text is None or text.strip() == "":
        return []
    out = []
    for tok in text.split(","):
        try:
            k = int(tok)
        except ValueError as exc:
            raise InputError(f"bad model index {tok!r}") from exc
        if not 1 <= k <= p:
            raise InputError(f"model index {k} outside 1..{p}")
        out.append(k - 1)
    return sorted(set(out))


def _grid_spec(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid spec must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad grid spec {text!r}: {exc}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputError(f"grid spec needs finite lo and hi, got {text!r}")
    if steps < 1 or hi < lo:
        raise InputError(f"grid spec needs hi >= lo and steps >= 1, got {text!r}")
    return np.linspace(lo, hi, steps)


def _need_lam(env: Envelope, override: str | None) -> TuningVector:
    if override is not None:
        lam = _csv_floats(override, "--lam")
        if lam.shape[0] != env.problem.p:
            raise InputError(f"--lam must have length {env.problem.p}")
        return tuning_vector(lam)
    if env.lam is None:
        raise InputError("the envelope has no 'lambda' and no --lam was given")
    return tuning_vector(env.lam)


def _need_y(env: Envelope, override: str | None) -> np.ndarray:
    if override is not None:
        y = _csv_floats(override, "--y")
        if y.shape[0] != env.problem.n:
            raise InputError(f"--y must have length {env.problem.n}")
        return y
    if env.y is None:
        raise InputError("the envelope has no 'y' and no --y was given")
    return env.y


def _one_based(indices) -> list:
    return [int(j) + 1 for j in indices]


def _prob_payload(rp: distribution.RegionProbability) -> dict:
    return {
        "estimate": rp.estimate,
        "std_error": rp.std_error,
        "method": rp.method,
        "n_samples": rp.n_samples,
        "seed": rp.seed,
        "quad_tol": rp.quad_tol,
    }


def _cmd_solve(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    y = _need_y(env, args.y)
    sol = solve(env.problem, y, tuning, tol=args.tol)
    return render_json({
        "b": sol.b,
        "objective": sol.objective,
        "kkt_residual": sol.kkt_residual,
        "active_model": _one_based(sol.active_model),
        "fit": sol.fit,
    })


def _cmd_structural_set(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    members = geometry.structural_set(env.problem, tuning, tol=args.tol)
    return render_json({"structural_set": _one_based(members)})


def _cmd_selectable(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    model = _model_indices(args.model, env.problem.p)
    flag = geometry.selectable(env.problem, tuning, model, tol=args.tol)
    return render_json({"model": _one_based(model), "selectable": flag})


def _cmd_check_unique(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    verdict = geometry.check_uniqueness(env.problem, tuning, tol=args.tol)
    payload: dict = {"unique": verdict.unique}
    if verdict.unique:
        payload["witness"] = None
        payload["face"] = None
    else:
        w = verdict.witness
        face = verdict.violating_face
        payload["witness"] = {"y": w.y, "b": w.b, "b_tilde": w.b_tilde}
        payload["face"] = {
            "model": _one_based(face.model),
            "signs": [int(s) for s in face.signs],
            "v": face.v,
        }
    return render_json(payload)


def _cmd_general_position(args) -> str:
    env = load_envelope(args.input)
    return render_json({"general_position": geometry.general_position(env.problem)})


def _model_from_env(env: Envelope) -> GaussianModel:
    return gaussian_model(env.problem, env.beta, env.sigma)


def _cmd_prob_zero(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    rp = distribution.prob_all_zero(
        env.problem, _model_from_env(env), tuning,
        method=args.method, n_samples=args.samples, seed=args.seed,
    )
    return render_json(_prob_payload(rp))


def _cmd_orthant_prob(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    model = _model_from_env(env)
    p = env.problem.p
    signs = [int(v) for v in _csv_floats(args.signs, "--signs")]
    if len(signs) != p:
        raise InputError(f"--signs must have length {p}")
    z = _csv_floats(args.z, "--z") if args.z is not None else np.zeros(p)
    if z.shape[0] != p:
        raise InputError(f"--z must have length {p}")
    event = distribution.estimator_orthant_event(model, z, SignVector(d=tuple(signs)))
    rp = distribution.prob_orthant_event(
        env.problem, model, tuning, event,
        method=args.method, n_samples=args.samples, seed=args.seed,
    )
    return render_json({"signs": signs, "z": z, **_prob_payload(rp)})


def _cmd_cdf(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    model = _model_from_env(env)
    z = _csv_floats(args.z, "--z")
    if z.shape[0] != env.problem.p:
        raise InputError(f"--z must have length {env.problem.p}")
    # the JSON output cannot echo an infinite threshold
    if not np.all(np.isfinite(z)):
        raise InputError(
            "--z entries must be finite (no NaN or inf); lassodist.cdf in Python "
            "accepts infinite thresholds"
        )
    value = distribution.cdf(env.problem, model, tuning, z, coords=args.coords)
    return render_json({"z": z, "coords": args.coords, "cdf": value})


def _cmd_density_grid(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    model = _model_from_env(env)
    if env.problem.p != 2:
        raise DimensionLimitError("density-grid renders two-coordinate designs only")
    specs = args.grid or []
    if len(specs) == 0:
        raise InputError("density-grid needs --grid lo:hi:steps")
    if len(specs) == 1:
        specs = [specs[0], specs[0]]
    if len(specs) > 2:
        raise InputError("at most two --grid specs")
    g1, g2 = _grid_spec(specs[0]), _grid_spec(specs[1])
    lines = ["z1,z2,value"]
    for z1 in g1:
        for z2 in g2:
            val = distribution.error_density(env.problem, model, tuning, (z1, z2))
            lines.append(f"{z1:.17g},{z2:.17g},{val:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    model = _model_from_env(env)
    config = simulate_mod.SimulationConfig(
        n_rep=args.reps, seed=args.seed, solver_tol=args.tol or 1e-10
    )
    summary = simulate_mod.run_simulation(env.problem, model, tuning, config)
    if args.report == "csv":
        lines = ["axis,z,ecdf"]
        for j, axis in enumerate(summary.ecdf_grid):
            for z, f in axis:
                lines.append(f"{j + 1},{z:.17g},{f:.17g}")
        return "\n".join(lines) + "\n"
    sign_rows = [
        {"signs": list(sv.d), "count": summary.sign_pattern_freq[sv],
         "freq": summary.sign_pattern_freq[sv] / summary.n_rep}
        for sv in sorted(summary.sign_pattern_freq, key=lambda s: s.d)
    ]
    support_rows = [
        {"support": _one_based(sup), "count": summary.support_freq[sup],
         "freq": summary.support_freq[sup] / summary.n_rep}
        for sup in sorted(summary.support_freq)
    ]
    return render_json({
        "n_rep": summary.n_rep,
        "seed": summary.seed,
        "nonunique_count": summary.nonunique_count,
        "nonunique_freq": summary.nonunique_count / summary.n_rep,
        "convergence_failures": summary.convergence_failures,
        "sign_pattern_freq": sign_rows,
        "support_freq": support_rows,
        "ecdf_grid": [[[z, f] for z, f in axis] for axis in summary.ecdf_grid],
    })


def _cmd_shrinkage_map(args) -> str:
    env = load_envelope(args.input)
    tuning = _need_lam(env, args.lam)
    p = env.problem.p
    if (args.b is None) == (args.z is None):
        raise InputError("shrinkage-map needs exactly one of --b or --z")
    if args.z is not None:
        z = _csv_floats(args.z, "--z")
        if z.shape[0] != p:
            raise InputError(f"--z must have length {p}")
        sol = geometry.map_ls_to_lasso(env.problem, tuning, z)
        return render_json({
            "direction": "ls-to-lasso",
            "z_ls": z,
            "b": sol.b,
            "active_model": _one_based(sol.active_model),
        })
    b = _csv_floats(args.b, "--b")
    if b.shape[0] != p:
        raise InputError(f"--b must have length {p}")
    z = geometry.shrinkage_singleton(env.problem, tuning, b)
    return render_json({"direction": "lasso-to-ls", "b": b, "z_ls": z})


def _add_common(parser, *, tol_default=None):
    parser.add_argument("--input", required=True, help="problem envelope JSON file")
    parser.add_argument("--lam", default=None, help="override lambda, comma-separated")
    parser.add_argument("--tol", type=float, default=tol_default)


def _add_sampling(parser):
    parser.add_argument("--method", choices=("quad", "mc"), default="quad")
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)


def _build_parsers():
    parsers = {}

    def sub(name, configure, handler):
        parser = argparse.ArgumentParser(prog=f"lassodist {name}")
        configure(parser)
        parsers[name] = (parser, handler)

    def conf_solve(p):
        _add_common(p, tol_default=1e-10)
        p.add_argument("--y", default=None, help="response vector, comma-separated")

    sub("solve", conf_solve, _cmd_solve)
    sub("structural-set", lambda p: _add_common(p, tol_default=1e-9), _cmd_structural_set)

    def conf_selectable(p):
        _add_common(p, tol_default=1e-9)
        p.add_argument("--model", default=None, help="1-based indices, comma-separated")

    sub("selectable", conf_selectable, _cmd_selectable)
    sub("check-unique", lambda p: _add_common(p, tol_default=1e-9), _cmd_check_unique)
    sub("general-position", lambda p: p.add_argument("--input", required=True),
        _cmd_general_position)

    def conf_prob_zero(p):
        _add_common(p)
        _add_sampling(p)

    sub("prob-zero", conf_prob_zero, _cmd_prob_zero)

    def conf_orthant(p):
        _add_common(p)
        _add_sampling(p)
        p.add_argument("--signs", required=True,
                       help="orthant signs in {-1,0,1}, comma-separated")
        p.add_argument("--z", default=None,
                       help="estimator-coordinate thresholds, comma-separated (default 0)")

    sub("orthant-prob", conf_orthant, _cmd_orthant_prob)

    def conf_cdf(p):
        _add_common(p)
        p.add_argument("--z", required=True, help="evaluation point, comma-separated")
        p.add_argument("--coords", choices=("error", "estimator"), default="error")

    sub("cdf", conf_cdf, _cmd_cdf)

    def conf_grid(p):
        _add_common(p)
        p.add_argument("--grid", action="append",
                       help="lo:hi:steps, once per axis (repeat for distinct axes)")

    sub("density-grid", conf_grid, _cmd_density_grid)

    def conf_sim(p):
        _add_common(p)
        p.add_argument("--reps", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", choices=("json", "csv"), default="json")

    sub("simulate", conf_sim, _cmd_simulate)

    def conf_shrink(p):
        _add_common(p)
        p.add_argument("--b", default=None, help="Lasso solution, comma-separated")
        p.add_argument("--z", default=None, help="least-squares point, comma-separated")

    sub("shrinkage-map", conf_shrink, _cmd_shrinkage_map)
    return parsers


_VALUE_FLAGS = frozenset({"--lam", "--y", "--z", "--b", "--signs", "--grid", "--model"})


def _join_negative_values(tokens):
    """Turn `--z -0.5,1` into `--z=-0.5,1` so argparse accepts the value."""
    out = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    parsers = _build_parsers()
    if not argv or argv[0] not in parsers:
        sys.stderr.write(_USAGE)
        return 64
    parser, handler = parsers[argv[0]]
    try:
        args = parser.parse_args(_join_negative_values(argv[1:]))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        out = handler(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (DimensionLimitError, CombinatorialLimitError, NumericalError,
            ConditioningError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    sys.stdout.write(out)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
