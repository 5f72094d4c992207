"""Command-line interface.

Input is a JSON problem envelope: {"X": [[...]], "lambda": [...], "beta":
[...], "sigma": s, "y": [...]} with beta, sigma, y optional (beta defaults to
zero, sigma to one). Vectors given on the command line are comma-separated.
All user-facing indices are 1-based; all floating-point output is serialized
with 17 significant digits so values round-trip exactly.

Exit codes: 0 success, 2 input error, 3 numerical or dimensional limit,
64 unknown subcommand.

Each subcommand is declared once, in `_SUBCOMMANDS`: its usage line, its
handler and its options in usage order, each with the `type`, `choices`,
`default`, `required` or `action="append"` that `_parse` applies. The
top-level usage text and each subcommand's `--help` are built from that
table. A flag is spelled in full and takes its value as `--flag value` or
`--flag=value`; the token after a flag is its value whatever it starts
with, so `--z -0.5,1` needs no quoting. A malformed option is one `error:`
line and exit 2, as a malformed envelope is. `main()` loads the envelope
once, with its model built by `gaussian_model`, imports the call's engine
module, named by `lassodist._engine` (the subcommand's in
`lassodist._ENGINES`, or `simulate` for `--method mc`), and passes both to
the handler with the parsed options, so a call compiles that engine alone.
`solve`'s handler ignores its engine and calls this module's `solve`, which
loads the solver on first use (PEP 562), so a replaced attribute is the one
that runs.

A handler returns its output as one string, except `simulate`'s JSON
report, which returns the pieces of `_json.stream_json`: its sign-pattern
and support rows are made from the summary one at a time, and `main()`
writes the pieces in batches of about `_json._BATCH` characters. Every part
of the report but its rows renders before the first write, so an error
leaves stdout empty. The JSON renderer lives in its own module because
every call compiles this one from source, and the compiler's transient
memory, which grows with a module's size, showed in the peak RSS of every
call.

`entry()`, the path of `python -m lassodist` and of the console script,
runs the atexit handlers once `main()` has returned, flushes stdout and
stderr and ends the process with `os._exit`. The interpreter's module
teardown and final collections, which walk the objects that importing numpy
made, do not run: the exit takes about 1.5 ms instead of about 5 ms with
those objects frozen (`gc.freeze`) and 35 ms without. A broken pipe on stdout (`| head -c 1`)
ends the call with exit 1 and nothing on stderr. `main()` itself ends
nothing, so callers that run it in process, the tests and an in-process
profile among them, keep a normal interpreter.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from importlib import import_module
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from . import _engine, _lazy
from ._json import _batches, render_json, stream_json
from .errors import (
    CombinatorialLimitError,
    ConditioningError,
    ConvergenceError,
    DimensionLimitError,
    InputError,
    NumericalError,
)
from .model import DEFAULT_TOL, LP_TOL, DesignProblem, GaussianModel, TuningVector, _as_signs
from .model import _as_vector, _record, build_problem, gaussian_model, tuning_vector


__getattr__ = _lazy(globals(), {"solve": "solver"})


@_record
class Envelope:
    problem: DesignProblem
    lam: np.ndarray | None
    model: GaussianModel
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
    problem = build_problem(data["X"])
    p = problem.p

    def vec(name, length):
        v = data.get(name)
        return None if v is None else _as_vector(v, length, f"{path}: '{name}'")

    lam = vec("lambda", p)
    beta = vec("beta", p)
    y = vec("y", problem.n)
    sigma = data.get("sigma")
    try:
        sigma = 1.0 if sigma is None else float(sigma)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: 'sigma' is not a number: {exc}") from exc
    model = gaussian_model(problem, np.zeros(p) if beta is None else beta, sigma)
    return Envelope(problem=problem, lam=lam, model=model, y=y)


def _vector(text: str, flag: str, length: int) -> np.ndarray:
    """Parse the comma-separated value of `flag`, which must have `length` entries."""
    try:
        v = np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise InputError(f"bad {flag} value: {exc}") from exc
    if v.shape[0] != length:
        raise InputError(f"{flag} must have length {length}")
    return v


def _model_indices(text: str | None):
    """Parse a 1-based comma-separated index list into 0-based indices, unchecked."""
    if text is None or text.strip() == "":
        return []
    try:
        return [int(tok) - 1 for tok in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --model value {text!r}: {exc}") from exc


def _grid_spec(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid spec must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad grid spec {text!r}: {exc}") from exc
    if not np.isfinite(hi - lo):  # Python floats: an infinite or NaN bound, or span
        raise InputError(f"grid spec needs finite lo and hi, and a finite hi - lo, got {text!r}")
    if steps < 1 or hi < lo:
        raise InputError(f"grid spec needs hi >= lo and steps >= 1, got {text!r}")
    try:
        return np.linspace(lo, hi, steps)
    except ValueError as exc:  # numpy's "Maximum allowed size exceeded"
        raise InputError(f"bad grid spec {text!r}: {exc}") from exc


def _need_lam(env: Envelope, override: str | None) -> TuningVector:
    if override is not None:
        return tuning_vector(_vector(override, "--lam", env.problem.p))
    if env.lam is None:
        raise InputError("the envelope has no 'lambda' and no --lam was given")
    return tuning_vector(env.lam)


def _need_y(env: Envelope, override: str | None) -> np.ndarray:
    if override is not None:
        return _vector(override, "--y", env.problem.n)
    if env.y is None:
        raise InputError("the envelope has no 'y' and no --y was given")
    return env.y


def _one_based(indices) -> list:
    return [int(j) + 1 for j in indices]


def _cmd_solve(args, env, _) -> str:
    tuning = _need_lam(env, args.lam)
    y = _need_y(env, args.y)
    # through the module attribute, so a replaced `solve` is the one that runs
    sol = sys.modules[__name__].solve(env.problem, y, tuning, tol=args.tol)
    return render_json({
        "b": sol.b,
        "objective": sol.objective,
        "kkt_residual": sol.kkt_residual,
        "active_model": _one_based(sol.active_model),
        "fit": sol.fit,
    })


def _cmd_structural_set(args, env, geometry) -> str:
    tuning = _need_lam(env, args.lam)
    members = geometry.structural_set(env.problem, tuning, tol=args.tol)
    return render_json({"structural_set": _one_based(members)})


def _cmd_selectable(args, env, geometry) -> str:
    tuning = _need_lam(env, args.lam)
    model = _model_indices(args.model)
    flag = geometry.selectable(env.problem, tuning, model, tol=args.tol)
    return render_json({"model": _one_based(sorted(model)), "selectable": flag})


def _cmd_check_unique(args, env, geometry) -> str:
    tuning = _need_lam(env, args.lam)
    verdict = geometry.check_uniqueness(env.problem, tuning, tol=args.tol)
    face = verdict.violating_face
    return render_json({
        "unique": verdict.unique,
        "witness": None if verdict.unique else vars(verdict.witness),
        "face": None if verdict.unique else {
            "model": _one_based(face.model),
            "signs": [int(s) for s in face.signs],
            "v": face.v,
        },
    })


def _cmd_general_position(args, env, geometry) -> str:
    return render_json({"general_position": geometry.general_position(env.problem)})


def _cmd_prob_zero(args, env, engine) -> str:
    tuning = _need_lam(env, args.lam)
    if args.method == "mc":  # the engine is simulate
        rp = engine.prob_region_high(env.problem, env.model, tuning, engine.region_orthant(
            np.zeros(env.problem.p)), n_samples=args.samples, seed=args.seed)
    else:
        rp = engine.prob_all_zero(env.problem, env.model, tuning, seed=args.seed)
    return render_json(vars(rp))


def _cmd_orthant_prob(args, env, engine) -> str:
    tuning = _need_lam(env, args.lam)
    p = env.problem.p
    signs = _as_signs(_vector(args.signs, "--signs", p), "--signs")
    z = _vector(args.z, "--z", p) if args.z is not None else np.zeros(p)
    if args.method == "mc":  # the engine is simulate
        rp = engine.prob_region_high(env.problem, env.model, tuning, engine.region_orthant(
            signs, z), n_samples=args.samples, seed=args.seed)
    else:
        event = engine.estimator_orthant_event(env.model, z, signs)
        rp = engine.prob_orthant_event(env.problem, env.model, tuning, event, seed=args.seed)
    return render_json({"signs": signs.d, "z": z, **vars(rp)})


def _cmd_cdf(args, env, distribution) -> str:
    tuning = _need_lam(env, args.lam)
    z = _vector(args.z, "--z", env.problem.p)
    # the JSON output cannot echo an infinite threshold
    if not np.all(np.isfinite(z)):
        raise InputError(
            "--z entries must be finite (no NaN or inf); lassodist.cdf in Python "
            "accepts infinite thresholds"
        )
    value = distribution.cdf(env.problem, env.model, tuning, z, coords=args.coords)
    return render_json({"z": z, "coords": args.coords, "cdf": value})


def _cmd_density_grid(args, env, distribution) -> str:
    tuning = _need_lam(env, args.lam)
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
            val = distribution.error_density(env.problem, env.model, tuning, (z1, z2))
            lines.append(f"{z1:.17g},{z2:.17g},{val:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args, env, simulate):
    tuning = _need_lam(env, args.lam)
    config = simulate.SimulationConfig(n_rep=args.reps, seed=args.seed, solver_tol=args.tol)
    summary = simulate.run_simulation(env.problem, env.model, tuning, config)
    if args.report == "csv":
        lines = ["axis,z,ecdf"]
        for j, axis in enumerate(summary.ecdf_grid):
            for z, f in axis:
                lines.append(f"{j + 1},{z:.17g},{f:.17g}")
        return "\n".join(lines) + "\n"
    n_rep = summary.n_rep

    # Rows are made as the report is written, from ints and count / n_rep,
    # which always render. Each section sorts its table's keys when it is
    # reached, not (key, count) pairs, which would add a tuple per pattern
    # (1.8 MB at 28,052 patterns) once the summary is whole.
    def sign_rows():
        freq = summary.sign_pattern_freq
        for sv in sorted(freq, key=attrgetter("d")):
            count = freq[sv]
            yield {"signs": sv.d, "count": count, "freq": count / n_rep}

    def support_rows():
        freq = summary.support_freq
        for sup in sorted(freq):
            count = freq[sup]
            yield {"support": _one_based(sup), "count": count, "freq": count / n_rep}

    return stream_json({
        "n_rep": summary.n_rep,
        "seed": summary.seed,
        "nonunique_count": summary.nonunique_count,
        "nonunique_freq": summary.nonunique_count / summary.n_rep,
        "convergence_failures": summary.convergence_failures,
        "sign_pattern_freq": sign_rows(),
        "support_freq": support_rows(),
        "ecdf_grid": [[[z, f] for z, f in axis] for axis in summary.ecdf_grid],
    })


def _cmd_shrinkage_map(args, env, geometry) -> str:
    tuning = _need_lam(env, args.lam)
    p = env.problem.p
    if (args.b is None) == (args.z is None):
        raise InputError("shrinkage-map needs exactly one of --b or --z")
    if args.z is not None:
        z = _vector(args.z, "--z", p)
        sol = geometry.map_ls_to_lasso(env.problem, tuning, z)
        return render_json({
            "direction": "ls-to-lasso",
            "z_ls": z,
            "b": sol.b,
            "active_model": _one_based(sol.active_model),
        })
    b = _vector(args.b, "--b", p)
    z = geometry.shrinkage_singleton(env.problem, tuning, b)
    return render_json({"direction": "lasso-to-ls", "b": b, "z_ls": z})


def _opt(flag, **kwargs):
    return flag, kwargs


def _tol(default):
    return _opt("--tol", type=float, default=default)


_INPUT = _opt("--input", required=True, help="problem envelope JSON file")
_LAM = _opt("--lam", help="override lambda, comma-separated")
_SAMPLING = (
    _opt("--method", choices=("quad", "mc"), default="quad"),
    _opt("--samples", type=int, default=100_000),
    _opt("--seed", type=int, default=0),
)

# subcommand -> (usage line, handler(args, envelope, engine), options in usage order)
_SUBCOMMANDS = {
    "solve": ("weighted Lasso solution for a given y", _cmd_solve, (
        _INPUT, _LAM, _tol(DEFAULT_TOL), _opt("--y", help="response vector, comma-separated"))),
    "structural-set": ("coordinates that some y can activate", _cmd_structural_set, (
        _INPUT, _LAM, _tol(LP_TOL))),
    "selectable": ("can a given model be the active set exactly", _cmd_selectable, (
        _INPUT, _LAM, _tol(LP_TOL), _opt("--model", help="1-based indices, comma-separated"))),
    "check-unique": ("uniqueness of the solution for every y", _cmd_check_unique, (
        _INPUT, _LAM, _tol(LP_TOL))),
    "general-position": ("columns-in-general-position test", _cmd_general_position, (_INPUT,)),
    "prob-zero": ("P(bhat = 0)", _cmd_prob_zero, (_INPUT, _LAM, *_SAMPLING)),
    "orthant-prob": ("probability of one sign-orthant event", _cmd_orthant_prob, (
        _INPUT, _LAM, *_SAMPLING,
        _opt("--signs", help="orthant signs in {-1,0,1}, comma-separated", required=True),
        _opt("--z", help="estimator-coordinate thresholds, comma-separated (default 0)"))),
    "cdf": ("joint distribution function of the error", _cmd_cdf, (
        _INPUT, _LAM, _opt("--z", help="evaluation point, comma-separated", required=True),
        _opt("--coords", choices=("error", "estimator"), default="error"))),
    "density-grid": ("CSV grid of the continuous-part density (p = 2)", _cmd_density_grid, (
        _INPUT, _LAM,
        _opt("--grid", help="lo:hi:steps, once per axis (repeat for distinct axes)",
             action="append"))),
    "simulate": ("Monte-Carlo replicates and empirical summaries", _cmd_simulate, (
        _INPUT, _LAM, _tol(DEFAULT_TOL), _opt("--reps", type=int, default=100_000),
        _opt("--seed", type=int, default=0),
        _opt("--report", choices=("json", "csv"), default="json"))),
    "shrinkage-map": ("least-squares <-> Lasso correspondence", _cmd_shrinkage_map, (
        _INPUT, _LAM, _opt("--b", help="Lasso solution, comma-separated"),
        _opt("--z", help="least-squares point, comma-separated"))),
}

_USAGE = (
    "usage: lassodist <subcommand> [options]\n\nsubcommands:\n"
    + "".join(f"  {name:<18}{line}\n" for name, (line, _, _) in _SUBCOMMANDS.items())
    + "\nRun `lassodist <subcommand> --help` for the options of one subcommand.\n"
)


def _metavar(flag, spec):
    choices = spec.get("choices")
    return f"{flag} {'{' + ','.join(choices) + '}' if choices else flag[2:].upper()}"


def _help(name, options) -> str:
    metavars = [_metavar(flag, spec) for flag, spec in options]
    width = max(map(len, metavars)) + 2
    usage, rows = [], []
    for m, (_, spec) in zip(metavars, options):
        usage.append(m if spec.get("required") else f"[{m}]")
        default = "default" in spec and f"(default: {spec['default']})"
        rows.append(f"  {m:<{width}}{' '.join(filter(None, (spec.get('help'), default)))}".rstrip())
    return (f"usage: lassodist {name} {' '.join(usage)}\n\n{_SUBCOMMANDS[name][0]}\n\n"
            "options:\n" + "".join(row + "\n" for row in rows))


def _parse(name, options, tokens):
    """The options of subcommand `name` in `tokens`, as attributes named
    after their flags, or None once its help is written. A flag's value is
    the text after "=" or else the next token, whatever it starts with."""
    specs = dict(options)
    values = {flag: spec.get("default") for flag, spec in options}
    tokens = iter(tokens)
    for tok in tokens:
        if tok in ("-h", "--help"):
            sys.stdout.write(_help(name, options))
            return None
        flag, eq, value = tok.partition("=")
        spec = specs.get(flag)
        if spec is None:
            raise InputError(f"unrecognized argument {tok!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise InputError(f"argument {flag}: expected a value")
        kind = spec.get("type", str)
        try:
            value = kind(value)
        except ValueError:
            raise InputError(f"argument {flag}: invalid {kind.__name__} value {value!r}") from None
        choices = spec.get("choices")
        if choices and value not in choices:
            raise InputError(f"argument {flag}: invalid choice {value!r} "
                             f"(choose from {', '.join(choices)})")
        values[flag] = (values[flag] or []) + [value] if spec.get("action") == "append" else value
    missing = [flag for flag, spec in options if spec.get("required") and values[flag] is None]
    if missing:
        raise InputError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**{flag[2:]: value for flag, value in values.items()})


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    if not argv or argv[0] not in _SUBCOMMANDS:
        sys.stderr.write(_USAGE)
        return 64
    _, handler, options = _SUBCOMMANDS[argv[0]]
    try:
        args = _parse(argv[0], options, argv[1:])
        if args is None:
            return 0
        engine = import_module(f".{_engine(argv[0], getattr(args, 'method', None))}", __package__)
        out = handler(args, load_envelope(args.input), engine)
        # a handler returns its output, or pieces of it to write as they are made
        for text in [out] if isinstance(out, str) else _batches(out):
            sys.stdout.write(text)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (DimensionLimitError, CombinatorialLimitError, NumericalError,
            ConditioningError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


def entry():
    # see the module docstring
    try:
        code = main()
    except BrokenPipeError:
        code = 1
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()
