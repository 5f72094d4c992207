"""Exact finite-sample distribution theory for the weighted Lasso.

The package computes, for y = X beta + eps with Gaussian noise and a
coordinatewise penalty 2 * sum_j lam_j |b_j|, the exact distribution of the
estimator: atom masses, orthant-event probabilities, conditional densities
and the joint CDF, next to the geometry that drives them (structural and
selectable sets, uniqueness for every y, shrinkage correspondence with least
squares) and a Monte-Carlo oracle for cross-checking any of it.

`import lassodist` loads no submodule: each public name imports its home
module on first use (PEP 562), so a caller pays only for what it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module of each public name
_HOMES = {name: module for module, names in {
    "distribution": (
        "OrthantEvent", "cdf", "conditional_density", "error_density", "error_orthant_event",
        "estimator_orthant_event", "mvn_box_probability", "orthant_mass", "prob_all_zero",
        "prob_orthant_event",
    ),
    "errors": (
        "CombinatorialLimitError", "ConditioningError", "ConvergenceError",
        "DimensionLimitError", "InputError", "NumericalError",
    ),
    "geometry": (
        "FaceBox", "NonuniquenessWitness", "RowSpacePoint", "ShrinkageSet",
        "UniquenessVerdict", "ViolatingFace", "check_uniqueness",
        "construct_nonuniqueness_witness", "face_box", "face_intersects_row_space",
        "general_position", "map_ls_to_lasso", "selectable", "shrinkage_set_high",
        "shrinkage_set_low", "shrinkage_singleton", "structural_set",
    ),
    "model": (
        "DesignProblem", "GaussianModel", "RegionProbability", "SignVector", "TuningVector",
        "build_problem", "design_from_gram", "fiber_equivalent", "gaussian_model",
        "sign_partition", "tuning_vector", "uniform_tuning",
    ),
    "simulate": (
        "ComparisonReport", "EmpiricalSummary", "SimulationConfig",
        "compare_analytic_empirical", "estimate_nonuniqueness_probability", "prob_region_high",
        "region_below", "region_orthant", "region_support_includes", "run_simulation",
    ),
    "solver": (
        "KKTReport", "LassoSolution", "SolutionSetDescription", "describe_solution_set",
        "is_solution", "solve", "solve_many",
    ),
}.items() for name in names}

__all__ = sorted(_HOMES)

# the engine module of each CLI subcommand (see _engine): `python -m lassodist`
# imports it before cli.py compiles, and cli.main() passes it to the handler
_ENGINES = {
    "solve": "solver",
    "structural-set": "geometry",
    "selectable": "geometry",
    "check-unique": "geometry",
    "general-position": "geometry",
    "prob-zero": "distribution",
    "orthant-prob": "distribution",
    "cdf": "distribution",
    "density-grid": "distribution",
    "simulate": "simulate",
    "shrinkage-map": "geometry",
}


def _engine(name, method=None):
    """The engine module of subcommand `name`: simulate for `--method mc`."""
    return "simulate" if method == "mc" else _ENGINES[name]


def _lazy(namespace, homes):
    """A module `__getattr__` (PEP 562) that imports each name of `homes`
    (name -> submodule of this package) on first use and stores it in the
    module's `namespace`, so later lookups skip the hook."""

    def __getattr__(name):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f".{homes[name]}", __name__), name)
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _HOMES)


def __dir__():
    return sorted(set(globals()) | set(__all__))
