"""Command-line front end.

Subcommands
-----------
evaluate
    Report criteria values, cost and power of a user-supplied design.
search
    Exhaustive admissible-design search over a configured space.
ce-search
    Cross-entropy stochastic search at fixed (m, C, T).
sensitivity
    Grid of per-point optimal designs over (sigma2_c, sigma2_eps), plus an
    optional variance-ratio map for a fixed design.
analytic
    Closed-form utilities.

Configurations are versioned JSON documents; allocation matrices are
headerless CSV files of integer arm labels, one row per cluster.  Each run
persists its inputs and outputs under a run directory so results can be
reproduced byte for byte (timestamps live in a separate metadata file).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import importlib
import json
import math
import os
import sys
import time
from collections.abc import Mapping
from pathlib import Path

import click

from . import analytic as analytic_mod

# Parallel work runs in processes (--workers), and the BLAS calls are on
# q x q matrices and short vectors, so an OpenBLAS thread pool only spins
# while the process imports.  A value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SCHEMA_VERSION = 1
EXIT_NO_ADMISSIBLE = 3

__all__ = ["main", "read_design_csv", "write_design_csv", "load_config"]

#: The compute names the commands use, by home module.  They are bound on
#: first use, so ``analytic`` and a bare import load neither numpy nor the
#: compute modules.
_COMPUTE = {
    "designspace": ("CustomPredicate", "DesignSpace", "restriction_from_name"),
    "inference": ("PowerSpec",),
    "model": ("Design", "NonIdentifiableError", "VarianceComponents",
              "design_sums"),
    "search": ("CandidateCapExceeded", "CEParams", "GridSpec", "Objective",
               "SearchFailure", "criterion_from_name", "cross_entropy_search",
               "evaluate_design", "exhaustive_search", "sensitivity_map",
               "variance_ratio_map"),
}


@functools.cache
def _compute() -> None:
    """Bind every compute name that is not bound yet, once.

    A bound name is kept: the benchmark tracer replaces some with wrappers
    before the command runs.  Freezing the import heap afterwards spares
    the interpreter's final collection a walk over it.
    """
    for module, names in _COMPUTE.items():
        mod = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(mod, name))
    gc.freeze()


def __getattr__(name: str):
    """A compute name, bound on first use (PEP 562)."""
    if not any(name in names for names in _COMPUTE.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _compute()
    return globals()[name]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def read_design_csv(path) -> np.ndarray:
    """Read an allocation matrix from headerless CSV of integer labels."""
    import numpy as np

    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            row = []
            for colno, cell in enumerate(cells, start=1):
                try:
                    row.append(int(cell.strip()))
                except ValueError:
                    raise click.ClickException(
                        f"{path}: line {lineno}, column {colno}: "
                        f"{cell.strip()!r} is not an integer arm label"
                    ) from None
            rows.append(row)
    if not rows:
        raise click.ClickException(f"{path}: no rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise click.ClickException(
            f"{path}: rows have differing lengths {sorted(widths)}"
        )
    return np.array(rows, dtype=int)


def _write_csv(path, rows) -> None:
    """Write rows of cells as CSV with LF line endings.

    ``str`` of a float cell is its ``repr``, the shortest string that reads
    back as the same float.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_design_csv(X, path) -> None:
    """Write an allocation matrix as headerless CSV with LF line endings."""
    import numpy as np

    _write_csv(path, np.asarray(X, dtype=int).tolist())


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _required(block: dict, key, path: str = ""):
    """``block[key]``, or a one-line error naming the missing field."""
    try:
        return block[key]
    except KeyError:
        name = f"{path}.{key}" if path else str(key)
        raise click.ClickException(f"{name} is required") from None


def _number(value, path: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise click.ClickException(f"{path} must be a number, got {value!r}")
    if not math.isfinite(value):
        # JSON parsing accepts NaN and Infinity.
        raise click.ClickException(
            f"{path} must be a finite number, got {value!r}"
        )


def _integer(value, path: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise click.ClickException(f"{path} must be an integer, got {value!r}")
    if not -2**63 <= value < 2**63:  # sizes end up in int64 and ssize_t
        raise click.ClickException(f"{path} must fit in 64 bits, got {value}")


def _text(value, path: str) -> None:
    """Passed through: the library names the values it accepts."""


def _list_of(check):
    """Checker of a list whose entries ``check`` accepts."""
    def list_of(value, path):
        if not isinstance(value, list):
            raise click.ClickException(f"{path} must be a list, got {value!r}")
        for i, item in enumerate(value):
            check(item, f"{path}[{i}]")
    return list_of


def _one_or_list(check):
    """Checker of a value that ``check`` accepts, or of a list of them."""
    return lambda value, path: (
        _list_of(check) if isinstance(value, list) else check)(value, path)


def _pair(value, path: str) -> None:
    if not isinstance(value, list) or len(value) != 2:
        raise click.ClickException(
            f"{path} must be a [low, high] pair, got {value!r}"
        )
    _list_of(_number)(value, path)


def _object(table: str):
    """Checker of a JSON object whose keys ``SCHEMA[table]`` checks."""
    def check(value, path):
        if not isinstance(value, dict):
            raise click.ClickException(
                f"{path} must be an object, got {value!r}"
            )
        keys = SCHEMA[table]
        unknown = sorted(set(value) - set(keys))
        if unknown:
            # The keys of ce are CEParams keyword arguments; say so in
            # Python's words, which existing callers match.
            hint = (f": unexpected keyword argument {unknown[0]!r} of CEParams"
                    if table == "ce" else "")
            raise click.ClickException("unknown key " + ", ".join(
                repr(f"{path}.{key}") for key in unknown) + hint)
        for key, item_check in keys.items():
            if key in value:
                item_check(value[key], f"{path}.{key}")
    return check


def _or_object(obj, check):
    """Checker applying ``obj`` to a JSON object and ``check`` otherwise."""
    return lambda value, path: (
        obj if isinstance(value, dict) else check)(value, path)


def _per_T(check):
    """Checker of a map keyed by T whose values ``check`` accepts."""
    def per_T(value, path):
        for key, item in value.items():
            check(item, f"{path}.{key}")
    return per_T


#: The analytic ops: each one's function and the analytic keys it takes.
ANALYTIC_OPS = {
    "cluster-mean-correlation": (analytic_mod.cluster_mean_correlation,
                                 ("m", "T", "rho")),
    "rho-from-E": (analytic_mod.rho_from_E, ("m", "T", "E")),
    "sequence-count": (analytic_mod.optimal_sequence_count, ("E",)),
    "li-proportions": (analytic_mod.li_optimal_proportions,
                       ("m", "T", "rho0", "rho1", "rho2")),
    "empirical-proportions": (analytic_mod.empirical_proportions, ()),
    "binary-residual-variance": (analytic_mod.binary_residual_variance,
                                 ("p_bar",)),
}

#: The model's parameterisations: the keys each needs and those it may add.
MODEL_FORMS = (({"rho"}, {"sigma2"}), ({"rho0", "rho1", "rho2"}, {"sigma2"}),
               (set(), {"sigma2_c", "sigma2_theta", "sigma2_s", "sigma2_eps"}))

#: Checkers of dataclass fields by their annotation.
_BY_TYPE = {"int": _integer, "float": _number, "str": _text,
            "tuple[float, float]": _pair, "np.ndarray": _one_or_list(_number)}
_INTEGERS = _one_or_list(_integer)


class _Fields(Mapping):
    """Checkers of a block whose keys are a dataclass's keyword arguments.

    The dataclass is a compute name, resolved when the block is first
    checked, so a config without the block loads no compute module.
    """

    def __init__(self, name: str):
        self.name = name

    @functools.cached_property
    def _checkers(self) -> dict:
        return {f.name: _BY_TYPE[f.type]
                for f in dataclasses.fields(__getattr__(self.name))}

    def __getitem__(self, key):
        return self._checkers[key]

    def __iter__(self):
        return iter(self._checkers)

    def __len__(self) -> int:
        return len(self._checkers)


#: The checker of every config key, by the JSON path of the object holding
#: it ("" is the top level).  :func:`load_config` walks a config against it
#: once, so any other key, a misspelt one say, is an error rather than
#: silently ignored, and the builders read checked values.
SCHEMA = {
    "": {"schema_version": _text, "candidate_cap": _integer, **{
        name: _object(name) for name in (
            "model", "space", "power", "objective", "design", "compare", "ce",
            "sensitivity", "analytic")}},
    "model": dict.fromkeys(
        sorted(set().union(*(a | b for a, b in MODEL_FORMS))), _number),
    "space": {"D": _integer, "T": _INTEGERS,
              "C": _or_object(_per_T(_INTEGERS), _INTEGERS),
              "m": _or_object(_object("space.m"), _INTEGERS),
              "restrictions": _list_of(
                  _or_object(_object("space.restrictions[i]"), _text))},
    "space.m": {"min": _integer, "budget": _integer},
    "space.restrictions[i]": {
        "allowed_sequences": _list_of(_list_of(_integer)), "label": _text},
    "power": _Fields("PowerSpec"),
    "objective": {"w": _number, "criterion": _text},
    "design": {"m": _integer},
    "compare": {"m": _integer},
    "ce": _Fields("CEParams"),
    "sensitivity": _Fields("GridSpec"),
    "analytic": {"op": _text, **{key: _number for _, keys in
                                 ANALYTIC_OPS.values() for key in keys}},
}

#: Top-level config keys: the blocks and two scalars.
CONFIG_KEYS = frozenset(SCHEMA[""])


def load_config(path) -> dict:
    """Parse a run configuration file and check it against :data:`SCHEMA`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise click.ClickException(f"{path}: the config must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise click.ClickException(
            f"{path}: schema_version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise click.ClickException(
            f"{path}: unknown top-level key {', '.join(map(repr, unknown))}"
        )
    for key, check in SCHEMA[""].items():
        if key in cfg:
            check(cfg[key], key)
    return cfg


def _tuple(value) -> tuple:
    """A checked integer-or-list value as a tuple."""
    return tuple(value) if isinstance(value, list) else (value,)


def _build_vc(block: dict) -> VarianceComponents:
    if not any(need <= set(block) <= need | extra
               for need, extra in MODEL_FORMS):
        raise click.ClickException(
            f"model keys {', '.join(map(repr, sorted(block)))} do not make "
            "one parameterisation: give rho or all of rho0/rho1/rho2, either "
            "with an optional sigma2, or some of "
            "sigma2_c/sigma2_theta/sigma2_s/sigma2_eps"
        )
    sigma2 = block.get("sigma2", 1.0)
    try:
        if "rho" in block:
            field = "model.rho"
            vc = VarianceComponents.from_rho(sigma2, block["rho"])
        elif "rho0" in block:
            field = "model.rho0/rho1/rho2"
            vc = VarianceComponents.from_correlations(
                sigma2, block["rho0"], block["rho1"], block["rho2"]
            )
        else:
            field = "model"
            vc = VarianceComponents(**block)
    except ValueError as exc:
        raise click.ClickException(f"{field}: {exc}") from None
    if vc.sigma2_eps <= 0:
        raise click.ClickException(
            f"{field}: leaves no residual variance (sigma2_eps = "
            f"{vc.sigma2_eps!r}), so the marginal covariance is singular"
        )
    return vc


def _build_restriction(item, path: str):
    try:
        if isinstance(item, dict):
            return CustomPredicate(
                label=item.get("label", "whitelist"),
                allowed=tuple(map(tuple, _required(
                    item, "allowed_sequences", path))),
            )
        return restriction_from_name(item)
    except ValueError as exc:
        raise click.ClickException(f"{path}: {exc}") from None


def _build_space(cfg: dict) -> DesignSpace:
    block = _required(cfg, "space")
    D, T, C, m = (_required(block, key, "space") for key in "DTCm")
    restrictions = [_build_restriction(item, f"space.restrictions[{i}]")
                    for i, item in enumerate(block.get("restrictions", []))]
    T = _tuple(T)
    if isinstance(C, dict):
        for key in sorted(set(C) - {str(t) for t in T}):
            raise click.ClickException(
                f"space.C.{key}: T = {key} is not in space.T"
            )
    C = ({int(t): _tuple(Cs) for t, Cs in C.items()} if isinstance(C, dict)
         else _tuple(C))
    try:
        if isinstance(m, dict):
            return DesignSpace.budgeted(
                T, C, m.get("min", 2), _required(m, "budget", "space.m"), D,
                restrictions,
            )
        return DesignSpace.grid(T, C, _tuple(m), D, restrictions)
    except ValueError as exc:
        raise click.ClickException(f"space: {exc}") from None


def _build_power(block: dict, q: int) -> PowerSpec:
    """Power settings for ``q`` treatment effects.

    Without a requirement (``beta = 1``, the default) a search ignores
    power.  ``delta`` must have ``q`` entries when a requirement is set or
    a ``delta`` is given at all; a number is one entry.
    """
    delta = block.get("delta", [])
    try:
        spec = PowerSpec(**{"alpha": 0.05, "beta": 1.0, **block, "delta":
                            delta if isinstance(delta, list) else [delta]})
    except ValueError as exc:
        raise click.ClickException(f"power: {exc}") from None
    if spec.q != q and (spec.beta < 1 or spec.q):
        raise click.ClickException(
            f"power.delta has {spec.q} entries but space.D = {q + 1} "
            f"needs {q}, one per intervention effect"
        )
    return spec


def _build_objective(block: dict) -> Objective:
    try:
        return Objective(
            w=block.get("w", 0.0),
            criterion=criterion_from_name(block.get("criterion", "E")),
        )
    except ValueError as exc:
        raise click.ClickException(f"objective: {exc}") from None


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _run_dir(out, config_path, mode) -> Path:
    if out:
        d = Path(out)
    else:
        stem = Path(config_path).stem if config_path else mode
        d = Path("runs") / f"{stem}-{mode}"
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # An existing file at the path or on the way to it, or no permission.
        raise click.ClickException(
            f"--out: cannot create the run directory {d}: {exc.strerror}"
        ) from None
    return d


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run(run_dir, cfg, result, **meta) -> None:
    """Write a run's config and result, and in ``meta.json`` what results
    must not depend on: the time and, say, the worker count."""
    _dump_json(cfg, run_dir / "config.json")
    _dump_json(result, run_dir / "result.json")
    _dump_json({"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **meta},
               run_dir / "meta.json")


def _finite(value):
    """``value``, or None where it is not finite: JSON has no NaN."""
    return value if math.isfinite(value) else None


def _design_payload(design: Design) -> dict:
    return {
        "m": design.m,
        "C": design.C,
        "T": design.T,
        "D": design.D,
        "X": design.X.tolist(),
    }


#: The four statistics of a design's report: printed label and format,
#: ``table.csv`` column and key in :func:`evaluate_design`'s report.
_STATS = (("f(D)", ".0f", "cost", "cost"),
          ("det(Lambda_q)", ".4g", "det", "D"),
          ("tr(Lambda_q)/q", ".4g", "trace_over_q", "A"),
          ("max diag(Lambda_q)", ".4g", "max_diag", "E"))


def _rows(stats: dict) -> list:
    """``(label, format, column, value)`` of each number a report gives."""
    power = stats.get("power")
    rows = [] if power is None else [
        *((f"P(reject H0{f} | delta{f}) ", ".4f", f"power_{f}", val)
          for f, val in enumerate(power.per_hypothesis, start=1)),
        ("P(reject any H0)", ".4f", "power_combined", power.combined)]
    return rows + [(label, fmt, col, stats[key])
                   for label, fmt, col, key in _STATS]


def _report(stats: dict, compare: dict | None, run_dir, X=None) -> None:
    """Print a design's report, with the change from ``compare`` if given,
    and write its ``table.csv`` and, given ``X``, its ``design.csv``."""
    rows = _rows(stats)
    olds = [row[3] for row in _rows(compare)] if compare else [None] * len(rows)
    for (label, fmt, _, val), old in zip(rows, olds):
        change = "" if old is None else f" ({100.0 * (val - old) / old:+.1f}%)"
        click.echo(f"{label:<22} {val:{fmt}}{change}")
    _write_csv(run_dir / "table.csv", [[row[2] for row in rows],
                                       [float(row[3]) for row in rows]])
    if X is not None:
        write_design_csv(X, run_dir / "design.csv")


def _power_payload(power) -> dict | None:
    if power is None:
        return None
    return {
        "critical_value": power.critical_value,
        "per_hypothesis": [float(v) for v in power.per_hypothesis],
        "combined": float(power.combined),
        "meets_requirement": bool(power.meets_requirement),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Design and power analysis for multi-arm stepped-wedge trials."""


def _design(X, m, D: int, field: str) -> Design:
    try:
        return Design(m, X.shape[0], X.shape[1], X, D)
    except ValueError as exc:
        raise click.ClickException(f"{field}: {exc}") from None


def _common_eval(cfg, design_path, m_override):
    vc = _build_vc(cfg.get("model", {}))
    X = read_design_csv(design_path)
    D = cfg.get("space", {}).get("D", int(X.max()) + 1)
    spec = _build_power(cfg.get("power", {}), D - 1)
    m = cfg.get("design", {}).get("m") if m_override is None else m_override
    if m is None:
        raise click.ClickException(
            "measurements per cluster-period not given: add a top-level "
            '"design": {"m": ...} block to the config'
        )
    design = _design(X, m, D, "design")
    return design, vc, spec if spec.q == design.q else None


def _evaluate(design, vc, spec, seed):
    try:
        return evaluate_design(design, vc, spec, seed)
    except NonIdentifiableError as exc:
        raise click.ClickException(
            f"design is not identifiable: {exc}") from None


def _comparator(cfg, compare_path, D: int, m: int):
    """The ``--compare`` design at ``compare.m``, else at ``m``, or None.

    Identifiability depends on the rows alone, not on ``m``, so a search
    checks its comparator before it scans.
    """
    if not compare_path:
        return None
    X = read_design_csv(compare_path)
    design = _design(X, cfg.get("compare", {}).get("m", m), D, "compare")
    try:
        design_sums(design)
    except NonIdentifiableError as exc:
        raise click.ClickException(
            f"compare: design is not identifiable: {exc}") from None
    return design


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--design", "design_path", required=True, type=click.Path(exists=True))
@click.option("--compare", "compare_path", type=click.Path(exists=True))
@click.option("--m", "m_override", type=int, help="Measurements per cluster-period.")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path())
def evaluate(config_path, design_path, compare_path, m_override, seed, out):
    """Report criteria, cost and power for a design given as CSV."""
    _compute()
    cfg = load_config(config_path)
    design, vc, spec = _common_eval(cfg, design_path, m_override)
    stats = _evaluate(design, vc, spec, seed)
    comparator = _comparator(cfg, compare_path, design.D, design.m)
    compare = None if comparator is None else evaluate_design(
        comparator, vc, spec, seed)
    run_dir = _run_dir(out, config_path, "evaluate")
    _report(stats, compare, run_dir)
    _write_run(run_dir, cfg, {
        "design": _design_payload(design),
        "cost": stats["cost"],
        "criteria": {"D": stats["D"], "A": stats["A"], "E": stats["E"]},
        "power": _power_payload(stats.get("power")),
        "seed": seed,
    })


_WORKERS = click.option(
    "--workers", type=click.IntRange(min=1), default=1,
    envvar="SWDESIGN_WORKERS",
    help="Process count; defaults to $SWDESIGN_WORKERS or 1.")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@_WORKERS
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path())
@click.option("--compare", "compare_path", type=click.Path(exists=True))
def search(config_path, workers, seed, out, compare_path):
    """Exhaustive admissible-design search."""
    _compute()
    cfg = load_config(config_path)
    vc = _build_vc(cfg.get("model", {}))
    space = _build_space(cfg)
    spec = _build_power(cfg.get("power", {}), space.D - 1)
    objective = _build_objective(cfg.get("objective", {}))
    # At the space's smallest m until the winner's m is known.
    comparator = _comparator(cfg, compare_path, space.D,
                             min(map(min, space.M_sets.values())))
    try:
        result = exhaustive_search(
            space, vc, spec, objective, workers=workers, seed=seed,
            **{k: v for k, v in cfg.items() if k == "candidate_cap"},
        )
    except CandidateCapExceeded as exc:
        raise click.ClickException(str(exc))
    cfg_power = spec if spec.q == space.D - 1 else None
    compare = None if comparator is None or result.best is None else (
        evaluate_design(dataclasses.replace(
            comparator, m=cfg.get("compare", {}).get("m", result.best.m)),
            vc, cfg_power, seed))
    run_dir = _run_dir(out, config_path, "search")
    if result.best is not None:
        _report(dict(evaluate_design(result.best, vc), power=result.power),
                compare, run_dir, result.best.X)
    _write_run(run_dir, cfg, {
        "status": result.status,
        "criterion": objective.criterion.name,
        "w": objective.w,
        "best": _design_payload(result.best) if result.best else None,
        "criterion_value": _finite(result.criterion_value),
        "cost": _finite(result.cost),
        "objective_value": _finite(result.objective_value),
        "scaling": {k: _finite(v) for k, v in result.scaling.items()},
        "n_evaluated": result.n_evaluated,
        "n_feasible": result.n_feasible,
        "power": _power_payload(result.power),
        "seed": seed,
    }, workers=workers)
    if result.status == "no-admissible-design":
        click.echo(
            "no design in the space is identifiable" if result.best is None
            else "no design meets the power requirement; the reported design "
            "is the unconstrained criterion optimum", err=True,
        )
        sys.exit(EXIT_NO_ADMISSIBLE)


@main.command(name="ce-search")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path())
def ce_search(config_path, seed, out):
    """Cross-entropy stochastic search at fixed (m, C, T)."""
    _compute()
    cfg = load_config(config_path)
    vc = _build_vc(cfg.get("model", {}))
    space = _build_space(cfg)
    spec = _build_power(cfg.get("power", {}), space.D - 1)
    objective = _build_objective(cfg.get("objective", {}))
    blocks = list(space.blocks())
    if len(blocks) != 1:
        raise click.ClickException(
            "ce-search requires a single (m, C, T) combination in the space"
        )
    T, C, m = blocks[0]
    fields = dict(cfg.get("ce", {}))
    if seed is not None:
        fields["seed"] = seed
    try:
        params = CEParams(**fields)
    except ValueError as exc:
        raise click.ClickException(f"ce: {exc}") from None
    try:
        result = cross_entropy_search(
            C, T, m, space.D, space.restrictions, vc, objective, spec, params
        )
    except SearchFailure as exc:
        raise click.ClickException(f"space: {exc}") from None
    except MemoryError:  # arrays of C by the pool and by the population
        raise click.ClickException(f"space.C = {C} with ce.population_size = "
                                   f"{params.population_size}: the samples "
                                   "do not fit in memory") from None
    run_dir = _run_dir(out, config_path, "ce-search")
    _report(dict(evaluate_design(result.best, vc), power=result.power),
            None, run_dir, result.best.X)
    _write_run(run_dir, cfg, {
        "status": result.status,
        "criterion": objective.criterion.name,
        "best": _design_payload(result.best),
        "criterion_value": result.criterion_value,
        "cost": result.cost,
        "n_evaluated": result.n_evaluated,
        "power": _power_payload(result.power),
        "seed": params.seed,
    })
    if result.status == "no-admissible-design":
        click.echo("no sampled design met the power requirement", err=True)
        sys.exit(EXIT_NO_ADMISSIBLE)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--design", "design_path", type=click.Path(exists=True),
              help="Fixed design for a variance-ratio map.")
@_WORKERS
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path())
def sensitivity(config_path, design_path, workers, seed, out):
    """Optimal-design map over a (sigma2_c, sigma2_eps) grid."""
    _compute()
    cfg = load_config(config_path)
    space = _build_space(cfg)
    spec = _build_power(cfg.get("power", {}), space.D - 1)
    objective = _build_objective(cfg.get("objective", {}))
    X = read_design_csv(design_path) if design_path else None
    try:
        grid = GridSpec(**cfg.get("sensitivity", {}))
        result = sensitivity_map(
            grid, space, objective, spec, workers=workers, seed=seed,
            **{k: v for k, v in cfg.items() if k == "candidate_cap"},
        )
        if X is not None:
            ratios = variance_ratio_map(X, grid, space, objective, spec,
                                        m=cfg.get("design", {}).get("m"),
                                        sensitivity=result)
    except ValueError as exc:
        raise click.ClickException(f"sensitivity: {exc}") from None
    except SearchFailure as exc:
        raise click.ClickException(f"space: {exc}") from None
    except CandidateCapExceeded as exc:
        raise click.ClickException(str(exc)) from None
    run_dir = _run_dir(out, config_path, "sensitivity")
    axes = [(float(sc2), float(se2)) for sc2 in result.sigma2_c_values
            for se2 in result.sigma2_eps_values]
    _write_csv(run_dir / "grid.csv", [
        ("sigma2_c", "sigma2_eps", "design_id", "criterion_value"),
        *((*ax, did, float(crit)) for ax, did, crit in zip(
            axes, result.design_ids.flat, result.criterion_values.flat))])
    designs_payload = {
        did: _design_payload(d) for did, d in result.designs.items()
    }
    payload = {"designs": designs_payload, "seed": seed}
    if X is not None:
        _write_csv(run_dir / "ratio.csv", [
            ("sigma2_c", "sigma2_eps", "variance_ratio"),
            *((*ax, float(r)) for ax, r in zip(axes, ratios.flat))])
        payload["ratio_design"] = X.tolist()
    _write_run(run_dir, cfg, payload, workers=workers)
    click.echo(
        f"{len(result.designs)} distinct optimal designs over "
        f"{result.design_ids.size} grid points"
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--design", "design_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path())
def analytic(config_path, design_path, out):
    """Closed-form design quantities."""
    cfg = load_config(config_path)
    block = cfg.get("analytic", {})
    if "op" not in block:
        raise click.ClickException('config needs an "analytic" block with "op"')
    op = block["op"]
    if not isinstance(op, str) or op not in ANALYTIC_OPS:
        raise click.ClickException(f"unknown analytic op {op!r}")
    fn, keys = ANALYTIC_OPS[op]
    args = [_required(block, key, "analytic") for key in keys]
    if op == "empirical-proportions":
        if not design_path:
            raise click.ClickException(
                "empirical-proportions requires --design"
            )
        args = [read_design_csv(design_path)]
    try:
        value = fn(*args)
    except ValueError as exc:
        raise click.ClickException(f"analytic: {exc}") from None
    if op == "li-proportions":
        value = {**vars(value), "p": list(value.p)}
    elif op == "empirical-proportions":
        value = value.tolist()
    run_dir = _run_dir(out, config_path, "analytic")
    click.echo(json.dumps({"op": op, "value": value}, sort_keys=True))
    _write_run(run_dir, cfg, {"op": op, "value": value})


if __name__ == "__main__":
    main()
