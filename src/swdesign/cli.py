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

import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import analytic as analytic_mod
from .designspace import CustomPredicate, DesignSpace, restriction_from_name
from .inference import PowerSpec
from .model import Design, NonIdentifiableError, VarianceComponents
from .search import (
    CandidateCapExceeded,
    CEParams,
    GridSpec,
    Objective,
    criterion_from_name,
    cross_entropy_search,
    evaluate_design,
    exhaustive_search,
    sensitivity_map,
    variance_ratio_map,
)

SCHEMA_VERSION = 1
EXIT_NO_ADMISSIBLE = 3

#: Top-level config keys; any other one, a misspelt block name say, is an
#: error rather than silently ignored.
CONFIG_KEYS = frozenset({
    "schema_version", "model", "space", "power", "objective", "design",
    "compare", "ce", "sensitivity", "analytic", "candidate_cap",
})

__all__ = ["main", "read_design_csv", "write_design_csv", "load_config"]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def read_design_csv(path) -> np.ndarray:
    """Read an allocation matrix from headerless CSV of integer labels."""
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


def write_design_csv(X, path) -> None:
    """Write an allocation matrix as headerless CSV with LF line endings."""
    X = np.asarray(X, dtype=int)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in X:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


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


def _section(cfg: dict, key: str, required: bool = False) -> dict:
    """A JSON-object block of the config, or a one-line error naming it."""
    block = _required(cfg, key) if required else cfg.get(key) or {}
    if not isinstance(block, dict):
        raise click.ClickException(f"{key} must be an object, got {block!r}")
    return block


def _number(value, name: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise click.ClickException(f"{name} must be a number, got {value!r}")
    return value


def _int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise click.ClickException(f"{name} must be an integer, got {value!r}")
    return value


def _ints(value, name: str) -> tuple:
    """A JSON integer or list of integers, or a one-line error naming it."""
    if not isinstance(value, list):
        return (_int(value, name),)
    return tuple(_int(v, f"{name}[{i}]") for i, v in enumerate(value))


def _build_vc(block: dict) -> VarianceComponents:
    for key, value in block.items():
        if key.startswith(("rho", "sigma2")):
            _number(value, f"model.{key}")
    sigma2 = block.get("sigma2", 1.0)
    try:
        if "rho" in block:
            field = "model.rho"
            vc = VarianceComponents.from_rho(sigma2, block["rho"])
        elif "rho0" in block:
            field = "model.rho0/rho1/rho2"
            vc = VarianceComponents.from_correlations(
                sigma2,
                block["rho0"],
                _required(block, "rho1", "model"),
                _required(block, "rho2", "model"),
            )
        else:
            field = "model"
            vc = VarianceComponents(
                sigma2_c=block.get("sigma2_c", 0.0),
                sigma2_theta=block.get("sigma2_theta", 0.0),
                sigma2_s=block.get("sigma2_s", 0.0),
                sigma2_eps=block.get("sigma2_eps", 1.0),
            )
    except ValueError as exc:
        raise click.ClickException(f"{field}: {exc}") from None
    if vc.sigma2_eps <= 0:
        raise click.ClickException(
            f"{field}: leaves no residual variance (sigma2_eps = "
            f"{vc.sigma2_eps!r}), so the marginal covariance is singular"
        )
    return vc


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise click.ClickException(f"{name} must be a list, got {value!r}")
    return value


def _build_restrictions(names) -> tuple:
    out = []
    for i, item in enumerate(_list(names or [], "space.restrictions")):
        field = f"space.restrictions[{i}]"
        if isinstance(item, str):
            try:
                out.append(restriction_from_name(item))
            except ValueError as exc:
                raise click.ClickException(f"{field}: {exc}") from None
        elif isinstance(item, dict) and "allowed_sequences" in item:
            allowed = _list(item["allowed_sequences"],
                            f"{field}.allowed_sequences")
            out.append(
                CustomPredicate(
                    label=item.get("label", "whitelist"),
                    allowed=tuple(
                        _ints(seq, f"{field}.allowed_sequences[{j}]")
                        for j, seq in enumerate(allowed)
                    ),
                )
            )
        else:
            raise click.ClickException(
                f"{field}: unrecognized restriction {item!r}"
            )
    return tuple(out)


def _build_space(cfg: dict) -> DesignSpace:
    block = _section(cfg, "space", required=True)
    D = _int(_required(block, "D", "space"), "space.D")
    restrictions = _build_restrictions(block.get("restrictions"))
    T_values = _ints(_required(block, "T", "space"), "space.T")
    C_values = _required(block, "C", "space")
    if isinstance(C_values, dict):
        C_values = {
            _int(int(t) if t.isdigit() else t, "space.C key"):
                _ints(cs, f"space.C.{t}")
            for t, cs in C_values.items()
        }
    else:
        C_values = _ints(C_values, "space.C")
    m_block = _required(block, "m", "space")
    try:
        if isinstance(m_block, dict):
            budget = _required(m_block, "budget", "space.m")
            return DesignSpace.budgeted(
                T_values, C_values,
                _int(m_block.get("min", 2), "space.m.min"),
                _int(budget, "space.m.budget"), D, restrictions,
            )
        return DesignSpace.grid(
            T_values, C_values, _ints(m_block, "space.m"), D, restrictions
        )
    except ValueError as exc:
        raise click.ClickException(f"space: {exc}") from None


def _build_power(block: dict, q: int) -> PowerSpec:
    """Power settings for ``q`` treatment effects.

    ``delta`` must have ``q`` entries when a power requirement is set
    (``beta < 1``) or a ``delta`` is given at all.
    """
    try:
        spec = PowerSpec(
            alpha=_number(block.get("alpha", 0.05), "power.alpha"),
            correction=block.get("correction", "bonferroni"),
            beta=_number(block.get("beta", 1.0), "power.beta"),
            delta=block.get("delta", []),
            power_type=block.get("power_type", "individual"),
        )
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
            w=_number(block.get("w", 0.0), "objective.w"),
            criterion=criterion_from_name(block.get("criterion", "E")),
        )
    except ValueError as exc:
        raise click.ClickException(f"objective: {exc}") from None


def load_config(path) -> dict:
    """Parse and validate a run configuration file."""
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
    return cfg


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _run_dir(out, config_path, mode) -> Path:
    if out:
        d = Path(out)
    else:
        stem = Path(config_path).stem if config_path else mode
        d = Path("runs") / f"{stem}-{mode}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_meta(run_dir, **extra) -> None:
    """Run metadata that results must not depend on: time, worker count."""
    _dump_json({"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **extra},
               run_dir / "meta.json")


def _design_payload(design: Design) -> dict:
    return {
        "m": design.m,
        "C": design.C,
        "T": design.T,
        "D": design.D,
        "X": design.X.tolist(),
    }


def _pct(new: float, old: float) -> str:
    delta = 100.0 * (new - old) / old
    return f"({delta:+.1f}%)"


def _report_lines(stats: dict, compare: dict | None) -> list[str]:
    lines = []
    power = stats.get("power")
    if power is not None:
        for f, val in enumerate(power.per_hypothesis, start=1):
            cmp_txt = ""
            if compare is not None:
                cmp_txt = " " + _pct(val, compare["power"].per_hypothesis[f - 1])
            lines.append(f"P(reject H0{f} | delta{f})  {val:.4f}{cmp_txt}")
        cmb = power.combined
        cmp_txt = (
            " " + _pct(cmb, compare["power"].combined) if compare else ""
        )
        lines.append(f"P(reject any H0)       {cmb:.4f}{cmp_txt}")
    for key, label in (("cost", "f(D)"), ("D", "det(Lambda_q)"),
                       ("A", "tr(Lambda_q)/q"), ("E", "max diag(Lambda_q)")):
        val = stats[key]
        cmp_txt = " " + _pct(val, compare[key]) if compare else ""
        if key == "cost":
            lines.append(f"{label:<22} {val:.0f}{cmp_txt}")
        else:
            lines.append(f"{label:<22} {val:.4g}{cmp_txt}")
    return lines


def _stats_csv(stats: dict, path) -> None:
    power = stats.get("power")
    cols = []
    vals = []
    if power is not None:
        for f, val in enumerate(power.per_hypothesis, start=1):
            cols.append(f"power_{f}")
            vals.append(repr(float(val)))
        cols.append("power_combined")
        vals.append(repr(float(power.combined)))
    for key, col in (("cost", "cost"), ("D", "det"),
                     ("A", "trace_over_q"), ("E", "max_diag")):
        cols.append(col)
        vals.append(repr(float(stats[key])))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write(",".join(vals) + "\n")


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
    vc = _build_vc(_section(cfg, "model"))
    X = read_design_csv(design_path)
    D = _section(cfg, "space").get("D")
    D = int(X.max()) + 1 if D is None else _int(D, "space.D")
    spec = _build_power(_section(cfg, "power"), D - 1)
    m = m_override or _section(cfg, "design").get("m")
    if m is None:
        raise click.ClickException(
            "measurements per cluster-period not given: add a top-level "
            '"design": {"m": ...} block to the config'
        )
    design = _design(X, _int(m, "design.m"), D, "design")
    return design, vc, spec if spec.q == design.q else None


def _comparator_stats(cfg, compare_path, vc, spec, seed, D, m):
    if not compare_path:
        return None
    X = read_design_csv(compare_path)
    cm = _int(_section(cfg, "compare").get("m", m), "compare.m")
    design = _design(X, cm, D, "compare")
    return evaluate_design(design, vc, spec, seed)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--design", "design_path", required=True, type=click.Path(exists=True))
@click.option("--compare", "compare_path", type=click.Path(exists=True))
@click.option("--m", "m_override", type=int, help="Measurements per cluster-period.")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path())
def evaluate(config_path, design_path, compare_path, m_override, seed, out):
    """Report criteria, cost and power for a design given as CSV."""
    cfg = load_config(config_path)
    try:
        design, vc, spec = _common_eval(cfg, design_path, m_override)
        stats = evaluate_design(design, vc, spec, seed)
    except NonIdentifiableError as exc:
        raise click.ClickException(f"design is not identifiable: {exc}")
    compare = _comparator_stats(
        cfg, compare_path, vc, spec, seed, design.D, design.m
    )
    for line in _report_lines(stats, compare):
        click.echo(line)
    run_dir = _run_dir(out, config_path, "evaluate")
    _dump_json(cfg, run_dir / "config.json")
    _dump_json(
        {
            "design": _design_payload(design),
            "cost": stats["cost"],
            "criteria": {"D": stats["D"], "A": stats["A"], "E": stats["E"]},
            "power": _power_payload(stats.get("power")),
            "seed": seed,
        },
        run_dir / "result.json",
    )
    _stats_csv(stats, run_dir / "table.csv")
    _write_meta(run_dir)


def _workers_option(value):
    if value is not None:
        return value
    env = os.environ.get("SWDESIGN_WORKERS")
    return int(env) if env else 1


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--workers", type=int, default=None,
              help="Process count; defaults to $SWDESIGN_WORKERS or 1.")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path())
@click.option("--compare", "compare_path", type=click.Path(exists=True))
def search(config_path, workers, seed, out, compare_path):
    """Exhaustive admissible-design search."""
    cfg = load_config(config_path)
    workers = _workers_option(workers)
    vc = _build_vc(_section(cfg, "model"))
    space = _build_space(cfg)
    spec = _build_power(_section(cfg, "power"), space.D - 1)
    objective = _build_objective(_section(cfg, "objective"))
    cap = _int(cfg.get("candidate_cap", 10**8), "candidate_cap")
    try:
        result = exhaustive_search(
            space, vc, spec, objective, workers=workers,
            candidate_cap=cap, seed=seed,
        )
    except CandidateCapExceeded as exc:
        raise click.ClickException(str(exc))
    run_dir = _run_dir(out, config_path, "search")
    cfg_power = spec if spec.q == space.D - 1 else None
    if result.best is not None:
        stats = dict(evaluate_design(result.best, vc), power=result.power)
        compare = _comparator_stats(
            cfg, compare_path, vc, cfg_power, seed, space.D, result.best.m
        )
        for line in _report_lines(stats, compare):
            click.echo(line)
        _stats_csv(stats, run_dir / "table.csv")
        write_design_csv(result.best.X, run_dir / "design.csv")
    _dump_json(cfg, run_dir / "config.json")
    _dump_json(
        {
            "status": result.status,
            "criterion": objective.criterion.name,
            "w": objective.w,
            "best": _design_payload(result.best) if result.best else None,
            "criterion_value": result.criterion_value,
            "cost": result.cost,
            "objective_value": result.objective_value,
            "scaling": {
                k: (None if not np.isfinite(v) else v)
                for k, v in result.scaling.items()
            },
            "n_evaluated": result.n_evaluated,
            "n_feasible": result.n_feasible,
            "power": _power_payload(result.power),
            "seed": seed,
        },
        run_dir / "result.json",
    )
    _write_meta(run_dir, workers=workers)
    if result.status == "no-admissible-design":
        click.echo(
            "no design meets the power requirement; the reported design is "
            "the unconstrained criterion optimum", err=True,
        )
        sys.exit(EXIT_NO_ADMISSIBLE)


@main.command(name="ce-search")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path())
def ce_search(config_path, seed, out):
    """Cross-entropy stochastic search at fixed (m, C, T)."""
    cfg = load_config(config_path)
    vc = _build_vc(_section(cfg, "model"))
    space = _build_space(cfg)
    spec = _build_power(_section(cfg, "power"), space.D - 1)
    objective = _build_objective(_section(cfg, "objective"))
    blocks = list(space.blocks())
    if len(blocks) != 1:
        raise click.ClickException(
            "ce-search requires a single (m, C, T) combination in the space"
        )
    T, C, m = blocks[0]
    fields = {
        key: (_number if key in ("elite_fraction", "smoothing") else _int)(
            value, f"ce.{key}")
        for key, value in _section(cfg, "ce").items()
    }
    if seed is not None:
        fields["seed"] = seed
    try:
        params = CEParams(**fields)
    except (TypeError, ValueError) as exc:
        # TypeError: a key that is not a CEParams field.
        raise click.ClickException(f"ce: {exc}") from None
    result = cross_entropy_search(
        C, T, m, space.D, space.restrictions, vc, objective, spec, params
    )
    run_dir = _run_dir(out, config_path, "ce-search")
    stats = dict(evaluate_design(result.best, vc), power=result.power)
    for line in _report_lines(stats, None):
        click.echo(line)
    _stats_csv(stats, run_dir / "table.csv")
    write_design_csv(result.best.X, run_dir / "design.csv")
    _dump_json(cfg, run_dir / "config.json")
    _dump_json(
        {
            "status": result.status,
            "criterion": objective.criterion.name,
            "best": _design_payload(result.best),
            "criterion_value": result.criterion_value,
            "cost": result.cost,
            "n_evaluated": result.n_evaluated,
            "power": _power_payload(result.power),
            "seed": params.seed,
        },
        run_dir / "result.json",
    )
    _write_meta(run_dir)
    if result.status == "no-admissible-design":
        click.echo("no sampled design met the power requirement", err=True)
        sys.exit(EXIT_NO_ADMISSIBLE)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--design", "design_path", type=click.Path(exists=True),
              help="Fixed design for a variance-ratio map.")
@click.option("--workers", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path())
def sensitivity(config_path, design_path, workers, seed, out):
    """Optimal-design map over a (sigma2_c, sigma2_eps) grid."""
    cfg = load_config(config_path)
    workers = _workers_option(workers)
    space = _build_space(cfg)
    spec = _build_power(_section(cfg, "power"), space.D - 1)
    objective = _build_objective(_section(cfg, "objective"))
    g = _section(cfg, "sensitivity")

    def pair(key, default):
        value = g.get(key, default)
        if not isinstance(value, list) or len(value) != 2:
            raise click.ClickException(
                f"sensitivity.{key} must be a [low, high] pair, got {value!r}"
            )
        return tuple(_number(v, f"sensitivity.{key}[{i}]")
                     for i, v in enumerate(value))

    m = _section(cfg, "design").get("m")
    m = None if m is None else _int(m, "design.m")
    X = read_design_csv(design_path) if design_path else None
    try:
        grid = GridSpec(
            sigma2_c_range=pair("sigma2_c_range", [0.001, 0.25]),
            sigma2_eps_range=pair("sigma2_eps_range", [0.25, 4.0]),
            steps=_int(g.get("steps", 26), "sensitivity.steps"),
        )
        result = sensitivity_map(grid, space, objective, spec,
                                 workers=workers, seed=seed)
        if X is not None:
            ratios = variance_ratio_map(X, grid, space, objective, spec,
                                        m=m, sensitivity=result)
    except ValueError as exc:
        raise click.ClickException(f"sensitivity: {exc}") from None
    run_dir = _run_dir(out, config_path, "sensitivity")
    with open(run_dir / "grid.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sigma2_c,sigma2_eps,design_id,criterion_value\n")
        for i, sc2 in enumerate(result.sigma2_c_values):
            for j, se2 in enumerate(result.sigma2_eps_values):
                fh.write(
                    f"{float(sc2)!r},{float(se2)!r},"
                    f"{result.design_ids[i, j]},"
                    f"{float(result.criterion_values[i, j])!r}\n"
                )
    designs_payload = {
        did: _design_payload(d) for did, d in result.designs.items()
    }
    payload = {"designs": designs_payload, "seed": seed}
    if X is not None:
        with open(run_dir / "ratio.csv", "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("sigma2_c,sigma2_eps,variance_ratio\n")
            for i, sc2 in enumerate(result.sigma2_c_values):
                for j, se2 in enumerate(result.sigma2_eps_values):
                    fh.write(
                        f"{float(sc2)!r},{float(se2)!r},"
                        f"{float(ratios[i, j])!r}\n"
                    )
        payload["ratio_design"] = X.tolist()
    _dump_json(cfg, run_dir / "config.json")
    _dump_json(payload, run_dir / "result.json")
    _write_meta(run_dir, workers=workers)
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
    block = _section(cfg, "analytic")
    if "op" not in block:
        raise click.ClickException('config needs an "analytic" block with "op"')
    op = block["op"]

    def arg(key):
        return _required(block, key, "analytic")

    if op == "cluster-mean-correlation":
        value = analytic_mod.cluster_mean_correlation(
            arg("m"), arg("T"), arg("rho")
        )
    elif op == "rho-from-E":
        value = analytic_mod.rho_from_E(arg("m"), arg("T"), arg("E"))
    elif op == "sequence-count":
        value = analytic_mod.optimal_sequence_count(arg("E"))
    elif op == "li-proportions":
        res = analytic_mod.li_optimal_proportions(
            arg("m"), arg("T"), arg("rho0"), arg("rho1"), arg("rho2")
        )
        value = {
            "p": [float(v) for v in res.p],
            "psi": res.psi,
            "xi": res.xi,
            "gamma": res.gamma,
        }
    elif op == "empirical-proportions":
        if not design_path:
            raise click.ClickException(
                "empirical-proportions requires --design"
            )
        value = [
            float(v)
            for v in analytic_mod.empirical_proportions(
                read_design_csv(design_path)
            )
        ]
    elif op == "binary-residual-variance":
        value = analytic_mod.binary_residual_variance(arg("p_bar"))
    else:
        raise click.ClickException(f"unknown analytic op {op!r}")
    click.echo(json.dumps({"op": op, "value": value}, sort_keys=True))
    run_dir = _run_dir(out, config_path, "analytic")
    _dump_json(cfg, run_dir / "config.json")
    _dump_json({"op": op, "value": value}, run_dir / "result.json")
    _write_meta(run_dir)


if __name__ == "__main__":
    main()
