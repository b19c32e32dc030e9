"""Benchmark workloads: seeded inputs for rounds of swdesign CLI commands.

A round is a workload's fixed list of CLI commands.  Each workload builder
draws its parameters from the seed, within ranges calibrated so that the
workload keeps its defining property for every seed, writes the config and
CSV files, and returns the commands with the check that each one's output
must pass.  The program sees only those files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

#: The reference 3-arm design (C=6, T=6, m=8) that the test suite evaluates.
REFERENCE_X = [[0, 0, 0, 1, 1, 2], [0, 0, 0, 1, 1, 2], [0, 0, 1, 1, 2, 2],
               [0, 0, 1, 1, 2, 2], [0, 1, 1, 2, 2, 2], [0, 1, 1, 2, 2, 2]]

#: The heavily staggered two-arm design (C=10, T=6) of the variance-ratio map.
STAGGERED_X = [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1],
               [0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1],
               [0, 0, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1],
               [1, 1, 1, 1, 1, 1]]

RESTRICTIONS = ["monotone", "identifiable"]


@dataclass
class Command:
    """One CLI invocation of a round and the check of its run directory."""

    #: The subcommand, which also names its run directory.
    name: str
    #: Its arguments, without ``--out``.
    args: list[str]
    check: Callable[[Path], list[str]]


@dataclass
class Workload:
    commands: list[Command]
    #: Candidate allocation matrices in the round's configured inputs.
    candidates: int
    params: dict
    ranges: dict


def _draw(rng: random.Random, ranges: dict) -> dict:
    """One value per calibrated range: uniform floats, integers for seeds."""
    out = {}
    for key, (lo, hi) in ranges.items():
        out[key] = rng.randrange(lo, hi) if isinstance(lo, int) else rng.uniform(lo, hi)
    return out


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return str(path)


def _write_csv(path: Path, X) -> str:
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in X))
    return str(path)


def _power(p: dict, delta, power_type: str) -> dict:
    return {"alpha": 0.05, "correction": "bonferroni", "beta": 0.2,
            "delta": [d * p["delta_scale"] for d in delta],
            "power_type": power_type}


# search-budgeted: the batched kernel (the self time of search._scan_chunk)
# takes over 90% of the command body and many m values share each (C, T),
# so a faster kernel and sharing work across m show here while inference
# does almost nothing.  Ranges keep the
# individual-power requirement satisfiable by some design for every seed.
SEARCH_BUDGETED_RANGES = {"rho": (0.02, 0.06), "delta_scale": (0.97, 1.10),
                          "qmc_seed": (0, 2**31)}


def search_budgeted(rng: random.Random, inputs: Path) -> Workload:
    p = _draw(rng, SEARCH_BUDGETED_RANGES)
    cfg = {"schema_version": 1, "model": {"rho": p["rho"]},
           "space": {"D": 3, "T": [2, 3, 4, 5], "C": [2, 3, 4, 5],
                     "m": {"min": 2, "budget": 24},
                     "restrictions": RESTRICTIONS},
           "power": _power(p, [1.5, 0.75], "individual"),
           "objective": {"w": 0.5, "criterion": "E"}}
    path = _write(inputs / "search-budgeted.json", cfg)
    cmd = Command("search",
                  ["--config", path, "--seed", str(p["qmc_seed"])],
                  lambda out: oracle.check_search(out, cfg))
    return Workload([cmd], oracle.search_candidates(cfg["space"]), p,
                    SEARCH_BUDGETED_RANGES)


# sensitivity: 25 grid points times two maps make 50 small exhaustive
# searches of the 8,008-candidate two-arm space, so per-search fixed costs,
# repeated enumeration, contribution-cache misses and the ratio map's repeat
# of every search dominate.  The grid keeps 5 x 5 points for every seed;
# the seed moves only its ranges.
SENSITIVITY_RANGES = {"sigma2_c_lo": (0.001, 0.01), "sigma2_c_hi": (0.2, 0.3),
                      "sigma2_eps_lo": (0.2, 0.3), "sigma2_eps_hi": (3.5, 4.5)}
SENSITIVITY_STEPS = 5


def sensitivity(rng: random.Random, inputs: Path) -> Workload:
    p = _draw(rng, SENSITIVITY_RANGES)
    cfg = {"schema_version": 1, "model": {"rho": 0.05}, "design": {"m": 10},
           "space": {"D": 2, "T": [6], "C": [10], "m": [10],
                     "restrictions": RESTRICTIONS},
           "objective": {"w": 0.0, "criterion": "E"},
           "sensitivity": {
               "sigma2_c_range": [p["sigma2_c_lo"], p["sigma2_c_hi"]],
               "sigma2_eps_range": [p["sigma2_eps_lo"], p["sigma2_eps_hi"]],
               "steps": SENSITIVITY_STEPS}}
    path = _write(inputs / "sensitivity.json", cfg)
    design = _write_csv(inputs / "staggered.csv", STAGGERED_X)
    cmd = Command("sensitivity",
                  ["--config", path, "--design", design],
                  lambda out: oracle.check_sensitivity(out, cfg, STAGGERED_X))
    space_size = oracle.search_candidates(cfg["space"])
    return Workload([cmd], SENSITIVITY_STEPS**2 * space_size, p,
                    SENSITIVITY_RANGES)


# combined-power: no candidate of this block meets the individual-power
# requirement, so every identifiable one (144 of 220) needs the orthant
# integral, which does over 90% of the work while the kernel does almost
# none.  Candidates fall above max P_f, below sum P_f and between the two,
# so a bounding pre-filter has something to decide.  Over the ranges the
# integral count stays 144 and a combined-power-feasible design exists.
COMBINED_POWER_RANGES = {"rho": (0.02, 0.10), "delta_scale": (0.95, 1.05),
                         "qmc_seed": (0, 2**31)}


def combined_power(rng: random.Random, inputs: Path) -> Workload:
    p = _draw(rng, COMBINED_POWER_RANGES)
    cfg = {"schema_version": 1, "model": {"rho": p["rho"]},
           "space": {"D": 3, "T": [3], "C": [3], "m": [4],
                     "restrictions": RESTRICTIONS},
           "power": _power(p, [1.5, 0.75], "combined"),
           "objective": {"w": 0.0, "criterion": "E"}}
    path = _write(inputs / "combined-power.json", cfg)
    cmd = Command("search",
                  ["--config", path, "--seed", str(p["qmc_seed"])],
                  lambda out: oracle.check_search(out, cfg))
    return Workload([cmd], oracle.search_candidates(cfg["space"]), p,
                    COMBINED_POWER_RANGES)


# interactive: three short commands where import (most of it scipy.stats)
# and run-directory I/O dominate; without this workload the CLI layer and
# the cross-entropy path would go unmeasured.  The cross-entropy search
# always runs its full 30 iterations (stall limit = iteration limit), so its
# work does not depend on the seed.
INTERACTIVE_RANGES = {"rho": (0.02, 0.08), "delta_scale": (0.95, 1.05),
                      "qmc_seed": (0, 2**31), "ce_seed": (0, 2**31),
                      "rho0": (0.03, 0.08), "rho1": (0.0005, 0.002),
                      "rho2": (0.15, 0.35)}
CE = {"population_size": 1000, "max_iterations": 30, "stall_limit": 30}


def interactive(rng: random.Random, inputs: Path) -> Workload:
    p = _draw(rng, INTERACTIVE_RANGES)
    model = {"rho": p["rho"]}
    ev = {"schema_version": 1, "model": model, "design": {"m": 8},
          "space": {"D": 3}, "power": _power(p, [1.5, 0.75], "combined")}
    ce = {"schema_version": 1, "model": model,
          "space": {"D": 4, "T": [8], "C": [6], "m": [8],
                    "restrictions": RESTRICTIONS},
          "power": _power(p, [1.5, 1.0, 0.75], "individual"),
          "objective": {"w": 0.0, "criterion": "A"},
          "ce": dict(CE, seed=p["ce_seed"])}
    an = {"schema_version": 1,
          "analytic": {"op": "li-proportions", "m": 10, "T": 6,
                       "rho0": p["rho0"], "rho1": p["rho1"], "rho2": p["rho2"]}}
    ref = _write_csv(inputs / "reference.csv", REFERENCE_X)
    commands = [
        Command("evaluate",
                ["--config", _write(inputs / "evaluate.json", ev),
                 "--design", ref, "--seed", str(p["qmc_seed"])],
                lambda out: oracle.check_evaluate(out, ev, REFERENCE_X)),
        Command("ce-search",
                ["--config", _write(inputs / "ce.json", ce)],
                lambda out: oracle.check_ce(out, ce)),
        Command("analytic",
                ["--config", _write(inputs / "analytic.json", an)],
                lambda out: oracle.check_analytic(out, an)),
    ]
    # The ce-search space (6 rows from 165 monotone 4-arm sequences of
    # length 8) plus the one evaluated design.
    n_seq = math.comb(8 + 3, 3)
    return Workload(commands, math.comb(n_seq + 5, 6) + 1, p,
                    INTERACTIVE_RANGES)


WORKLOADS = {
    "search-budgeted": search_budgeted,
    "sensitivity": sensitivity,
    "combined-power": combined_power,
    "interactive": interactive,
}
