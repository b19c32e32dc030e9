"""Fuzzed configs: every command ends in a result or in one ``Error:`` line.

Valid configs for the five commands have their fields mutated, one or two
at a time: deleted, or replaced by a value of the wrong type, a huge or
negative integer, NaN or an infinity.  Each mutated config runs in process
through click's ``CliRunner``.  The space, ``candidate_cap`` and the
cross-entropy sizes are tiny so that no example starts a long run.  The
integers drawn are small or beyond 64 bits: a size that fits 64 bits but
not the machine (a ``space.m.budget`` of 1e12, say) can still run for
hours, and is not drawn.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swdesign.cli import main, write_design_csv

from conftest import X

#: One config that every command accepts: three arms, T = 3, C = 3, m = 2.
BASE = {
    "schema_version": 1,
    "model": {"rho": 0.05, "sigma2": 1.0},
    "space": {"D": 3, "T": [3], "C": [3], "m": [2],
              "restrictions": ["monotone",
                               {"allowed_sequences": [[0, 0, 1], [0, 1, 2],
                                                      [0, 2, 2], [1, 1, 2],
                                                      [0, 0, 0]],
                                "label": "fuzz"}]},
    "power": {"alpha": 0.05, "correction": "bonferroni", "beta": 0.2,
              "delta": [4.0, 4.0], "power_type": "combined"},
    "objective": {"w": 0.0, "criterion": "A"},
    "design": {"m": 2},
    "compare": {"m": 3},
    "ce": {"population_size": 20, "elite_fraction": 0.2, "smoothing": 0.7,
           "max_iterations": 2, "stall_limit": 2, "seed": 1},
    "sensitivity": {"sigma2_c_range": [0.01, 0.2],
                    "sigma2_eps_range": [0.5, 2.0], "steps": 2},
    "analytic": {"op": "cluster-mean-correlation", "m": 4, "T": 3,
                 "rho": 0.05},
    "candidate_cap": 500,
}

COMMANDS = ("evaluate", "search", "ce-search", "sensitivity", "analytic")

#: Replacement values: wrong types, huge, negative and small integers (one
#: beyond every float), NaN and the infinities, which JSON parsing accepts.
VALUES = ("x", None, True, [], {}, [1, "a"], 0, 1, -3, 10**30, -10**30,
          2**63, 10**400, math.nan, math.inf, -math.inf, 0.5, -1.5)


def _paths(node, prefix=()):
    """Every key and list index path into ``node``, outer ones first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = tuple(p for p in _paths(BASE) if p != ("schema_version",))

#: A mutation: a path and a value, or ``...`` to delete the key.
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(PATHS), st.sampled_from((..., *VALUES))),
    min_size=1, max_size=2,
)


def _mutated(mutations) -> dict:
    cfg = copy.deepcopy(BASE)
    for path, value in mutations:
        parent = cfg
        for key in path[:-1]:
            try:
                parent = parent[key]
            except (KeyError, IndexError, TypeError):
                break  # an earlier mutation removed the path
        else:
            try:
                if value is ...:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                pass
    return cfg


def test_mutations_reach_every_block():
    assert {p[0] for p in PATHS} == set(BASE) - {"schema_version"}
    assert ("space", "restrictions", 1, "allowed_sequences", 0, 2) in PATHS
    cfg = _mutated([(("space", "T", 0), -3), (("ce", "seed"), ...)])
    assert cfg["space"]["T"] == [-3] and "seed" not in cfg["ce"]
    assert BASE["space"]["T"] == [3] and "seed" in BASE["ce"]


@given(command=st.sampled_from(COMMANDS), mutations=MUTATIONS)
# A range bound beyond 64 bits once reached numpy as an object array.
@example("sensitivity", [(("sensitivity", "sigma2_c_range", 0), -10**30)])
@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
def test_mutated_config_ends_cleanly(command, mutations):
    cfg = _mutated(mutations)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        args = [command, "--config", str(path), "--out", str(tmp / "run")]
        if command == "evaluate":
            write_design_csv(X("001", "012", "022"), tmp / "design.csv")
            args += ["--design", str(tmp / "design.csv")]
        result = CliRunner().invoke(main, args)
    if result.exit_code in (0, 3):
        return
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error: ")]
    assert (result.exit_code == 1 and isinstance(result.exception, SystemExit)
            and len(errors) == 1 and "Traceback" not in result.output), (
        command, mutations, result.output, repr(result.exception))
