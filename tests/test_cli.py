"""Command-line interface tests."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import swdesign
from swdesign.cli import main, read_design_csv, write_design_csv

from conftest import REFERENCE_X, X


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def reference_config(tmp_path, **extra):
    cfg = {
        "schema_version": 1,
        "model": {"rho": 0.05, "sigma2": 1.0},
        "space": {"D": 3, "T": 6, "C": 6, "m": 8},
        "design": {"m": 8},
        "power": {
            "alpha": 0.05,
            "correction": "bonferroni",
            "beta": 0.12,
            "delta": [1.5, 0.75],
        },
    }
    cfg.update(extra)
    return write_json(tmp_path / "config.json", cfg)


def empty_space_config(tmp_path):
    """No monotone length-2 sequence gives every one of three arms."""
    return write_json(tmp_path / "empty.json", {
        "schema_version": 1,
        "model": {"rho": 0.05},
        "space": {"D": 3, "T": [2], "C": [3], "m": [4],
                  "restrictions": ["monotone", "all-interventions"]},
        "sensitivity": {"steps": 2},
    })


def assert_one_error(result, exit_code: int, text: str) -> None:
    """The command ends in exactly one ``Error:`` line holding ``text``."""
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error: ")]
    assert len(errors) == 1 and text in errors[0], result.output
    assert "Traceback" not in result.output


@pytest.fixture
def reference_csv(tmp_path):
    path = tmp_path / "design.csv"
    write_design_csv(REFERENCE_X, path)
    return str(path)


class TestDesignCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        write_design_csv(REFERENCE_X, path)
        np.testing.assert_array_equal(read_design_csv(path), REFERENCE_X)
        assert path.read_bytes().endswith(b"\n")
        assert b"\r" not in path.read_bytes()

    def test_parse_error_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1\n0,x,1\n", encoding="utf-8")
        with pytest.raises(Exception) as exc:
            read_design_csv(path)
        assert "line 2" in str(exc.value)
        assert "column 2" in str(exc.value)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,0,1\n0,1\n", encoding="utf-8")
        with pytest.raises(Exception, match="differing lengths"):
            read_design_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(Exception, match="no rows"):
            read_design_csv(path)


class TestConfig:
    def test_bad_schema_version(self, runner, tmp_path, reference_csv):
        cfg = write_json(
            tmp_path / "bad.json", {"schema_version": 99, "space": {}}
        )
        result = runner.invoke(
            main, ["evaluate", "--config", cfg, "--design", reference_csv]
        )
        assert result.exit_code != 0
        assert "schema_version" in result.output

    def test_invalid_json(self, runner, tmp_path, reference_csv):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        result = runner.invoke(
            main,
            ["evaluate", "--config", str(path), "--design", reference_csv],
        )
        assert result.exit_code != 0
        assert "invalid JSON" in result.output


class TestConfigErrors:
    """Bad configs end in one ``Error:`` line naming the field."""

    def run_search(self, runner, tmp_path, edit):
        cfg = {
            "schema_version": 1,
            "model": {"rho": 0.05},
            "space": {
                "D": 3, "T": 3, "C": 3, "m": 2,
                "restrictions": ["monotone", "identifiable"],
            },
            "objective": {"w": 0.0, "criterion": "E"},
            "power": {"alpha": 0.05, "beta": 0.2, "delta": [1.5, 0.75]},
        }
        edit(cfg)
        path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(
            main, ["search", "--config", path, "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        return lines[0]

    @pytest.mark.parametrize("key", ["objectve", "Power", "seed", "workers"])
    def test_unknown_top_level_key(self, runner, tmp_path, key):
        line = self.run_search(runner, tmp_path, lambda c: c.update({key: 1}))
        assert line.endswith(f"unknown top-level key {key!r}")

    def test_every_unknown_key_named(self, runner, tmp_path):
        line = self.run_search(
            runner, tmp_path, lambda c: c.update(spaec={}, modle={})
        )
        assert line.endswith("unknown top-level key 'modle', 'spaec'")

    def test_every_known_key_accepted(self, runner, tmp_path):
        cfg = {
            "schema_version": 1, "model": {"rho": 0.05},
            "space": {"D": 2, "T": 3, "C": 2, "m": 2},
            "power": {"alpha": 0.05, "beta": 1.0, "delta": []},
            "objective": {"w": 0.0, "criterion": "E"}, "design": {"m": 2},
            "compare": {"m": 2}, "ce": {"seed": 1},
            "sensitivity": {"steps": 2}, "analytic": {"op": "sequence-count"},
            "candidate_cap": 1000,
        }
        assert set(cfg) == swdesign.cli.CONFIG_KEYS
        path = write_json(tmp_path / "all.json", cfg)
        result = runner.invoke(
            main, ["search", "--config", path, "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "command", ["evaluate", "search", "ce-search", "sensitivity",
                    "analytic"],
    )
    def test_unknown_key_rejected_by_every_command(
        self, runner, tmp_path, reference_csv, command
    ):
        path = reference_config(tmp_path, objectve={"w": 0.5})
        args = [command, "--config", path, "--out", str(tmp_path / "r")]
        if command == "evaluate":
            args += ["--design", reference_csv]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.strip() == (
            f"Error: {path}: unknown top-level key 'objectve'"
        )

    @pytest.mark.parametrize(
        "block,key",
        [("model", "rh0"), ("space", "restriction"), ("power", "power_typ"),
         ("objective", "wt"), ("design", "M"), ("compare", "n"),
         ("sensitivity", "step"), ("analytic", "rho_0")],
    )
    def test_unknown_block_key(self, runner, tmp_path, block, key):
        line = self.run_search(
            runner, tmp_path, lambda c: c.setdefault(block, {}).update(
                {key: 1}
            )
        )
        assert line.endswith(f"unknown key '{block}.{key}'")

    @pytest.mark.parametrize(
        "command", ["evaluate", "search", "ce-search", "sensitivity",
                    "analytic"],
    )
    def test_unknown_block_key_rejected_by_every_command(
        self, runner, tmp_path, reference_csv, command
    ):
        path = reference_config(
            tmp_path, power={"beta": 0.2, "delta": [1.5, 0.75],
                             "power_typ": "combined"},
            model={"rho": 0.05, "rh0": 0.1},
        )
        args = [command, "--config", path, "--out", str(tmp_path / "r")]
        if command == "evaluate":
            args += ["--design", reference_csv]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.strip() == "Error: unknown key 'model.rh0'"

    @pytest.mark.parametrize(
        "edit,expected",
        [
            (lambda s: s.update(m={"min": 2, "budget": 9, "mn": 3}),
             "unknown key 'space.m.mn'"),
            (lambda s: s["restrictions"].append(
                {"allowed_sequences": [[0, 0, 1]], "lable": "x"}),
             "unknown key 'space.restrictions[2].lable'"),
            (lambda s: s.update(T=[3], C={"3": [3], "4": [9]}),
             "space.C.4: T = 4 is not in space.T"),
        ],
        ids=["m-budget", "whitelist", "C-map-T"],
    )
    def test_unknown_nested_key(self, runner, tmp_path, edit, expected):
        line = self.run_search(runner, tmp_path, lambda c: edit(c["space"]))
        assert line == f"Error: {expected}"

    def test_unknown_ce_key_names_its_path(self, runner, tmp_path):
        cfg = write_json(tmp_path / "ce.json", {
            "schema_version": 1, "model": {"rho": 0.05},
            "space": {"D": 2, "T": 3, "C": 3, "m": 2},
            "ce": {"population_size": 20, "elite_frac": 0.2},
        })
        result = runner.invoke(
            main, ["ce-search", "--config", cfg, "--out", str(tmp_path / "r")]
        )
        assert result.exit_code == 1
        assert result.output.strip() == (
            "Error: unknown key 'ce.elite_frac': unexpected keyword "
            "argument 'elite_frac' of CEParams"
        )

    def test_scalar_delta_is_one_entry(self, runner, tmp_path):
        def run(delta):
            path = reference_config(
                tmp_path, space={"D": 2, "T": 3, "C": 3, "m": 4},
                power={"beta": 0.2, "delta": delta},
            )
            out = tmp_path / f"r{delta!r}"
            result = runner.invoke(
                main, ["search", "--config", path, "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            return (out / "result.json").read_bytes()

        assert run(1.5) == run([1.5])

    @pytest.mark.parametrize(
        "edit,expected",
        [
            (lambda c: c["power"].update(delta=[[1], [2]]),
             "power.delta[0] must be a number, got [1]"),
            (lambda c: c["power"].update(delta="1.5"),
             "power.delta must be a number, got '1.5'"),
            (lambda c: c["power"].update(delta=[float("nan"), 1]),
             "power.delta[0] must be a finite number, got nan"),
            (lambda c: c["model"].update(sigma2=float("inf")),
             "model.sigma2 must be a finite number, got inf"),
            (lambda c: c["objective"].update(w=float("nan")),
             "objective.w must be a finite number, got nan"),
            (lambda c: c["power"].update(alpha=float("-inf")),
             "power.alpha must be a finite number, got -inf"),
        ],
        ids=["delta-nested", "delta-scalar", "delta-nan", "sigma2-inf",
             "w-nan", "alpha-minus-inf"],
    )
    def test_bad_number(self, runner, tmp_path, edit, expected):
        assert self.run_search(runner, tmp_path, edit) == f"Error: {expected}"

    def test_missing_space_C(self, runner, tmp_path):
        line = self.run_search(
            runner, tmp_path, lambda cfg: cfg["space"].pop("C")
        )
        assert "space.C is required" in line

    def test_rho_one_leaves_no_residual_variance(self, runner, tmp_path):
        line = self.run_search(
            runner, tmp_path, lambda cfg: cfg["model"].update(rho=1)
        )
        assert "model.rho" in line and "residual variance" in line

    def test_unknown_restriction(self, runner, tmp_path):
        line = self.run_search(
            runner, tmp_path,
            lambda cfg: cfg["space"]["restrictions"].append("monotonic"),
        )
        assert "space.restrictions[2]" in line and "'monotonic'" in line

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("space.D", lambda s: s.update(D="three")),
            ("space.T[1]", lambda s: s.update(T=[3, "4"])),
            ("space.C", lambda s: s.update(C="six")),
            ("space.m", lambda s: s.update(m=2.5)),
            ("space.m.min", lambda s: s.update(m={"min": "2", "budget": 9})),
            ("space.m.budget", lambda s: s.update(m={"budget": 9.0})),
            # JSON true is a Python int; it is still not a count.
            ("space.C[1]", lambda s: s.update(C=[3, True])),
        ],
        ids=["D", "T-entry", "C", "m", "m.min", "m.budget", "C-bool"],
    )
    def test_wrongly_typed_space_field(self, runner, tmp_path, field, edit):
        line = self.run_search(
            runner, tmp_path, lambda cfg: edit(cfg["space"])
        )
        assert f"{field} must be an integer" in line

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("model.rho", lambda cfg: cfg["model"].update(rho="x")),
            ("objective.w", lambda cfg: cfg["objective"].update(w="half")),
            ("power.beta", lambda cfg: cfg["power"].update(beta="0.2")),
            ("power.alpha", lambda cfg: cfg["power"].update(alpha="x")),
        ],
        ids=["rho", "w", "beta", "alpha"],
    )
    def test_wrongly_typed_number(self, runner, tmp_path, field, edit):
        line = self.run_search(runner, tmp_path, edit)
        assert f"{field} must be a number" in line

    def test_wrongly_typed_sensitivity_steps(self, runner, tmp_path):
        cfg = write_json(tmp_path / "sens.json", {
            "schema_version": 1,
            "space": {"D": 2, "T": 3, "C": 2, "m": 2},
            "sensitivity": {"steps": "5"},
        })
        result = runner.invoke(
            main, ["sensitivity", "--config", cfg, "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "Error: sensitivity.steps must be an integer, got '5'"
        ]

    @pytest.mark.parametrize(
        "command,edit,rows,expected",
        [
            ("ce-search", lambda c: c["ce"].update(population_size="x"),
             None, "ce.population_size must be an integer, got 'x'"),
            ("ce-search", lambda c: c["ce"].update(population_size=0),
             None, "ce: population_size must be positive"),
            ("ce-search", lambda c: c["ce"].update(elite_fraction=2),
             None, "ce: elite_fraction must lie in (0, 1)"),
            ("ce-search", lambda c: c["ce"].update(population=20),
             None, "unexpected keyword argument 'population'"),
            ("search", lambda c: c["objective"].update(criterion=3),
             None, "objective: unknown criterion 3"),
            ("search", lambda c: c.update(candidate_cap="x"),
             None, "candidate_cap must be an integer, got 'x'"),
            ("sensitivity", lambda c: c["sensitivity"].update(
                sigma2_c_range=5),
             None, "sensitivity.sigma2_c_range must be a [low, high] pair"),
            ("sensitivity", lambda c: c["sensitivity"].update(steps=-1),
             None, "sensitivity: steps must be >= 1, got -1"),
            ("sensitivity", lambda c: c["sensitivity"].update(steps=0),
             None, "sensitivity: steps must be >= 1, got 0"),
            ("evaluate", lambda c: c["design"].update(m="x"),
             ("001", "011", "111"), "design.m must be an integer, got 'x'"),
            ("evaluate", lambda c: c["design"].update(m=1),
             ("001", "011", "111"), "design: m must be >= 2, got 1"),
            ("evaluate", lambda c: c.update(compare={"m": "x"}),
             ("001", "011", "111"), "compare.m must be an integer, got 'x'"),
            ("evaluate", lambda c: None,
             ("012", "002", "011"), "design: X entries must lie in [0, 1]"),
            ("search", lambda c: c.update(space=[1, 2]),
             None, "space must be an object, got [1, 2]"),
            ("search", lambda c: c.update(model=[1]),
             None, "model must be an object, got [1]"),
            ("search", lambda c: c["space"]["restrictions"].append(
                {"allowed_sequences": [[0, 0, 1], [0, "a", 1]]}),
             None, "space.restrictions[2].allowed_sequences[1][1] must be an "
             "integer, got 'a'"),
            ("sensitivity", lambda c: c.pop("design"),
             ("0011", "0111"), "sensitivity: the design's (C, T) = (2, 4) is "
             "not in the space"),
            ("search", lambda c: c["space"].update(restrictions="monotone"),
             None, "space.restrictions must be a list, got 'monotone'"),
            ("search", lambda c: c["space"]["restrictions"].append(
                {"allowed_sequences": 5}),
             None, "space.restrictions[2].allowed_sequences must be a list, "
             "got 5"),
        ],
        ids=["ce-population-type", "ce-population-zero", "ce-elite",
             "ce-unknown-key", "criterion", "candidate-cap", "sigma2-range",
             "steps-negative",
             "steps-zero", "design-m-type", "design-m-small", "compare-m",
             "labels-above-D", "space-list", "model-list", "whitelist-label",
             "ratio-design-outside-space", "restrictions-string",
             "whitelist-not-list"],
    )
    def test_one_line_error(self, runner, tmp_path, command, edit, rows,
                            expected):
        cfg = {
            "schema_version": 1,
            "model": {"rho": 0.05},
            "space": {
                "D": 2, "T": 3, "C": 3, "m": 2,
                "restrictions": ["monotone", "identifiable"],
            },
            "objective": {"w": 0.0, "criterion": "E"},
            "design": {"m": 2},
            "sensitivity": {"steps": 2},
            "ce": {"population_size": 20, "max_iterations": 2},
        }
        edit(cfg)
        args = [command, "--config", write_json(tmp_path / "cfg.json", cfg),
                "--out", str(tmp_path / "r")]
        if rows is not None:
            write_design_csv(X(*rows), tmp_path / "d.csv")
            args += ["--design", str(tmp_path / "d.csv")]
            if command == "evaluate":
                args += ["--compare", str(tmp_path / "d.csv")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        assert expected in lines[0]

    @pytest.mark.parametrize(
        "command,block,key,value,field",
        [
            ("search", "space", "D", 10**30, "space.D"),
            ("search", "space", "T", [10**30], "space.T[0]"),
            ("search", "space", "m", {"min": 2, "budget": 10**30},
             "space.m.budget"),
            ("ce-search", "space", "D", 10**30, "space.D"),
            ("ce-search", "space", "C", [10**12], "space.C"),
            ("ce-search", "ce", "population_size", 10**30,
             "ce.population_size"),
            ("ce-search", "ce", "population_size", 10**12,
             "ce.population_size"),
            ("sensitivity", "space", "T", 10**30, "space.T"),
        ],
        ids=["search-D", "search-T", "search-budget", "ce-D", "ce-C",
             "ce-population-overflow", "ce-population-memory",
             "sensitivity-T"],
    )
    def test_huge_integer_is_one_line_error(self, runner, tmp_path, command,
                                            block, key, value, field):
        # Each ended in OverflowError, MemoryError or numpy's "Maximum
        # allowed dimension exceeded"; the memory cases ask for terabytes,
        # which the allocator refuses at once.
        cfg = {
            "schema_version": 1,
            "model": {"rho": 0.05},
            "space": {"D": 2, "T": 3, "C": 3, "m": 2,
                      "restrictions": ["monotone", "identifiable"]},
            "ce": {"population_size": 20, "max_iterations": 2},
            "sensitivity": {"steps": 2},
        }
        cfg[block][key] = value
        result = runner.invoke(main, [
            command, "--config", write_json(tmp_path / "cfg.json", cfg),
            "--out", str(tmp_path / "r"),
        ])
        assert_one_error(result, 1, field)

    @pytest.mark.parametrize(
        "model,keys",
        [
            ({"rho": 0.05, "sigma2_c": 0.9}, "'rho', 'sigma2_c'"),
            ({"rho": 0.05, "rho0": 0.05, "rho1": 0.05, "rho2": 0.05},
             "'rho', 'rho0', 'rho1', 'rho2'"),
            ({"sigma2": 2.0, "sigma2_c": 0.1, "sigma2_eps": 0.9},
             "'sigma2', 'sigma2_c', 'sigma2_eps'"),
            ({"rho0": 0.05, "rho1": 0.01}, "'rho0', 'rho1'"),
            ({"sigma2": 2.0}, "'sigma2'"),
        ],
        ids=["rho-raw", "rho-correlations", "sigma2-raw", "rho2-missing",
             "sigma2-alone"],
    )
    def test_model_mixing_parameterisations(self, runner, tmp_path, model,
                                            keys):
        line = self.run_search(
            runner, tmp_path, lambda cfg: cfg.update(model=model)
        )
        assert line.startswith(f"Error: model keys {keys} do not make one "
                               "parameterisation: give rho or all of ")

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_evaluate_m_option_below_two(self, runner, tmp_path,
                                         reference_csv, m):
        result = runner.invoke(
            main, ["evaluate", "--config", reference_config(tmp_path),
                   "--design", reference_csv, "--m", m,
                   "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            f"Error: design: m must be >= 2, got {m}"
        ]

    def test_space_value_out_of_range(self, runner, tmp_path):
        line = self.run_search(
            runner, tmp_path, lambda cfg: cfg["space"].update(C=[1, 3])
        )
        assert "space: all C must be >= 2" in line

    def test_delta_length_differs_from_q(self, runner, tmp_path):
        line = self.run_search(
            runner, tmp_path, lambda cfg: cfg["power"].update(delta=[1.5])
        )
        assert "power.delta has 1 entries" in line and "needs 2" in line

    def test_evaluate_delta_length_differs_from_q(self, runner, tmp_path,
                                                   reference_csv):
        power = {"alpha": 0.05, "beta": 0.2, "delta": [1.5]}
        cfg = reference_config(tmp_path, power=power)
        result = runner.invoke(
            main, ["evaluate", "--config", cfg, "--design", reference_csv,
                   "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 1
        assert "Error: power.delta has 1 entries" in result.output

    @pytest.mark.parametrize("below", [False, True],
                             ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize(
        "command", ["evaluate", "search", "ce-search", "sensitivity",
                    "analytic"],
    )
    def test_out_naming_a_file_is_one_error(self, runner, tmp_path, command,
                                            below):
        cfg = write_json(tmp_path / "small.json", {
            "schema_version": 1, "model": {"rho": 0.05},
            "space": {"D": 2, "T": 3, "C": 2, "m": 2}, "design": {"m": 2},
            "ce": {"population_size": 20, "max_iterations": 2},
            "sensitivity": {"steps": 2},
            "analytic": {"op": "sequence-count", "E": 0.5},
        })
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken
        args = [command, "--config", cfg, "--out", str(out)]
        if command == "evaluate":
            write_design_csv([[0, 0, 1], [0, 1, 1]], tmp_path / "two.csv")
            args += ["--design", str(tmp_path / "two.csv")]
        result = runner.invoke(main, args)
        assert_one_error(result, 1,
                         f"--out: cannot create the run directory {out}")
        # No report or value is printed before the run directory exists.
        assert len(result.output.splitlines()) == 1


def test_readme_config_section_matches_schema():
    # The README's "Command line" section names every config key, and each
    # key of its JSON example is one the config table accepts.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    section = section.split("\n## ")[0]
    schema = swdesign.cli.SCHEMA

    def walk(obj, path):
        for key, value in obj.items():
            assert key in schema[path], f"{path}.{key}".lstrip(".")
            inner = f"{path}.{key}".lstrip(".")
            if isinstance(value, dict) and inner in schema:
                walk(value, inner)

    walk(json.loads(section.split("```json")[1].split("```")[0]), "")
    named = set(re.findall(r"\w+", section))
    assert {key for keys in schema.values() for key in keys} <= named


def cold_env(**overrides):
    """This environment with ``src`` on the path; None unsets a variable."""
    src = str(Path(swdesign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def run_cold(args, heavy_prefixes, prelude="", **env):
    """Run the CLI in a fresh interpreter.

    ``prelude`` runs between ``import swdesign.cli`` and the command, and
    ``env`` changes the environment as :func:`cold_env` does.  Returns its
    stdout, whose last line gives ``OPENBLAS_NUM_THREADS`` as the command
    left it, and the loaded modules under ``heavy_prefixes``, listed once
    after ``import swdesign.cli`` and once after the command.
    """
    script = (
        "import json, os, sys\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules\n"
        f"                  if m.startswith({heavy_prefixes!r}))\n"
        "from swdesign.cli import main\n"
        "after_import = heavy()\n"
        f"{prelude}\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    if exc.code:\n"
        "        raise\n"
        "print('OPENBLAS_NUM_THREADS', os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print(json.dumps([after_import, heavy()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=cold_env(**env), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_cold_start_imports_neither_scipy_nor_multiprocessing(
    tmp_path, reference_csv
):
    power = {"alpha": 0.05, "beta": 0.2, "delta": [1.5, 0.75],
             "power_type": "combined"}
    cfg = reference_config(tmp_path, power=power)
    out, modules = run_cold(
        ["evaluate", "--config", cfg, "--design", reference_csv,
         "--out", str(tmp_path / "run")],
        ("scipy", "multiprocessing"),
    )
    assert modules == [[], []]
    assert any(line.startswith("P(reject any H0)") for line in out)


#: The package modules that need numpy; only ``analytic`` does not.
COMPUTE_MODULES = tuple(f"swdesign.{name}" for name in (
    "model", "inference", "search", "designspace"))


@pytest.mark.parametrize("command", ["search", "evaluate"])
def test_cold_compute_commands_load_no_statistics(tmp_path, reference_csv,
                                                  command):
    # Critical values come from the package's AS241 quantile; the standard
    # library's statistics.NormalDist would load fractions and decimal too.
    if command == "search":
        # The combined-power benchmark block: every candidate's power.
        cfg = reference_config(
            tmp_path, space={"D": 3, "T": [3], "C": [3], "m": [4],
                             "restrictions": ["monotone", "identifiable"]},
            power={"alpha": 0.05, "correction": "bonferroni", "beta": 0.2,
                   "delta": [1.5, 0.75], "power_type": "combined"},
            objective={"w": 0.0, "criterion": "E"},
        )
        args = ["search", "--config", cfg]
    else:
        args = ["evaluate", "--config", reference_config(tmp_path),
                "--design", reference_csv]
    out, modules = run_cold(args + ["--out", str(tmp_path / "run")],
                            ("statistics", "fractions", "decimal"))
    assert modules == [[], []]
    assert any(line.startswith("max diag(Lambda_q)") for line in out)


def test_cold_analytic_loads_neither_numpy_nor_the_compute_modules(tmp_path):
    cfg = write_json(tmp_path / "an.json", {
        "schema_version": 1,
        "analytic": {"op": "li-proportions", "m": 10, "T": 6,
                     "rho0": 0.05, "rho1": 0.001, "rho2": 0.25}})
    out, modules = run_cold(
        ["analytic", "--config", cfg, "--out", str(tmp_path / "run")],
        ("numpy",) + COMPUTE_MODULES,
    )
    assert modules == [[], []]
    want = swdesign.li_optimal_proportions(10, 6, 0.05, 0.001, 0.25)
    assert json.loads(out[0])["value"]["p"] == list(want.p)


def test_bare_cli_import_loads_no_numpy():
    out, modules = run_cold(["--help"], ("numpy",) + COMPUTE_MODULES)
    assert modules == [[], []]
    assert any("analytic" in line for line in out)


@pytest.mark.parametrize("given,seen", [(None, "1"), ("2", "2")])
def test_cold_evaluate_runs_one_openblas_thread_by_default(
    tmp_path, reference_csv, given, seen
):
    # The caller's value wins; the CLI only fills it in.
    cfg = reference_config(tmp_path)
    out, modules = run_cold(
        ["evaluate", "--config", cfg, "--design", reference_csv,
         "--out", str(tmp_path / "run")],
        ("numpy",), OPENBLAS_NUM_THREADS=given,
    )
    assert modules[1] and out[-1] == f"OPENBLAS_NUM_THREADS {seen}"


def test_package_and_model_imports_leave_the_environment_alone():
    script = ("import os\nbefore = dict(os.environ)\n"
              "import swdesign, swdesign.model\n"
              "print(dict(os.environ) == before, 'numpy' in os.sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=cold_env(OPENBLAS_NUM_THREADS=None), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.stdout.split() == ["True", "True"], proc.stderr


@pytest.mark.parametrize("read_first", [False, True], ids=["set", "get-set"])
def test_a_wrapper_bound_before_the_command_is_the_one_called(
    tmp_path, reference_csv, read_first
):
    # The benchmark tracer wraps swdesign.cli.evaluate_design by setattr,
    # after reading it, before the command runs; binding the compute names
    # on first use must keep the wrapper.
    prelude = (
        "import swdesign.cli as cli, swdesign.search as search\n"
        f"{'cli.evaluate_design' if read_first else ''}\n"
        "def traced(*args, **kwargs):\n"
        "    print('traced')\n"
        "    return search.evaluate_design(*args, **kwargs)\n"
        "cli.evaluate_design = traced\n"
    )
    out, _ = run_cold(
        ["evaluate", "--config", reference_config(tmp_path), "--design",
         reference_csv, "--out", str(tmp_path / "run")],
        (), prelude=prelude,
    )
    assert out.count("traced") == 1


#: The four-arm cross-entropy winner frozen by the benchmark (m = 8).
FOUR_ARM_X = [[0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 2, 2],
              [0, 0, 1, 2, 3, 3, 3, 3], [1, 1, 1, 1, 2, 2, 2, 2],
              [1, 1, 2, 2, 2, 3, 3, 3], [2, 2, 3, 3, 3, 3, 3, 3]]


def test_four_arm_combined_power_is_seed_free_and_light(tmp_path):
    # q = 3: the trivariate orthant needs no random numbers, no
    # numpy.polynomial nodes and no scipy, and ignores the seed.
    design = tmp_path / "four.csv"
    write_design_csv(np.array(FOUR_ARM_X), design)
    cfg = reference_config(
        tmp_path, space={"D": 4},
        power={"alpha": 0.05, "correction": "bonferroni", "beta": 0.2,
               "delta": [1.5, 1.0, 0.75], "power_type": "combined"},
    )
    combined = []
    for seed in ("0", "7"):
        out, modules = run_cold(
            ["evaluate", "--config", cfg, "--design", str(design),
             "--seed", seed, "--out", str(tmp_path / f"run{seed}")],
            ("numpy.random", "numpy.polynomial", "scipy"),
        )
        assert modules == [[], []]
        combined += [line for line in out
                     if line.startswith("P(reject any H0)")]
    assert len(combined) == 2 and combined[0] == combined[1]
    result = [json.loads((tmp_path / f"run{seed}" / "result.json")
                         .read_text())["power"]["combined"]
              for seed in ("0", "7")]
    assert result[0] == result[1]


#: The winner of a small five-arm combined-power search (m = 4).
FIVE_ARM_X = [[0, 1, 3], [1, 3, 4], [2, 2, 2]]


def test_five_arm_combined_power_is_seed_free_and_light(tmp_path):
    # q = 4: the quadrivariate orthant needs no random numbers either, and
    # the run directories of two seeds are the same but for meta.json.
    design = tmp_path / "five.csv"
    write_design_csv(np.array(FIVE_ARM_X), design)
    cfg = reference_config(
        tmp_path, space={"D": 5}, design={"m": 4},
        power={"alpha": 0.05, "correction": "bonferroni", "beta": 0.1,
               "delta": [1.2, 1.5, 1.5, 2.5], "power_type": "combined"},
    )
    combined = []
    for seed in ("0", "7"):
        out, modules = run_cold(
            ["evaluate", "--config", cfg, "--design", str(design),
             "--seed", seed, "--out", str(tmp_path / f"run{seed}")],
            ("numpy.random", "numpy.polynomial", "scipy"),
        )
        assert modules == [[], []]
        combined += [line for line in out
                     if line.startswith("P(reject any H0)")]
    assert combined == ["P(reject any H0)       0.9992"] * 2
    for name in ("config.json", "result.json", "table.csv"):
        assert (tmp_path / "run0" / name).read_bytes() == (
            tmp_path / "run7" / name).read_bytes()
    result = json.loads((tmp_path / "run0" / "result.json").read_text())
    assert "seed" not in result
    assert result["power"]["combined"] == pytest.approx(0.9992007005874347,
                                                        abs=1e-12)


@pytest.mark.parametrize("command", ["evaluate", "search", "ce-search"])
def test_combined_power_of_five_effects_is_one_error(runner, tmp_path,
                                                     command):
    design = tmp_path / "six.csv"
    write_design_csv(np.array([[0, 1, 2], [2, 3, 4], [3, 4, 5]]), design)
    cfg = reference_config(
        tmp_path, space={"D": 6, "T": 3, "C": 3, "m": 2},
        power={"beta": 0.2, "delta": [1.0] * 5, "power_type": "combined"},
    )
    result = runner.invoke(main, [command, "--config", cfg, "--design",
                                  str(design), "--out", str(tmp_path / "run")]
                           if command == "evaluate" else
                           [command, "--config", cfg,
                            "--out", str(tmp_path / "run")])
    assert_one_error(result, 1, "Error: power: combined power takes at "
                     "most 4 effects, got 5")
    assert not (tmp_path / "run").exists()


def test_five_effects_write_no_combined_power(runner, tmp_path):
    # Individual power of five effects: the combined power is not computed,
    # and result.json writes it as null.
    design = tmp_path / "six.csv"
    write_design_csv(np.array([[0, 1, 2], [2, 3, 4], [3, 4, 5]]), design)
    cfg = reference_config(
        tmp_path, space={"D": 6}, design={"m": 4},
        power={"beta": 0.2, "delta": [1.0] * 5},
    )
    out = tmp_path / "run"
    result = runner.invoke(main, ["evaluate", "--config", cfg, "--design",
                                  str(design), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "P(reject any H0)       nan" in result.output
    power = json.loads((out / "result.json").read_text())["power"]
    assert power["combined"] is None
    assert len(power["per_hypothesis"]) == 5


class TestEvaluate:
    def test_reference_report(self, runner, tmp_path, reference_csv):
        cfg = reference_config(tmp_path)
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["evaluate", "--config", cfg, "--design", reference_csv,
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "P(reject H01" in result.output
        payload = json.loads((out / "result.json").read_text())
        assert payload["design"]["m"] == 8
        assert payload["criteria"]["D"] == pytest.approx(3.090e-3, rel=5e-3)
        assert payload["power"]["per_hypothesis"][1] == pytest.approx(
            0.8815, abs=5e-4
        )
        assert (out / "table.csv").exists()
        assert (out / "config.json").exists()
        assert (out / "meta.json").exists()

    def test_rerun_is_byte_identical(self, runner, tmp_path, reference_csv):
        cfg = reference_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                ["evaluate", "--config", cfg, "--design", reference_csv,
                 "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
        assert (out1 / "result.json").read_bytes() == (
            out2 / "result.json"
        ).read_bytes()
        assert (out1 / "table.csv").read_bytes() == (
            out2 / "table.csv"
        ).read_bytes()

    def test_missing_m_is_reported(self, runner, tmp_path, reference_csv):
        cfg = reference_config(tmp_path)
        cfg_obj = json.loads(open(cfg).read())
        del cfg_obj["design"]
        cfg2 = write_json(tmp_path / "nom.json", cfg_obj)
        result = runner.invoke(
            main, ["evaluate", "--config", cfg2, "--design", reference_csv]
        )
        assert result.exit_code != 0
        assert "design" in result.output

    def test_compare_adds_percentages(self, runner, tmp_path, reference_csv):
        cfg = reference_config(tmp_path)
        other = tmp_path / "other.csv"
        write_design_csv(
            X(("000111", 3), ("001122", 3)), other
        )
        result = runner.invoke(
            main,
            ["evaluate", "--config", cfg, "--design", reference_csv,
             "--compare", str(other), "--out", str(tmp_path / "cmp")],
        )
        assert result.exit_code == 0, result.output
        assert "%" in result.output

    def test_non_identifiable_reported(self, runner, tmp_path):
        cfg = reference_config(tmp_path)
        bad = tmp_path / "flat.csv"
        write_design_csv(np.zeros((6, 6), dtype=int), bad)
        result = runner.invoke(
            main, ["evaluate", "--config", cfg, "--design", str(bad)]
        )
        assert result.exit_code != 0
        assert "not identifiable" in result.output


@pytest.mark.parametrize("command", ["evaluate", "search"])
def test_non_identifiable_compare_is_one_error(
    runner, tmp_path, reference_csv, command
):
    # No cluster of the comparator ever receives arm 2.
    cfg = reference_config(tmp_path, space={
        "D": 3, "T": 3, "C": 3, "m": 2,
        "restrictions": ["monotone", "identifiable"]})
    bad = tmp_path / "two-arms.csv"
    write_design_csv(X(("000111", 3), ("001111", 3)), bad)
    out = tmp_path / "r"
    args = [command, "--config", cfg, "--compare", str(bad), "--out", str(out)]
    result = runner.invoke(
        main, args + ["--design", reference_csv] * (command == "evaluate"))
    assert_one_error(result, 1, "compare: design is not identifiable")
    assert "beta_2" in result.output and not out.exists()


@pytest.mark.parametrize("rows,text", [
    ("0,0,1\n0,a,1\n", "line 2, column 2: 'a' is not an integer"),
    ("0,0,1\n0,1,1\n0,1,1\n", "compare: design is not identifiable"),
], ids=["malformed", "non-identifiable"])
def test_search_checks_the_comparator_before_the_scan(
    runner, tmp_path, monkeypatch, rows, text
):
    # Identifiability depends on the rows alone, so a bad comparator ends
    # the search before any candidate is scanned.
    def no_scan(*args, **kwargs):
        raise AssertionError("the search scanned before checking --compare")

    monkeypatch.setattr(swdesign.cli, "exhaustive_search", no_scan)
    cfg = reference_config(tmp_path, space={
        "D": 3, "T": 3, "C": 3, "m": 2,
        "restrictions": ["monotone", "identifiable"]})
    bad = tmp_path / "bad.csv"
    bad.write_text(rows, encoding="utf-8")
    out = tmp_path / "r"
    result = runner.invoke(main, ["search", "--config", cfg, "--compare",
                                  str(bad), "--out", str(out)])
    assert_one_error(result, 1, text)
    assert not out.exists()


class TestSearch:
    def search_config(self, tmp_path, **power):
        return write_json(
            tmp_path / "search.json",
            {
                "schema_version": 1,
                "model": {"rho": 0.05},
                "space": {
                    "D": 2,
                    "T": 4,
                    "C": 4,
                    "m": 2,
                    "restrictions": ["monotone", "identifiable"],
                },
                "objective": {"w": 0.0, "criterion": "E"},
                "power": power or {"alpha": 0.05, "beta": 1.0, "delta": []},
            },
        )

    def test_search_writes_design(self, runner, tmp_path):
        cfg = self.search_config(tmp_path)
        out = tmp_path / "srun"
        result = runner.invoke(
            main, ["search", "--config", cfg, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "result.json").read_text())
        assert payload["status"] == "ok"
        X_found = read_design_csv(out / "design.csv")
        assert X_found.shape == (4, 4)
        assert payload["best"]["X"] == X_found.tolist()

    def test_no_admissible_exit_code(self, runner, tmp_path):
        cfg = self.search_config(
            tmp_path, alpha=0.05, beta=0.01, delta=[0.05],
            correction="none",
        )
        out = tmp_path / "nrun"
        result = runner.invoke(
            main, ["search", "--config", cfg, "--out", str(out)]
        )
        assert result.exit_code == 3
        payload = json.loads((out / "result.json").read_text())
        assert payload["status"] == "no-admissible-design"
        assert payload["best"] is not None

    def test_cluster_counts_per_period_count(self, runner, tmp_path):
        cfg = {
            "schema_version": 1,
            "model": {"rho": 0.05},
            "space": {
                "D": 2, "T": [3, 4], "C": {"3": [2, 3], "4": [4]},
                "m": {"min": 2, "budget": 9},
                "restrictions": ["monotone", "identifiable"],
            },
        }
        out = tmp_path / "crun"
        result = runner.invoke(
            main, ["search", "--config", write_json(tmp_path / "c.json", cfg),
                   "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        space = swdesign.DesignSpace.budgeted(
            [3, 4], {3: [2, 3], 4: [4]}, 2, 9, 2,
            (swdesign.MonotoneNondecreasing(), swdesign.Identifiable()),
        )
        want = swdesign.exhaustive_search(
            space, swdesign.VarianceComponents.from_rho(1.0, 0.05),
            swdesign.PowerSpec(alpha=0.05, beta=1.0, delta=[]),
            swdesign.Objective(w=0.0, criterion=swdesign.Eoptimal()),
        )
        payload = json.loads((out / "result.json").read_text())
        assert payload["n_evaluated"] == want.n_evaluated
        assert payload["best"]["X"] == want.best.X.tolist()

    def test_workers_env_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("SWDESIGN_WORKERS", "2")
        cfg = self.search_config(tmp_path)
        out = tmp_path / "wrun"
        result = runner.invoke(
            main, ["search", "--config", cfg, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "meta.json").read_text())
        assert payload["workers"] == 2

    def test_result_independent_of_workers(self, runner, tmp_path):
        cfg = self.search_config(tmp_path)
        results = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            result = runner.invoke(
                main, ["search", "--config", cfg, "--workers", workers,
                       "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            results.append((out / "result.json").read_bytes())
            meta = json.loads((out / "meta.json").read_text())
            assert meta["workers"] == int(workers)
        assert results[0] == results[1]


    @pytest.mark.parametrize("command", ["search", "sensitivity"])
    @pytest.mark.parametrize("args,env", [
        (["--workers", "0"], None),
        (["--workers", "-3"], None),
        ([], "0"),
        ([], "x"),
    ], ids=["zero", "negative", "env-zero", "env-text"])
    def test_workers_must_be_a_positive_integer(
        self, runner, tmp_path, monkeypatch, command, args, env
    ):
        if env is None:
            monkeypatch.delenv("SWDESIGN_WORKERS", raising=False)
        else:
            monkeypatch.setenv("SWDESIGN_WORKERS", env)
        out = tmp_path / "wrun"
        result = runner.invoke(
            main, [command, "--config", self.search_config(tmp_path),
                   "--out", str(out), *args],
        )
        # A usage error: click prints the usage lines, then one Error line.
        assert_one_error(result, 2, "'--workers'")
        assert not out.exists()

    def test_space_without_identifiable_design(self, runner, tmp_path):
        out = tmp_path / "erun"
        result = runner.invoke(
            main, ["search", "--config", empty_space_config(tmp_path),
                   "--out", str(out)],
        )
        assert result.exit_code == 3
        assert result.stderr == "no design in the space is identifiable\n"

        def no_constant(name):
            raise AssertionError(f"{name} is not valid JSON")

        payload = json.loads((out / "result.json").read_text(),
                             parse_constant=no_constant)
        assert payload["status"] == "no-admissible-design"
        assert payload["best"] is None
        for key in ("cost", "criterion_value", "objective_value"):
            assert payload[key] is None
        assert set(payload["scaling"].values()) == {None}
        assert not (out / "design.csv").exists()


class TestCeSearch:
    def test_requires_single_block(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "multi.json",
            {
                "schema_version": 1,
                "model": {"rho": 0.05},
                "space": {
                    "D": 2, "T": [4, 5], "C": 4, "m": 2,
                    "restrictions": ["monotone"],
                },
                "objective": {"w": 0.0, "criterion": "E"},
            },
        )
        result = runner.invoke(main, ["ce-search", "--config", cfg])
        assert result.exit_code != 0
        assert "single" in result.output

    def test_runs_and_persists(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "ce.json",
            {
                "schema_version": 1,
                "model": {"rho": 0.05},
                "space": {
                    "D": 2, "T": 4, "C": 4, "m": 2,
                    "restrictions": ["monotone", "identifiable"],
                },
                "objective": {"w": 0.0, "criterion": "E"},
                "ce": {"population_size": 200, "max_iterations": 30},
            },
        )
        out = tmp_path / "cerun"
        result = runner.invoke(
            main, ["ce-search", "--config", cfg, "--seed", "1",
                   "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "result.json").read_text())
        assert payload["status"] == "ok"
        assert payload["seed"] == 1
        assert (out / "design.csv").exists()

    def test_space_without_identifiable_design(self, runner, tmp_path):
        out = tmp_path / "erun"
        result = runner.invoke(
            main, ["ce-search", "--config", empty_space_config(tmp_path),
                   "--out", str(out)],
        )
        assert_one_error(result, 1, "Error: space: the restrictions admit "
                         "no sequences")
        assert result.output.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["search", "ce-search"])
def test_winner_power_reported_once(runner, tmp_path, monkeypatch, command):
    # The search result already carries the winner's power report; the
    # command writes it rather than computing it again.
    from swdesign import search as search_mod

    real = search_mod.power_report
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search_mod, "power_report", counted)
    cfg = write_json(tmp_path / "four.json", {
        "schema_version": 1, "model": {"rho": 0.05}, "design": {"m": 4},
        "space": {"D": 4, "T": 4, "C": 3, "m": 4,
                  "restrictions": ["monotone", "identifiable"]},
        "power": {"alpha": 0.05, "beta": 0.2, "delta": [1.5, 1.0, 0.75]},
        "objective": {"w": 0.0, "criterion": "A"},
        "ce": {"population_size": 100, "max_iterations": 5},
    })
    out = tmp_path / "run"
    result = runner.invoke(
        main, [command, "--config", cfg, "--seed", "3", "--out", str(out)]
    )
    assert result.exit_code in (0, 3), result.output
    assert len(calls) == 1
    assert "P(reject any H0)" in result.output
    # Evaluating the winner on its own reports the same power, byte for byte.
    ev = tmp_path / "ev"
    result = runner.invoke(
        main, ["evaluate", "--config", cfg, "--design",
               str(out / "design.csv"), "--seed", "3", "--out", str(ev)],
    )
    assert result.exit_code == 0, result.output
    assert (ev / "table.csv").read_bytes() == (out / "table.csv").read_bytes()
    payload = json.loads((out / "result.json").read_text())
    assert payload["power"] == json.loads(
        (ev / "result.json").read_text())["power"]



class TestSensitivity:
    def test_grid_and_ratio_outputs(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "sens.json",
            {
                "schema_version": 1,
                "space": {
                    "D": 2, "T": 4, "C": 4, "m": 2,
                    "restrictions": ["monotone", "identifiable"],
                },
                "objective": {"w": 0.0, "criterion": "E"},
                "sensitivity": {
                    "sigma2_c_range": [0.02, 0.2],
                    "sigma2_eps_range": [0.5, 1.5],
                    "steps": 2,
                },
                "design": {"m": 2},
            },
        )
        fixed = tmp_path / "fixed.csv"
        write_design_csv(X("0001", "0011", "0111", "0011"), fixed)
        out = tmp_path / "gridrun"
        result = runner.invoke(
            main,
            ["sensitivity", "--config", cfg, "--design", str(fixed),
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        grid_lines = (out / "grid.csv").read_text().strip().splitlines()
        assert grid_lines[0] == "sigma2_c,sigma2_eps,design_id,criterion_value"
        assert len(grid_lines) == 1 + 4
        ratio_lines = (out / "ratio.csv").read_text().strip().splitlines()
        assert ratio_lines[0] == "sigma2_c,sigma2_eps,variance_ratio"
        assert len(ratio_lines) == 1 + 4
        for line in ratio_lines[1:]:
            assert float(line.split(",")[2]) >= 1.0 - 1e-10

    def test_ratio_map_reuses_the_grid_scan(self, runner, tmp_path,
                                            monkeypatch):
        from swdesign import search
        from swdesign.designspace import DesignSpace, restriction_from_name
        from swdesign.inference import PowerSpec

        calls = []
        scan_chunk = search._scan_chunk

        def counted(job):
            calls.append((job["T"], job["C"], job["first"]))
            return scan_chunk(job)

        monkeypatch.setattr(search, "_scan_chunk", counted)
        sens = {"sigma2_c_range": [0.02, 0.2], "sigma2_eps_range": [0.5, 1.5],
                "steps": 3}
        cfg = write_json(tmp_path / "sens.json", {
            "schema_version": 1,
            "space": {"D": 2, "T": [3, 4], "C": [3, 4], "m": 2,
                      "restrictions": ["monotone", "identifiable"]},
            "objective": {"w": 0.0, "criterion": "A"},
            "sensitivity": sens,
        })
        fixed = tmp_path / "fixed.csv"
        Xf = X("0001", "0011", "0111", "0011")
        write_design_csv(Xf, fixed)
        out = tmp_path / "run"
        result = runner.invoke(
            main, ["sensitivity", "--config", cfg, "--design", str(fixed),
                   "--workers", "1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        # One chunk per (T, C) block, each scanned once.
        assert sorted(calls) == [(3, 3, ()), (3, 4, ()), (4, 3, ()),
                                 (4, 4, ())]
        # The same bytes as the ratio map computed from its own scan.
        space = DesignSpace.grid(
            [3, 4], [3, 4], [2], 2,
            [restriction_from_name(n) for n in ("monotone", "identifiable")],
        )
        grid = search.GridSpec(tuple(sens["sigma2_c_range"]),
                               tuple(sens["sigma2_eps_range"]), 3)
        ratios = search.variance_ratio_map(
            Xf, grid, space, search.Objective(0.0, search.Aoptimal()),
            PowerSpec(alpha=0.05, beta=1.0, delta=[]),
        )
        xs, ys = grid.points()
        want = "sigma2_c,sigma2_eps,variance_ratio\n" + "".join(
            f"{float(x)!r},{float(y)!r},{float(ratios[i, j])!r}\n"
            for i, x in enumerate(xs) for j, y in enumerate(ys)
        )
        assert (out / "ratio.csv").read_text() == want


    def test_space_without_identifiable_design(self, runner, tmp_path):
        out = tmp_path / "erun"
        result = runner.invoke(
            main, ["sensitivity", "--config", empty_space_config(tmp_path),
                   "--out", str(out)],
        )
        assert_one_error(result, 1, "Error: space: no identifiable design")
        assert result.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("space,cap,total", [
        # 729 unrestricted sequences of length 6 over three arms.
        ({"D": 3, "T": [6], "C": [12], "m": [8]}, None, math.comb(740, 12)),
        # 4 monotone sequences of length 3 over two arms.
        ({"D": 2, "T": 3, "C": 4, "m": 2, "restrictions": ["monotone"]},
         10, 35),
    ], ids=["default-cap", "config-cap"])
    def test_space_above_the_candidate_cap(self, runner, tmp_path, space,
                                           cap, total):
        cfg = {"schema_version": 1, "space": space,
               "sensitivity": {"steps": 2}}
        if cap is not None:
            cfg["candidate_cap"] = cap
        path = write_json(tmp_path / "cap.json", cfg)
        for command in ("search", "sensitivity"):
            out = tmp_path / command
            result = runner.invoke(
                main, [command, "--config", path, "--out", str(out)]
            )
            assert_one_error(
                result, 1, f"Error: space holds {total} candidates, above "
                f"the cap of {cap or 10**8}; use the cross-entropy search",
            )
            assert result.output.count("\n") == 1
            assert not out.exists()


@pytest.mark.parametrize("command,text", [
    ("search", "Error: space holds 12666644 candidates, above the cap"),
    ("ce-search", "Error: ce-search requires a single (m, C, T)"),
])
def test_large_m_budget_is_never_listed(runner, tmp_path, command, text):
    # A budget of 2,000,000 spans about a million values of m per T.
    path = write_json(tmp_path / "budget.json", {
        "schema_version": 1, "candidate_cap": 10**6,
        "space": {"D": 2, "T": [2, 3], "C": [2], "restrictions": ["monotone"],
                  "m": {"min": 2, "budget": 2 * 10**6}}})
    tracemalloc.start()
    try:
        result = runner.invoke(main, [command, "--config", path,
                                      "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_one_error(result, 1, text)
    assert peak < 1 << 20


class TestAnalytic:
    def run_op(self, runner, tmp_path, block, extra_args=()):
        cfg = write_json(
            tmp_path / "an.json",
            {"schema_version": 1, "analytic": block},
        )
        result = runner.invoke(
            main,
            ["analytic", "--config", cfg,
             "--out", str(tmp_path / "anrun"), *extra_args],
        )
        assert result.exit_code == 0, result.output
        return json.loads(result.output.strip().splitlines()[0])

    def test_cluster_mean_correlation(self, runner, tmp_path):
        got = self.run_op(
            runner, tmp_path,
            {"op": "cluster-mean-correlation", "m": 8, "T": 6, "rho": 0.05},
        )
        assert got["value"] == pytest.approx(0.7164179104477612)

    def test_sequence_count(self, runner, tmp_path):
        got = self.run_op(
            runner, tmp_path, {"op": "sequence-count", "E": 0.75}
        )
        assert got["value"] == pytest.approx(7.464101615137754)

    def test_li_proportions(self, runner, tmp_path):
        got = self.run_op(
            runner, tmp_path,
            {"op": "li-proportions", "m": 10, "T": 6,
             "rho0": 0.05, "rho1": 0.001, "rho2": 0.25},
        )
        assert sum(got["value"]["p"]) == pytest.approx(1.0)

    def test_empirical_proportions_requires_design(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "an.json",
            {"schema_version": 1,
             "analytic": {"op": "empirical-proportions"}},
        )
        result = runner.invoke(main, ["analytic", "--config", cfg])
        assert result.exit_code != 0
        assert "--design" in result.output

    def test_empirical_proportions(self, runner, tmp_path):
        path = tmp_path / "cohort.csv"
        write_design_csv(
            X(("000001", 4), "000011", "000111", "001111", ("011111", 3)),
            path,
        )
        got = self.run_op(
            runner, tmp_path, {"op": "empirical-proportions"},
            extra_args=["--design", str(path)],
        )
        assert got["value"] == [0.4, 0.1, 0.1, 0.1, 0.3]

    def test_missing_operand(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "an.json",
            {"schema_version": 1, "analytic": {"op": "sequence-count"}},
        )
        result = runner.invoke(main, ["analytic", "--config", cfg])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "Error: analytic.E is required"
        ]

    @pytest.mark.parametrize(
        "block,expected",
        [
            ({"op": "cluster-mean-correlation", "m": "x", "T": 6,
              "rho": 0.05}, "analytic.m must be a number, got 'x'"),
            ({"op": "rho-from-E", "m": 10, "T": 6, "E": float("nan")},
             "analytic.E must be a finite number, got nan"),
            ({"op": "sequence-count", "E": 2},
             "analytic: E must lie in [0, 1), got 2"),
        ],
        ids=["m-type", "E-nan", "E-range"],
    )
    def test_bad_operand(self, runner, tmp_path, block, expected):
        cfg = write_json(tmp_path / "an.json",
                         {"schema_version": 1, "analytic": block})
        result = runner.invoke(main, ["analytic", "--config", cfg])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [f"Error: {expected}"]

    def test_unknown_op(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "an.json",
            {"schema_version": 1, "analytic": {"op": "frobnicate"}},
        )
        result = runner.invoke(main, ["analytic", "--config", cfg])
        assert result.exit_code != 0
        assert "unknown analytic op" in result.output
