"""Command-line interface tests."""

import json
import os
import subprocess
import sys
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


def run_cold(args, heavy_prefixes):
    """Run the CLI in a fresh interpreter.

    Returns its stdout and the loaded modules under ``heavy_prefixes``,
    listed once after ``import swdesign.cli`` and once after the command.
    """
    script = (
        "import json, sys\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules\n"
        f"                  if m.startswith({heavy_prefixes!r}))\n"
        "from swdesign.cli import main\n"
        "after_import = heavy()\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    if exc.code:\n"
        "        raise\n"
        "print(json.dumps([after_import, heavy()]))\n"
    )
    src = str(Path(swdesign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
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
            calls.append((job["T"], job["C"], job["start"]))
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
        assert sorted(calls) == [(3, 3, 0), (3, 4, 0), (4, 3, 0), (4, 4, 0)]
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

    def test_unknown_op(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "an.json",
            {"schema_version": 1, "analytic": {"op": "frobnicate"}},
        )
        result = runner.invoke(main, ["analytic", "--config", cfg])
        assert result.exit_code != 0
        assert "unknown analytic op" in result.output
