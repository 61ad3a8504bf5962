"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core import Instance, Job
from repro.generators import uniform_random_instance
from repro.solvers import SOLVER_ROSTER


@pytest.fixture
def instance_file(tmp_path):
    instance = uniform_random_instance(
        num_jobs=12, num_machines=3, num_bags=5, seed=1
    ).instance
    path = tmp_path / "instance.json"
    instance.save(path)
    return path


class TestParser:
    def test_all_commands_present(self):
        parser = build_parser()
        samples = {
            "generate": ["generate", "uniform"],
            "solve": ["solve", "instance.json"],
            "compare": ["compare", "instance.json"],
            "experiments": ["experiments"],
            "constants": ["constants"],
        }
        for command, argv in samples.items():
            args = parser.parse_args(argv)
            assert args.command == command

    def test_solver_registry_is_complete(self):
        assert {"greedy", "lpt", "coloring", "das-wiese", "eptas", "exact", "first-fit"} <= set(
            SOLVER_ROSTER
        )


class TestGenerate:
    def test_generate_writes_instance(self, tmp_path, capsys):
        output = tmp_path / "gen.json"
        code = main(["generate", "figure1", "--machines", "4", "-o", str(output)])
        assert code == 0
        instance = Instance.load(output)
        assert instance.num_machines == 4
        captured = capsys.readouterr().out
        assert "known optimum" in captured

    def test_generate_family_without_jobs_parameter(self, tmp_path):
        output = tmp_path / "p.json"
        code = main(["generate", "planted", "--machines", "4", "--jobs", "10", "-o", str(output)])
        assert code == 0
        assert output.exists()


class TestSolveAndCompare:
    def test_solve_lpt(self, instance_file, capsys, tmp_path):
        schedule_path = tmp_path / "schedule.json"
        code = main(
            ["solve", str(instance_file), "--solver", "lpt", "-o", str(schedule_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        data = json.loads(schedule_path.read_text())
        assert "assignment" in data

    def test_solve_eptas(self, instance_file, capsys):
        code = main(["solve", str(instance_file), "--solver", "eptas", "--eps", "0.5"])
        assert code == 0
        assert "ratio" in capsys.readouterr().out

    def test_solve_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", str(tmp_path / "missing.json")])

    def test_compare(self, instance_file, capsys):
        code = main(
            ["compare", str(instance_file), "--solvers", "greedy", "lpt", "--eps", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "lpt" in out

    @pytest.mark.parametrize(
        "jobs",
        [[], [Job(0, 0.0, 0), Job(1, 0.0, 0), Job(2, 0.0, 1)]],
        ids=["empty", "all-zero"],
    )
    def test_zero_lower_bound(self, jobs, tmp_path, capsys):
        # An instance without jobs, or with only zero-size jobs, has lower
        # bound 0; its ratio is 0 / 0, which reads 1.
        path = tmp_path / "zero.json"
        Instance(jobs, 3, name="zero").save(path)
        assert main(["solve", str(path), "--solver", "lpt"]) == 0
        assert "ratio <= 1.0000" in capsys.readouterr().out
        assert main(["compare", str(path)]) == 0


class TestExperimentsAndConstants:
    def test_constants_command(self, capsys):
        code = main(["constants", "--eps", "0.5"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "k=worst" in data

    def test_experiments_command_quick_subset(self, capsys, tmp_path):
        code = main(["experiments", "E7", "--csv-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "E7" in out
        assert (tmp_path / "e7.csv").exists()

    def test_experiments_markdown(self, capsys):
        code = main(["experiments", "E5", "--markdown"])
        assert code == 0
        assert "###" in capsys.readouterr().out


class TestOrchConnect:
    @pytest.mark.parametrize("command", ["submit", "status"])
    def test_bad_port_is_a_one_line_error(self, command, instance_file):
        paths = [str(instance_file)] if command == "submit" else []
        with pytest.raises(SystemExit, match="invalid port"):
            main(["orch", command, *paths, "--connect", "localhost:notaport"])
