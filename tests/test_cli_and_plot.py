"""Tests for the CLI entry points and the ASCII plotting utility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.utils.ascii_plot import scatter_plot


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "verify",
            "ler",
            "sweep",
            "census",
            "schedule",
            "bound",
            "distance",
            "phenomenological",
            "inject",
        ):
            args = parser.parse_args(
                [command]
                if command
                not in ("ler", "sweep", "verify", "inject")
                else [command]
            )
            assert args.command == command

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--per", "1e-3", "2e-3", "--samples", "5", "--plot"]
        )
        assert args.per == [1e-3, 2e-3]
        assert args.samples == 5
        assert args.plot


class TestCommands:
    def test_bound(self, capsys):
        assert main(["bound", "--max-distance", "5"]) == 0
        output = capsys.readouterr().out
        assert "5.88%" in output and "3.03%" in output

    def test_schedule(self, capsys):
        assert main(["schedule"]) == 0
        assert "deadline relaxed" in capsys.readouterr().out

    def test_census(self, capsys):
        assert main(["census"]) == 0
        output = capsys.readouterr().out
        assert "teleport" in output
        assert "pauli gates" in output

    def test_inject(self, capsys):
        assert main(["inject", "--theta", "0.9", "--seed", "2"]) == 0
        assert "Bloch vector" in capsys.readouterr().out

    def test_ler(self, capsys):
        code = main(
            ["ler", "--per", "1e-2", "--errors", "2", "--seed", "5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "without frame" in output and "with frame" in output

    def test_verify(self, capsys):
        code = main(
            [
                "verify",
                "--iterations",
                "3",
                "--qubits",
                "4",
                "--gates",
                "30",
            ]
        )
        assert code == 0
        assert "PASSED" in capsys.readouterr().out

    def test_distance(self, capsys):
        code = main(
            [
                "distance",
                "--distances",
                "3",
                "--per",
                "0.05",
                "--trials",
                "100",
            ]
        )
        assert code == 0
        assert "LER(d=3)" in capsys.readouterr().out

    def test_phenomenological(self, capsys):
        code = main(
            [
                "phenomenological",
                "--distances",
                "3",
                "--per",
                "0.02",
                "--trials",
                "50",
            ]
        )
        assert code == 0
        assert "LER(d=3)" in capsys.readouterr().out

    def test_sweep_with_plot(self, capsys):
        code = main(
            [
                "sweep",
                "--per",
                "1e-2",
                "--samples",
                "2",
                "--errors",
                "2",
                "--plot",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean rho" in output
        assert "without Pauli frame" in output


class TestErrorsFlagNeedsTheLoop:
    """``--errors`` is a loop-mode stopping rule; ``--batch`` runs a
    fixed number of windows, so the combination is refused."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ler", "--batch", "4", "--windows", "2", "--errors", "3"],
            ["sweep", "--samples", "4", "--batch", "2", "--errors", "3"],
        ],
        ids=["ler", "sweep"],
    )
    def test_batch_with_errors_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--errors applies to the per-shot loop only" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ler", "--per", "1e-2", "--batch", "4", "--windows", "2"],
            ["sweep", "--per", "1e-2", "--samples", "4", "--batch", "2"],
        ],
        ids=["ler", "sweep"],
    )
    def test_batch_without_errors_runs(self, argv, capsys):
        assert main(argv) == 0

    def test_loop_mode_still_honours_errors(self):
        args = build_parser().parse_args(["ler", "--errors", "3"])
        assert args.errors == 3
        assert build_parser().parse_args(["ler"]).errors is None


class TestLerReadsOnlyTheArms:
    """``repro ler`` reports each arm's pooled counts: it builds no
    per-shot results or t-tests, and loads neither scipy nor
    networkx."""

    ARGV = ["ler", "--batch", "4", "--windows", "2", "--json"]

    def test_ler_never_builds_the_sweep(self, monkeypatch, capsys):
        assert main(self.ARGV) == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("repro ler compared the arms")

        monkeypatch.setattr("repro.experiments.sweep.compare_point", refuse)
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out == expected

    def test_ler_loads_neither_scipy_nor_networkx(self):
        import repro

        script = "\n".join(
            [
                "import contextlib, io, sys",
                "import repro.cli",
                "with contextlib.redirect_stdout(io.StringIO()):",
                "    code = repro.cli.main("
                "['ler', '--batch', '2', '--windows', '2', '--json'])",
                "print(code, [m for m in ('scipy', 'networkx')"
                " if m in sys.modules])",
            ]
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=environment,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0 []"


class TestSweepReportIsStrictJson:
    """A sweep's t-tests need two samples per arm, and its ``--json``
    report must parse under RFC 8259, which has no NaN."""

    @staticmethod
    def _refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    def test_all_zero_arms_parse_strictly(self, capsys):
        argv = ["sweep", "--per", "1e-6", "--samples", "4", "--batch", "2"]
        assert main(argv + ["--json"]) == 0
        report = json.loads(
            capsys.readouterr().out, parse_constant=self._refuse
        )
        assert report["mean_rho"] == 1.0

    def test_single_sample_exits_2(self, capsys):
        argv = ["sweep", "--per", "1e-2", "--samples", "1", "--batch", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--samples must be at least 2" in captured.err
        assert captured.out == ""


class TestRunnerFlagsNeedTheirMode:
    """A flag the selected mode would not read is refused with exit 2,
    naming the flag and the mode it needs, before anything runs."""

    LOOP = ["ler", "--per", "5e-2", "--errors", "1"]
    SWEEP = ["sweep", "--per", "1e-2", "--batch", "2", "--samples", "2"]

    @pytest.mark.parametrize(
        "argv, flag, mode",
        [
            (LOOP + ["--checkpoint", "CK"], "--checkpoint", "--workers"),
            (LOOP + ["--resume"], "--resume", "--workers"),
            (LOOP + ["--target-ci", "0.01"], "--target-ci", "--workers"),
            (LOOP + ["--shard-shots", "7"], "--shard-shots", "--workers"),
            (LOOP + ["--samples", "3"], "--samples", "--workers"),
            (LOOP + ["--windows", "2"], "--windows", "--batch"),
            (
                LOOP
                + ["--checkpoint", "CK", "--target-ci", "0.01"]
                + ["--samples", "3", "--shard-shots", "7"],
                "--checkpoint",
                "--workers",
            ),
            (
                ["ler", "--batch", "20", "--windows", "2", "--samples", "7"],
                "--samples",
                "--workers",
            ),
            (
                ["ler", "--workers", "1", "--samples", "2", "--windows", "2"],
                "--windows",
                "--batch",
            ),
            (SWEEP + ["--checkpoint", "CK"], "--checkpoint", "--workers"),
            (SWEEP + ["--resume"], "--resume", "--workers"),
            (SWEEP + ["--target-ci", "0.01"], "--target-ci", "--workers"),
            (SWEEP + ["--shard-shots", "7"], "--shard-shots", "--workers"),
            (
                ["sweep", "--per", "1e-2", "--samples", "2", "--errors", "1"]
                + ["--checkpoint", "CK"],
                "--checkpoint",
                "--workers",
            ),
        ],
        ids=[
            "ler-loop-checkpoint",
            "ler-loop-resume",
            "ler-loop-target-ci",
            "ler-loop-shard-shots",
            "ler-loop-samples",
            "ler-loop-windows",
            "ler-loop-all",
            "ler-batch-samples",
            "ler-workers-windows",
            "sweep-batch-checkpoint",
            "sweep-batch-resume",
            "sweep-batch-target-ci",
            "sweep-batch-shard-shots",
            "sweep-loop-checkpoint",
        ],
    )
    def test_unused_flag_exits_2(self, argv, flag, mode, tmp_path, capsys):
        checkpoint = tmp_path / "ck.jsonl"
        argv = [str(checkpoint) if arg == "CK" else arg for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{flag} applies to ")
        assert mode in captured.err
        assert captured.out == ""
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "argv, shots, windows",
        [
            (["ler", "--batch", "4"], 4, 200),
            (["ler", "--workers", "1"], 10, None),
        ],
        ids=["batch", "workers"],
    )
    def test_defaults_reach_the_runner(
        self, argv, shots, windows, monkeypatch
    ):
        """Absent flags still hand the runner (and so the checkpoint
        header) 100 shots per shard, 10 samples and 200 windows."""
        from repro.experiments import parallel

        seen = {}

        def record(per, **kwargs):
            seen.update(kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "run_parallel_sweep", record)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert (seen["shots"], seen["windows"]) == (shots, windows)
        assert seen["config"].shard_shots == 100


class TestResumeRefusesAnotherSweep:
    """``--resume`` against a checkpoint that another sweep wrote exits
    2 with one stderr line naming what differs, and prints nothing."""

    LER = ["ler", "--per", "1e-2", "--batch", "20", "--seed", "1"]
    SWEEP = ["sweep", "--per", "1e-2", "--workers", "1", "--seed", "1"]

    @staticmethod
    def refusal(argv, capsys) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("--resume: ")
        return lines[0]

    def test_ler_names_the_differing_key(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck.jsonl")
        base = self.LER + ["--checkpoint", checkpoint]
        assert main(base + ["--windows", "2"]) == 0
        capsys.readouterr()
        line = self.refusal(base + ["--windows", "3", "--resume"], capsys)
        assert "(windows: stored 2, planned 3)" in line

    def test_sweep_names_every_differing_key(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck.jsonl")
        base = self.SWEEP + ["--checkpoint", checkpoint]
        assert main(base + ["--samples", "4", "--batch", "3"]) == 0
        capsys.readouterr()
        line = self.refusal(
            base + ["--samples", "6", "--batch", "4", "--resume"], capsys
        )
        assert (
            "(shots: stored 4, planned 6; windows: stored 3, planned 4)"
            in line
        )

    def test_shard_outside_the_plan(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.jsonl"
        argv = self.LER + [
            "--windows", "2", "--shard-shots", "10",
            "--checkpoint", str(checkpoint),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        lines = checkpoint.read_text().splitlines()
        record = json.loads(lines[-1])
        assert (record["use_pauli_frame"], record["shard_index"]) == (
            True, 1
        )
        record["shard_index"] = 7
        lines[-1] = json.dumps(record)
        checkpoint.write_text("\n".join(lines) + "\n")
        line = self.refusal(argv + ["--resume"], capsys)
        assert "holds shard (0, True, 7) of 10 shots" in line


class TestDecoderIsAName:
    """``--decoder`` takes a registered name.  A ``KEY=VALUE`` tail, or
    a decoder without the subcommand's capability, exits 2 with one
    line on stderr before anything runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ler", "--batch", "2", "--windows", "2"],
            ["sweep", "--per", "1e-2", "--batch", "2", "--samples", "2"],
            ["distance", "--distances", "3", "--per", "0.05"]
            + ["--trials", "20"],
            ["phenomenological", "--distances", "3", "--per", "0.01"]
            + ["--trials", "20"],
            ["memory", "--distances", "3", "--trials", "2"],
        ],
        ids=[
            "ler-batch",
            "sweep-batch",
            "distance",
            "phenomenological",
            "memory",
        ],
    )
    def test_parameter_tail_exits_2(self, argv, capsys):
        assert main(argv + ["--decoder", "unionfind:time_weight=2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("--decoder")
        assert captured.err.count("\n") == 1
        assert "unionfind:time_weight=2" in captured.err

    @pytest.mark.parametrize(
        "command", ["distance", "phenomenological", "memory"]
    )
    def test_graph_commands_need_a_graph_decoder(self, command, capsys):
        assert main([command, "--trials", "2", "--decoder", "lut"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("--decoder: 'lut' lacks")
        assert captured.err.count("\n") == 1


class TestSweepSavedSlots:
    """Only the per-shot loop counts the frame's saved slots; the
    batched and the sharded sweeps print ``-`` in that column."""

    @pytest.mark.parametrize(
        "argv, measured",
        [
            (["--errors", "1"], True),
            (["--errors", "1", "--workers", "1"], False),
            (["--batch", "2"], False),
        ],
        ids=["loop", "workers", "batch"],
    )
    def test_saved_slots_column(self, argv, measured, capsys):
        base = ["sweep", "--per", "5e-2", "--samples", "2", "--seed", "1"]
        assert main(base + argv) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert header.endswith("saved_slots%")
        saved = row.split()[-1]
        if measured:
            assert 0.0 < float(saved) <= 100.0 / 17.0
        else:
            assert saved == "-"


class TestSizeFlagsArePositive:
    """A size flag below 1 is refused by argparse with exit 2, naming
    the flag, before anything runs; ``ler --batch`` is the exception,
    refused by the sharded runner's own check."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--batch", "0", "--samples", "2"], "--batch"),
            (["sweep", "--samples", "0", "--batch", "2"], "--samples"),
            (["ler", "--workers", "1", "--samples", "0"], "--samples"),
            (["ler", "--batch", "4", "--windows", "0"], "--windows"),
            (
                ["ler", "--batch", "4", "--windows", "2", "--workers", "1"]
                + ["--shard-shots", "0"],
                "--shard-shots",
            ),
            (["ler", "--batch", "4", "--workers", "0"], "--workers"),
            (["sweep", "--batch", "2", "--workers", "-1"], "--workers"),
            (
                ["phenomenological", "--distances", "3", "--per", "0.01"]
                + ["--trials", "0", "--json"],
                "--trials",
            ),
            (
                ["phenomenological", "--distances", "3", "--per", "0.01"]
                + ["--trials", "-2"],
                "--trials",
            ),
            (["distance", "--trials", "0"], "--trials"),
            (["memory", "--distances", "3", "--trials", "-1"], "--trials"),
            (["verify", "--iterations", "0"], "--iterations"),
        ],
        ids=[
            "sweep-batch-0",
            "sweep-samples-0",
            "ler-samples-0",
            "ler-windows-0",
            "ler-shard-shots-0",
            "ler-workers-0",
            "sweep-workers-negative",
            "phenomenological-trials-0",
            "phenomenological-trials-negative",
            "distance-trials-0",
            "memory-trials-negative",
            "verify-iterations-0",
        ],
    )
    def test_non_positive_size_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be a positive integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ([command, "--distances", distance], "--distances")
            for command in ("distance", "phenomenological", "memory")
            for distance in ("2", "0", "1", "-3")
        ]
        + [
            ([command, "--per", rate], "--per")
            for command in ("distance", "phenomenological", "memory")
            for rate in ("1.5", "-0.1", "nan")
        ],
    )
    def test_bad_distance_or_rate_exits_2(self, argv, flag, capsys):
        """The ch. 6 commands take odd distances >= 3 and rates in
        [0, 1]; anything else is an argparse refusal naming the flag."""
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--trials", "1", "--json"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert f"error: argument {flag}: must be " in errors[0]

    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_ler_batch_is_refused_by_the_runner(self, shots):
        with pytest.raises(ValueError, match="shots must be positive"):
            main(["ler", "--batch", shots, "--windows", "2", "--json"])

    def test_defaults_and_bare_batch_unchanged(self):
        parser = build_parser()
        assert parser.parse_args(["ler", "--batch"]).batch == 25
        assert parser.parse_args(["sweep"]).samples == 3
        args = parser.parse_args(["ler", "--batch", "1", "--workers", "1"])
        assert (args.batch, args.workers, args.shard_shots) == (1, 1, None)


class TestScatterPlot:
    def test_basic_rendering(self):
        text = scatter_plot(
            {"a": [(1e-3, 1e-2), (1e-2, 1e-1)]},
            title="demo",
        )
        assert "demo" in text
        assert "o = a" in text
        assert text.count("o") >= 2  # marker plus legend

    def test_two_series_get_distinct_markers(self):
        text = scatter_plot(
            {
                "first": [(1.0, 1.0)],
                "second": [(2.0, 2.0)],
            },
            log_x=False,
            log_y=False,
        )
        assert "o = first" in text
        assert "x = second" in text

    def test_diagonal_reference_line(self):
        text = scatter_plot(
            {"a": [(1e-3, 1e-3), (1e-2, 1e-2)]},
            diagonal=True,
        )
        assert "." in text

    def test_nonpositive_points_dropped_on_log_axes(self):
        text = scatter_plot({"a": [(0.0, 1.0), (1.0, 1.0)]})
        assert "(no plottable points)" not in text
        empty = scatter_plot({"a": [(0.0, 1.0)]})
        assert "(no plottable points)" in empty

    def test_linear_axes_allow_zero(self):
        text = scatter_plot(
            {"a": [(0.0, 0.0), (1.0, 1.0)]},
            log_x=False,
            log_y=False,
        )
        assert "o = a" in text

    def test_degenerate_single_point(self):
        text = scatter_plot(
            {"a": [(5.0, 5.0)]}, log_x=False, log_y=False
        )
        assert "o = a" in text


class TestMemoryCommand:
    def test_memory(self, capsys):
        code = main(
            [
                "memory",
                "--distances",
                "3",
                "--per",
                "5e-3",
                "--trials",
                "20",
                "--seed",
                "4",
            ]
        )
        assert code == 0
        assert "block LER" in capsys.readouterr().out
