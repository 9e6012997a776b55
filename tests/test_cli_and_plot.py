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
    """``repro ler`` reports each arm's pooled counts, batched or on the
    bare per-shot loop: it builds no per-shot results or t-tests, and
    loads neither scipy nor networkx."""

    ARGVS = [
        ["ler", "--batch", "4", "--windows", "2", "--json"],
        ["ler", "--errors", "2", "--json"],
    ]

    def test_ler_never_builds_the_sweep(self, monkeypatch, capsys):
        expected = []
        for argv in self.ARGVS:
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)

        def refuse(*args, **kwargs):
            raise AssertionError("repro ler compared the arms")

        monkeypatch.setattr("repro.experiments.sweep.compare_point", refuse)
        for argv, output in zip(self.ARGVS, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == output

    def test_ler_loads_neither_scipy_nor_networkx(self):
        import repro

        script = "\n".join(
            [
                "import contextlib, io, sys",
                "import repro.cli",
                "with contextlib.redirect_stdout(io.StringIO()):",
                f"    codes = {{repro.cli.main(argv) for argv in "
                f"{self.ARGVS!r}}}",
                "print(*codes, [m for m in ('scipy', 'networkx')"
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

    def test_one_sample_per_arm_is_not_significant(self, capsys):
        """Early stopping can commit one sample in each arm, which
        leaves the t-test no degrees of freedom: not significant,
        however the two LERs differ."""
        argv = ["sweep", "--per", "2e-2", "--batch", "4", "--samples", "4"]
        argv += ["--shard-shots", "1", "--target-ci", "0.45", "--seed", "2"]
        assert main(argv + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [arm["committed_shards"] for arm in report["arms"]] == [1, 1]
        comparison = report["sweep"]["points"][0]["comparison"]
        assert (
            comparison["without_frame"]["ler_values"]
            != comparison["with_frame"]["ler_values"]
        )
        assert comparison["rho_independent"] == 1.0
        assert comparison["rho_paired"] is None
        assert report["significant_fraction"] == 0.0

    def test_single_sample_exits_2(self, capsys):
        argv = ["sweep", "--per", "1e-2", "--samples", "1", "--batch", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--samples must be at least 2" in captured.err
        assert captured.out == ""


class TestRunnerFlagsNeedTheirMode:
    """Every ``ler`` and ``sweep`` runs the sharded runner, so its flags
    apply to every line.  ``ler --windows`` needs ``--batch`` and
    ``ler --samples`` the per-shot loop: either one given to the other
    mode is refused with exit 2, naming the flag and the mode it needs,
    before anything runs."""

    LOOP = ["ler", "--per", "5e-2", "--errors", "1"]
    SWEEP = ["sweep", "--per", "1e-2", "--batch", "2", "--samples", "2"]
    SWEEP_LOOP = [
        "sweep", "--per", "1e-2", "--samples", "2", "--errors", "1"
    ]

    @pytest.mark.parametrize(
        "argv, flag, mode",
        [
            (LOOP + ["--windows", "2"], "--windows", "--batch"),
            (
                ["ler", "--batch", "20", "--windows", "2", "--samples", "7"],
                "--samples",
                "--batch",
            ),
            (
                ["ler", "--workers", "1", "--samples", "2", "--windows", "2"],
                "--windows",
                "--batch",
            ),
        ],
        ids=["ler-loop-windows", "ler-batch-samples", "ler-workers-windows"],
    )
    def test_unused_flag_exits_2(self, argv, flag, mode, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{flag} applies to ")
        assert mode in captured.err
        assert captured.out == ""

    @staticmethod
    def runner_kwargs(argv, monkeypatch):
        """What ``main(argv)`` hands ``run_parallel_sweep``, which is
        stopped before it runs anything."""
        from repro.experiments import parallel

        seen = {}

        def record(per, **kwargs):
            seen.update(kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "run_parallel_sweep", record)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        return seen

    @pytest.mark.parametrize(
        "argv",
        [
            LOOP + ["--checkpoint", "CK"],
            LOOP + ["--resume"],
            LOOP + ["--target-ci", "0.01"],
            LOOP + ["--shard-shots", "7"],
            LOOP + ["--samples", "3"],
            LOOP
            + ["--checkpoint", "CK", "--target-ci", "0.01"]
            + ["--samples", "3", "--shard-shots", "7"],
            SWEEP + ["--checkpoint", "CK"],
            SWEEP + ["--resume"],
            SWEEP + ["--target-ci", "0.01"],
            SWEEP + ["--shard-shots", "7"],
            SWEEP_LOOP + ["--checkpoint", "CK"],
        ],
        ids=[
            "ler-loop-checkpoint",
            "ler-loop-resume",
            "ler-loop-target-ci",
            "ler-loop-shard-shots",
            "ler-loop-samples",
            "ler-loop-all",
            "sweep-batch-checkpoint",
            "sweep-batch-resume",
            "sweep-batch-target-ci",
            "sweep-batch-shard-shots",
            "sweep-loop-checkpoint",
        ],
    )
    def test_runner_reads(self, argv, monkeypatch):
        """Loop or batch, with or without ``--workers``: each runner
        flag given reaches the runner's configuration."""
        seen = self.runner_kwargs(argv, monkeypatch)
        config = seen["config"]
        given = {
            "--checkpoint": ("checkpoint", "CK"),
            "--resume": ("resume", True),
            "--target-ci": ("target_ci", 0.01),
            "--shard-shots": ("shard_shots", 7),
        }
        for flag, (field, value) in given.items():
            if flag in argv:
                assert getattr(config, field) == value
        assert config.workers == 1
        if "--samples" in argv:
            assert seen["shots"] == int(argv[argv.index("--samples") + 1])

    def test_loop_ler_checkpoint_resumes(self, tmp_path, capsys):
        """A bare loop ``ler`` writes a checkpoint and resumes from it,
        printing the same arms."""
        argv = self.LOOP + ["--checkpoint", str(tmp_path / "ck.jsonl")]
        assert main(argv + ["--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv + ["--resume", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["arms"] == second["arms"]
        assert (second["executed_shards"], second["resumed_shards"]) == (
            0, 2
        )

    @pytest.mark.parametrize(
        "argv, shots, windows",
        [
            (["ler", "--batch", "4"], 4, 200),
            (["ler", "--workers", "1"], 1, None),
        ],
        ids=["batch", "workers"],
    )
    def test_defaults_reach_the_runner(
        self, argv, shots, windows, monkeypatch
    ):
        """Absent flags still hand the runner (and so the checkpoint
        header) 100 shots per shard, 1 loop shot per arm and 200
        windows."""
        seen = self.runner_kwargs(argv, monkeypatch)
        assert (seen["shots"], seen["windows"]) == (shots, windows)
        assert seen["config"].shard_shots == 100


class TestResumeRefusesAnotherSweep:
    """``--resume`` against a checkpoint that another sweep wrote exits
    2 with one stderr line naming what differs, and prints nothing;
    so does ``--resume`` without any ``--checkpoint``."""

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["ler", "--per", "1e-2"],
            ["ler", "--batch", "4", "--windows", "2"],
            ["sweep", "--per", "1e-2", "--samples", "2"],
            ["sweep", "--per", "1e-2", "--samples", "2", "--batch", "2"],
        ],
        ids=["ler-loop", "ler-batch", "sweep-loop", "sweep-batch"],
    )
    def test_resume_without_checkpoint(self, argv, capsys):
        line = self.refusal(argv + ["--resume", "--json"], capsys)
        assert "--checkpoint" in line

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
    """Only the per-shot loop counts the frame's saved slots, with or
    without ``--workers``; a batched sweep prints ``-`` in that
    column."""

    @pytest.mark.parametrize(
        "argv, measured",
        [
            (["--errors", "1"], True),
            (["--errors", "1", "--workers", "1"], True),
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
            (["verify", "--gates", "0"], "--gates"),
            (["verify", "--gates", "-3", "--iterations", "1"], "--gates"),
            (["ler", "--errors", "0", "--json"], "--errors"),
            (["ler", "--errors", "-2"], "--errors"),
            (
                ["sweep", "--per", "2e-2", "--samples", "2"]
                + ["--errors", "0", "--json"],
                "--errors",
            ),
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
            "verify-gates-0",
            "verify-gates-negative",
            "ler-errors-0",
            "ler-errors-negative",
            "sweep-errors-0",
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
            ([command, "--distances", d, "--trials", "1"], "--distances")
            for command in ("distance", "phenomenological", "memory")
            for d in ("2", "0", "1", "-3")
        ]
        + [
            ([command, "--per", rate, "--trials", "1"], "--per")
            for command in ("distance", "phenomenological", "memory")
            for rate in ("1.5", "-0.1", "nan")
        ]
        + [
            (["ler", "--per", "1.5"], "--per"),
            (["ler", "--per", "1.5", "--batch", "4", "--windows", "2"],
             "--per"),
            (["ler", "--per", "nan"], "--per"),
            (["sweep", "--per", "nan", "--samples", "2", "--batch", "2"],
             "--per"),
            (["sweep", "--per", "1e-2", "-0.1"], "--per"),
        ],
    )
    def test_bad_distance_or_rate_exits_2(self, argv, flag, capsys):
        """The ch. 6 commands take odd distances >= 3, and every
        ``--per`` rates in [0, 1]; anything else is an argparse refusal
        naming the flag."""
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--json"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert f"error: argument {flag}: must be " in errors[0]

    @pytest.mark.parametrize(
        "argv, flag",
        [(["verify", "--qubits", n], "--qubits") for n in ("0", "1", "-2")]
        + [(["bound", "--ts-esm", n], "--ts-esm") for n in ("0", "-1")]
        + [
            (["bound", "--max-distance", "2"], "--max-distance"),
            (
                ["serve", "--self-test", "--port", "0", "--workers", "0"],
                "--workers",
            ),
            (["serve", "--job-concurrency", "0"], "--job-concurrency"),
        ],
    )
    def test_out_of_range_flag_exits_2(self, argv, flag, capsys):
        """Flags that used to raise a traceback, print nonsense or queue
        jobs nothing claims are refused by argparse, naming the flag."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line
            for line in captured.err.splitlines()
            if f"argument {flag}:" in line
        ]
        assert len(errors) == 1

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


class TestTargetCiIsPositive:
    """``--target-ci`` takes a finite half-width above 0: no arm can
    meet 0, a negative or NaN target, so such a flag would run every
    shard while looking set."""

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["ler", "--batch", "4", "--windows", "2"],
            ["sweep", "--batch", "2", "--samples", "2", "--workers", "1"],
        ],
        ids=["ler", "sweep"],
    )
    def test_bad_target_exits_2(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--target-ci", value, "--json"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert errors == [
            f"repro {argv[0]}: error: argument --target-ci: must be a "
            f"finite number > 0, got {value}"
        ]

    def test_wide_target_stops_after_the_first_shard(self, capsys):
        assert main(
            ["ler", "--batch", "10", "--windows", "2", "--shard-shots", "5"]
            + ["--target-ci", "0.5", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert [arm["committed_shards"] for arm in report["arms"]] == [1, 1]


class TestMainReusesOneParser:
    """``main`` parses with one parser per process; every line prints
    what a fresh parser's parse prints, refusals included."""

    LINES = [
        ["ler", "--per", "1e-2", "--batch", "20", "--windows", "3"]
        + ["--seed", "3", "--json"],
        ["ler", "--batch", "4", "--windows", "0"],
        ["phenomenological", "--distances", "5", "9", "--per", "0.01"]
        + ["--trials", "20", "--json"],
    ]

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exited:
            code = exited.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_lines_in_turn_print_fresh_parse_bytes(self, capsys, monkeypatch):
        import repro.cli as cli

        lines = self.LINES + self.LINES[:1]
        shared = [self.run(argv, capsys) for argv in lines]
        monkeypatch.setattr(cli, "_main_parser", build_parser)
        fresh = [self.run(argv, capsys) for argv in lines]
        assert shared == fresh
        assert [code for code, _out, _err in shared] == [0, 2, 0, 0]
        assert shared[0] == shared[3]
        monkeypatch.undo()
        assert cli._main_parser() is cli._main_parser()


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
