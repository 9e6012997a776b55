"""Tests for the CLI entry points and the ASCII plotting utility."""

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
