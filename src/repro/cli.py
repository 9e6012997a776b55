"""Command-line interface to the reproduction harness.

Every experiment of the paper is reachable from the shell::

    python -m repro verify          # section 5.2 verification benches
    python -m repro ler             # one LER point, both arms
    python -m repro sweep           # Figs 5.11-5.26 (scaled)
    python -m repro census          # section 3.3 Pauli-gate census
    python -m repro schedule        # Fig 3.3 schedule comparison
    python -m repro bound           # Fig 5.27 analytic upper bound
    python -m repro distance        # ch. 6 code-capacity scaling
    python -m repro phenomenological# ch. 6 with measurement errors
    python -m repro memory          # ch. 6 circuit-level d=3 vs d=5
    python -m repro inject          # future work: state injection
    python -m repro report TRACE    # render a saved telemetry trace
    python -m repro lint-circuit    # static circuit pre-flight checks
    python -m repro lint-code       # determinism linter (REPxxx)

Scale knobs (seeds, sample counts, error budgets) are exposed as flags
so paper-scale runs are a command line away.

Three output/observability flags are shared by every subcommand (they
may appear before or after the subcommand name):

``--json``
    Print exactly one machine-readable JSON document (a ``*Report``
    from :mod:`repro.experiments.results`) instead of the human text.
``--trace FILE``
    Record structured telemetry (spans/events/counters from the qpdo
    stack, the simulators, the decoders and the parallel runner) to a
    JSON-lines file, renderable later with ``repro report FILE``.
``--metrics``
    Print the end-of-run telemetry summary table to stderr.

Every handler builds one report dataclass and hands it to
:func:`_emit`; all human formatting lives in :mod:`repro.cli_format`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Union

from .experiments.ler import ENGINES

#: Logical-error quota per loop-mode run when ``--errors`` is absent.
LER_DEFAULT_ERRORS = 10
SWEEP_DEFAULT_ERRORS = 4
#: ``--shard-shots``, ``ler --samples`` and ``ler --windows`` when the
#: flag is absent.  The flags themselves default to ``None`` so that a
#: mode which does not read one can refuse it.
DEFAULT_SHARD_SHOTS = 100
LER_DEFAULT_SAMPLES = 10
LER_DEFAULT_WINDOWS = 200
#: The sharded runner's flags.
RUNNER_FLAGS = ("--checkpoint", "--resume", "--target-ci", "--shard-shots")


def _add_output_arguments(
    parser: argparse.ArgumentParser, suppress: bool = True
) -> None:
    """The shared ``--json`` / ``--trace`` / ``--metrics`` flags.

    The root parser holds the real defaults; every subparser re-adds
    the same flags with ``default=argparse.SUPPRESS`` so a flag given
    *after* the subcommand sets the attribute while an absent one
    leaves the root default untouched.
    """
    json_kwargs = {} if suppress else {"default": False}
    trace_kwargs = {} if suppress else {"default": None}
    metrics_kwargs = {} if suppress else {"default": False}
    if suppress:
        json_kwargs["default"] = argparse.SUPPRESS
        trace_kwargs["default"] = argparse.SUPPRESS
        metrics_kwargs["default"] = argparse.SUPPRESS
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one machine-readable JSON document instead of the "
        "human-readable text",
        **json_kwargs,
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record telemetry (spans, counters, events) to FILE as "
        "JSON lines; render later with 'repro report FILE'",
        **trace_kwargs,
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the end-of-run telemetry summary table to stderr",
        **metrics_kwargs,
    )


def _positive_int(text: str) -> int:
    """Argparse type of the size flags: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _code_distance(text: str) -> int:
    """Argparse type of ``--distances``: an odd integer of at least 3."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 3 or value % 2 == 0:
        raise argparse.ArgumentTypeError(
            f"must be an odd integer >= 3, got {value}"
        )
    return value


def _probability(text: str) -> float:
    """Argparse type of the ch. 6 ``--per``: a finite rate in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], got {text}"
        )
    return value


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    """The batched-core selector (ler and sweep, --batch mode)."""
    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="framesim",
        help="frame stream of --batch mode, 64 shots per word either "
        "way: 'framesim' (exact, one uniform per shot and channel) "
        "or 'packed-fast' (word-level noise draws; statistically "
        "identical, faster)",
    )


def _add_decoder_argument(
    parser: argparse.ArgumentParser, default: str = "lut"
) -> None:
    """The registry decoder selector (``--decoder NAME``)."""
    parser.add_argument(
        "--decoder",
        default=default,
        metavar="NAME",
        help="registry decoder to decode with (see 'repro decoders' "
        f"for the catalogue); default {default!r}",
    )


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    """The shot-sharded parallel runner's flags (ler and sweep)."""
    parser.add_argument(
        "--workers",
        type=_positive_int,
        metavar="N",
        help="run shot-sharded across N worker processes "
        "(1 runs the same sharded schedule inline); results are "
        "bit-identical for any N",
    )
    parser.add_argument(
        "--shard-shots",
        type=_positive_int,
        metavar="SHOTS",
        help="shots per shard of the sharded runner (default "
        f"{DEFAULT_SHARD_SHOTS}): the granularity of seeds, records, "
        "checkpoints and early stopping; one core call spans many "
        "shards",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="JSON-lines checkpoint file: one record per completed "
        "shard, appended atomically",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay the checkpoint's completed shards and execute "
        "only the missing ones",
    )
    parser.add_argument(
        "--target-ci",
        type=float,
        metavar="HALFWIDTH",
        help="stop a (PER, arm) point early once the Wilson 95%% CI "
        "half-width of its pooled LER meets this target",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Pauli Frames for Quantum "
            "Computer Architectures' (DAC 2017)."
        ),
    )
    _add_output_arguments(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, **kwargs)
        _add_output_arguments(subparser)
        return subparser

    verify = add_parser(
        "verify", help="Pauli-frame verification benches (section 5.2)"
    )
    verify.add_argument("--iterations", type=_positive_int, default=10)
    verify.add_argument("--qubits", type=int, default=5)
    verify.add_argument("--gates", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)

    ler = add_parser(
        "ler", help="one logical-error-rate point, both arms (section 5.3)"
    )
    ler.add_argument("--per", type=float, default=5e-3)
    ler.add_argument(
        "--errors",
        type=int,
        help="stop each run after this many logical errors (loop mode "
        f"only; default {LER_DEFAULT_ERRORS})",
    )
    ler.add_argument("--kind", choices=["x", "z"], default="x")
    ler.add_argument("--seed", type=int, default=0)
    # Unlike the other size flags, a non-positive ``ler --batch`` is
    # refused by the sharded runner (``ValueError: shots must be
    # positive``), not by argparse.
    ler.add_argument(
        "--batch",
        type=int,
        nargs="?",
        const=25,
        metavar="SHOTS",
        help="use the batched frame sampler with this many lockstep "
        "shots per arm (default 25 when the flag is bare) instead of "
        "the per-shot tableau loop; runs through the shot-sharded "
        "engine (inline unless --workers is given)",
    )
    ler.add_argument(
        "--windows",
        type=_positive_int,
        help="windows per shot in --batch mode (default "
        f"{LER_DEFAULT_WINDOWS})",
    )
    ler.add_argument(
        "--samples",
        type=_positive_int,
        help="independent per-shot runs per arm when the parallel "
        "runner is used without --batch (loop mode; default "
        f"{LER_DEFAULT_SAMPLES})",
    )
    _add_engine_argument(ler)
    _add_decoder_argument(ler)
    _add_parallel_arguments(ler)

    sweep = add_parser(
        "sweep", help="PER sweep with/without frame (Figs 5.11-5.26)"
    )
    sweep.add_argument(
        "--per",
        type=float,
        nargs="+",
        default=[3e-3, 6e-3, 1e-2],
        help="PER grid",
    )
    sweep.add_argument("--samples", type=_positive_int, default=3)
    sweep.add_argument(
        "--errors",
        type=int,
        help="stop each run after this many logical errors (loop mode "
        f"only; default {SWEEP_DEFAULT_ERRORS})",
    )
    sweep.add_argument("--kind", choices=["x", "z"], default="x")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--plot", action="store_true", help="render the ASCII figure"
    )
    sweep.add_argument(
        "--batch",
        type=_positive_int,
        metavar="WINDOWS",
        help="use the batched frame sampler: --samples becomes the "
        "lockstep shot count per arm and each shot runs exactly this "
        "many windows",
    )
    _add_engine_argument(sweep)
    _add_decoder_argument(sweep)
    _add_parallel_arguments(sweep)

    add_parser(
        "decoders",
        help="list the registered decoders (names and capabilities)",
    )

    add_parser(
        "census", help="Pauli-gate census of the workloads (section 3.3)"
    )
    add_parser(
        "schedule", help="QEC schedule comparison (Fig 3.3)"
    )
    bound = add_parser(
        "bound", help="analytic improvement upper bound (Fig 5.27)"
    )
    bound.add_argument("--max-distance", type=int, default=11)
    bound.add_argument("--ts-esm", type=int, default=8)

    distance = add_parser(
        "distance", help="code-capacity distance scaling (ch. 6)"
    )
    distance.add_argument(
        "--distances", type=_code_distance, nargs="+", default=[3, 5]
    )
    distance.add_argument(
        "--per", type=_probability, nargs="+", default=[0.02, 0.05, 0.10]
    )
    distance.add_argument("--trials", type=_positive_int, default=1500)
    distance.add_argument("--seed", type=int, default=0)
    _add_decoder_argument(distance, default="mwpm")

    phenom = add_parser(
        "phenomenological",
        help="distance scaling with measurement errors (ch. 6)",
    )
    phenom.add_argument(
        "--distances", type=_code_distance, nargs="+", default=[3, 5]
    )
    phenom.add_argument(
        "--per", type=_probability, nargs="+", default=[0.01, 0.02, 0.04]
    )
    phenom.add_argument("--trials", type=_positive_int, default=400)
    phenom.add_argument("--seed", type=int, default=0)
    _add_decoder_argument(phenom, default="mwpm")

    memory = add_parser(
        "memory",
        help="circuit-level block memory at distance d (ch. 6)",
    )
    memory.add_argument(
        "--distances", type=_code_distance, nargs="+", default=[3, 5]
    )
    memory.add_argument("--per", type=_probability, default=1e-3)
    memory.add_argument("--trials", type=_positive_int, default=200)
    memory.add_argument("--seed", type=int, default=0)
    _add_decoder_argument(memory, default="mwpm")

    inject = add_parser(
        "inject", help="logical state injection demo (future work)"
    )
    inject.add_argument("--theta", type=float, default=0.7853981634)
    inject.add_argument("--phi", type=float, default=0.0)
    inject.add_argument("--seed", type=int, default=1)

    report = add_parser(
        "report",
        help="render a saved telemetry trace into per-layer/"
        "per-kernel breakdowns",
    )
    report.add_argument(
        "trace_file",
        metavar="TRACE",
        help="JSON-lines trace written by --trace FILE",
    )

    lint_circuit = add_parser(
        "lint-circuit",
        help="statically verify a named circuit without simulating "
        "(gate/arity checks, slot conflicts, liveness, Clifford "
        "routing, abstract Pauli-frame propagation)",
    )
    lint_circuit.add_argument(
        "circuit",
        nargs="?",
        default="sc17-esm",
        help="catalog name (sc17-esm, sc17-esm-serial, "
        "sc17-esm-z-only, steane-esm, bell, adder, teleport, "
        "clifford-t); default sc17-esm",
    )
    lint_circuit.add_argument(
        "--target",
        choices=["stabilizer", "statevector", "packed", "none"],
        default="stabilizer",
        help="capability set the circuit's routing is checked "
        "against (default: the stabilizer core; 'packed' is the "
        "bit-packed lockstep batched core, which refuses "
        "non-Clifford circuits)",
    )
    lint_circuit.add_argument(
        "--initial-frame",
        choices=["unknown", "clean"],
        default="unknown",
        help="abstract Pauli frame assumed on entry (default: "
        "unknown, sound for mid-stream fragments)",
    )
    lint_circuit.add_argument(
        "--frame-policy",
        choices=["forbid", "warn"],
        default="forbid",
        help="'forbid' fails circuits a frame cannot commute "
        "through; 'warn' only reports them (a runtime frame unit "
        "could still flush)",
    )
    lint_circuit.add_argument(
        "--inject-t",
        action="store_true",
        help="splice a T gate into the circuit's midpoint first "
        "(negative control: must produce a CIR009 finding)",
    )

    serve = add_parser(
        "serve",
        help="run the async decode/sweep HTTP service with a "
        "persistent warm-cache worker fleet",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8714,
        help="listen port; 0 picks an ephemeral port (default 8714)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes in the persistent fleet (default 2)",
    )
    serve.add_argument(
        "--job-concurrency",
        type=int,
        default=1,
        help="jobs executed concurrently; 1 (default) also enables "
        "full per-job shard telemetry on the /events stream",
    )
    serve.add_argument(
        "--spool",
        help="directory for the job journal, per-job checkpoints "
        "and trace files (default .repro-spool; --self-test uses "
        "a temporary one)",
    )
    serve.add_argument(
        "--job-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict finished jobs older than this at boot and "
        "compact the journal (default: keep forever)",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N jobs across restarts, evicting the "
        "oldest finished ones at boot (default: unbounded)",
    )
    serve.add_argument(
        "--self-test",
        action="store_true",
        help="boot an ephemeral server, run one job of each kind "
        "over HTTP, schema-check every document, then exit",
    )

    lint_code = add_parser(
        "lint-code",
        help="run the determinism linter (REPxxx rules) over the "
        "package sources",
    )
    lint_code.add_argument(
        "roots",
        nargs="*",
        default=[],
        help="directories or files to lint, combined into one "
        "report (default: the installed repro package sources)",
    )

    analyze = add_parser(
        "analyze",
        help="whole-program static analysis without running "
        "anything (see 'repro analyze matrix')",
    )
    analyze.add_argument(
        "what",
        choices=["matrix"],
        help="matrix: verify every registered decoder x experiment "
        "combination, serve params validation and the documented "
        "--decoder grammar",
    )

    return parser


def _emit(args, report, human: Union[str, Callable[[], str]]) -> None:
    """Print the subcommand's one output document.

    ``--json`` prints ``report.to_json()``; otherwise the human
    rendering (a string, or a zero-argument callable evaluated lazily
    so the human path's imports stay off the ``--json`` path).
    """
    if args.json:
        print(report.to_json())
    else:
        print(human() if callable(human) else human)


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def cmd_verify(args) -> int:
    from .cli_format import render_verify
    from .experiments.results import VerifyReport
    from .experiments.verification import (
        run_odd_bell_state_bench,
        run_random_circuit_verification,
    )

    bench = run_random_circuit_verification(
        iterations=args.iterations,
        num_qubits=args.qubits,
        num_gates=args.gates,
        seed=args.seed,
    )
    matches = sum(1 for o in bench.outcomes if o.states_match)
    bell = run_odd_bell_state_bench(iterations=6, seed=args.seed)
    ok = bench.all_match and bell.both_valid
    report = VerifyReport(
        iterations=bench.iterations,
        matches=matches,
        total_gates_filtered=bench.total_gates_filtered,
        all_match=bench.all_match,
        histogram_with_frame=bell.histogram_with_frame,
        histogram_without_frame=bell.histogram_without_frame,
        both_valid=bell.both_valid,
        passed=ok,
    )
    _emit(args, report, lambda: render_verify(report))
    return 0 if ok else 1


def _parallel_config(args):
    from .experiments.parallel import ParallelConfig

    return ParallelConfig(
        workers=args.workers if args.workers is not None else 1,
        shard_shots=(
            DEFAULT_SHARD_SHOTS
            if args.shard_shots is None
            else args.shard_shots
        ),
        checkpoint=args.checkpoint,
        resume=args.resume,
        target_ci=args.target_ci,
    )


def _run_sharded(per_values, **kwargs):
    """``run_parallel_sweep``, or ``None`` (after one line on stderr)
    when ``--resume`` meets a checkpoint of a different sweep --
    callers exit 2."""
    from .experiments.parallel import (
        CheckpointMismatchError,
        run_parallel_sweep,
    )

    try:
        return run_parallel_sweep(per_values, **kwargs)
    except CheckpointMismatchError as error:
        print(f"--resume: {error}", file=sys.stderr)
        return None


def _errors_or_default(args, default: int) -> Optional[int]:
    """The ``--errors`` quota, or ``None`` (after printing to stderr)
    when it is combined with ``--batch``.

    The batched protocol runs a fixed number of windows per shot and
    has no logical-error stopping rule, so an explicit ``--errors``
    there would be silently ignored.  Without the flag the default is
    still passed on: it is part of the parallel checkpoint header.
    """
    if args.errors is None:
        return default
    if args.batch is not None:
        print(
            "--errors applies to the per-shot loop only; --batch runs "
            "a fixed number of windows per shot (drop --errors, or "
            "set the windows instead)",
            file=sys.stderr,
        )
        return None
    return args.errors


def _refuse_unread_flags(args, checks) -> bool:
    """Refuse a flag the selected mode would silently ignore.

    ``checks`` holds ``(flags, read, mode)`` triples: when ``read`` is
    false, the first of ``flags`` given on the command line is refused
    with ``<flag> applies to <mode>`` on stderr, and ``True`` is
    returned (callers exit 2).  The flags default to ``None``
    (``--resume`` to ``False``), so any other value means it was given.
    """
    for flags, read, mode in checks:
        if read:
            continue
        for flag in flags:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None and value is not False:
                print(f"{flag} applies to {mode}", file=sys.stderr)
                return True
    return False


def _require_batch_for_engine(args) -> bool:
    """Engines other than framesim exist only behind --batch."""
    if args.engine != "framesim" and args.batch is None:
        print(
            "--engine applies to the batched sampler only; "
            "add --batch WINDOWS/SHOTS to use it",
            file=sys.stderr,
        )
        return False
    return True


def _parse_decoder(args) -> Optional[str]:
    """The registry decoder ``--decoder NAME`` selects, or ``None``.

    ``None`` (after one line on stderr) on an unregistered name or a
    decoder without the subcommand's capability -- callers translate
    that into exit code 2.  The windowed protocol's subcommands
    (``ler``, ``sweep``: the ones with ``--batch``) take a decoder
    other than ``lut`` only with ``--batch``, since the per-shot
    tableau loop decodes with the LUT.
    """
    from .decoders.registry import (
        CAP_SPACETIME,
        CAP_WINDOWED,
        UnknownDecoderError,
        get_decoder,
    )

    try:
        spec = get_decoder(args.decoder)
    except UnknownDecoderError as error:
        print(f"--decoder: {error}", file=sys.stderr)
        return None
    windowed = hasattr(args, "batch")
    required = CAP_WINDOWED if windowed else CAP_SPACETIME
    if required not in spec.capabilities:
        print(
            f"--decoder: {spec.name!r} lacks the {required!r} "
            f"capability that {args.command} needs",
            file=sys.stderr,
        )
        return None
    if windowed and args.batch is None and spec.name != "lut":
        print(
            "--decoder applies to the batched sampler only; "
            "add --batch WINDOWS/SHOTS to use it",
            file=sys.stderr,
        )
        return None
    return spec.name


def cmd_ler(args) -> int:
    from .cli_format import render_ler
    from .experiments.results import ArmReport, LerReport

    if not _require_batch_for_engine(args):
        return 2
    batch, workers = args.batch is not None, args.workers is not None
    if _refuse_unread_flags(
        args,
        [
            (
                RUNNER_FLAGS,
                batch or workers,
                "the sharded runner only; add --batch SHOTS or "
                "--workers N to use it",
            ),
            (
                ("--windows",),
                batch,
                "the batched sampler only; add --batch SHOTS to use it",
            ),
            (
                ("--samples",),
                workers and not batch,
                "the sharded per-shot loop only (--workers N without "
                "--batch); with --batch, SHOTS sets the shots per arm",
            ),
        ],
    ):
        return 2
    errors = _errors_or_default(args, LER_DEFAULT_ERRORS)
    if errors is None:
        return 2
    decoder = _parse_decoder(args)
    if decoder is None:
        return 2
    if workers or batch:
        samples = LER_DEFAULT_SAMPLES if args.samples is None else args.samples
        windows = LER_DEFAULT_WINDOWS if args.windows is None else args.windows
        parallel = _run_sharded(
            [args.per],
            error_kind=args.kind,
            shots=args.batch if batch else samples,
            windows=windows if batch else None,
            seed=args.seed,
            config=_parallel_config(args),
            max_logical_errors=errors,
            engine=args.engine,
            decoder=decoder,
        )
        if parallel is None:
            return 2
        report = parallel.ler_report(args.seed)
    else:
        from .experiments.ler import LerExperiment

        arms = []
        for use_frame in (False, True):
            result = LerExperiment(
                args.per,
                use_pauli_frame=use_frame,
                error_kind=args.kind,
                max_logical_errors=errors,
                seed=args.seed,
            ).run()
            arms.append(
                ArmReport(
                    use_pauli_frame=use_frame,
                    logical_errors=result.logical_errors,
                    windows=result.windows,
                    logical_error_rate=result.logical_error_rate,
                    corrections_commanded=result.corrections_commanded,
                    saved_slots_fraction=(
                        result.saved_slots_fraction if use_frame else None
                    ),
                )
            )
        report = LerReport(
            physical_error_rate=args.per,
            error_kind=args.kind,
            mode="loop",
            seed=args.seed,
            arms=arms,
        )
    _emit(args, report, lambda: render_ler(report))
    return 0


def cmd_sweep(args) -> int:
    from .cli_format import render_sweep
    from .experiments.results import SweepReport
    from .experiments.stats import mean_rho, significant_fraction

    if not _require_batch_for_engine(args):
        return 2
    if args.samples < 2:
        print(
            "--samples must be at least 2: each point's t-tests need "
            "two samples per arm",
            file=sys.stderr,
        )
        return 2
    if _refuse_unread_flags(
        args,
        [
            (
                RUNNER_FLAGS,
                args.workers is not None,
                "the sharded runner only; add --workers N to use it",
            )
        ],
    ):
        return 2
    errors = _errors_or_default(args, SWEEP_DEFAULT_ERRORS)
    if errors is None:
        return 2
    decoder_name = _parse_decoder(args)
    if decoder_name is None:
        return 2
    if args.workers is not None:
        parallel = _run_sharded(
            args.per,
            error_kind=args.kind,
            shots=args.samples,
            windows=args.batch,
            seed=args.seed,
            config=_parallel_config(args),
            max_logical_errors=errors,
            engine=args.engine,
            decoder=decoder_name,
        )
        if parallel is None:
            return 2
        sweep = parallel.sweep
        arms = []
        for index in range(len(args.per)):
            for use_frame in (False, True):
                arm_dict = parallel.arm_report(
                    index, use_frame
                ).to_json_dict()
                arm_dict.pop("kind")
                arms.append({"point_index": index, **arm_dict})
        extra = {
            "arms": arms,
            "committed_shards": parallel.committed_shards,
            "executed_shards": parallel.executed_shards,
            "resumed_shards": parallel.resumed_shards,
        }
    else:
        from .experiments.sweep import run_ler_sweep

        sweep = run_ler_sweep(
            per_values=args.per,
            error_kind=args.kind,
            samples=args.samples,
            max_logical_errors=errors,
            seed=args.seed,
            batch_windows=args.batch,
            decoder_impl=decoder_name,
            engine=args.engine,
        )
        extra = {}
    comparisons = [point.comparison for point in sweep.points]
    report = SweepReport(
        error_kind=args.kind,
        seed=args.seed,
        mean_rho=mean_rho(comparisons),
        significant_fraction=significant_fraction(comparisons),
        sweep=sweep,
        decoder=decoder_name if args.batch is not None else None,
        **extra,
    )
    _emit(args, report, lambda: render_sweep(report, plot=args.plot))
    return 0


def cmd_decoders(args) -> int:
    from .cli_format import render_decoders
    from .decoders.registry import list_decoders
    from .experiments.results import DecodersReport

    report = DecodersReport(
        decoders=[spec.describe() for spec in list_decoders()]
    )
    _emit(args, report, lambda: render_decoders(report))
    return 0


def cmd_census(args) -> int:
    from .circuits import census, workloads
    from .cli_format import render_census
    from .experiments.results import CensusReport

    censuses = {
        name: census(circuit)
        for name, circuit in workloads.all_workloads().items()
    }
    report = CensusReport(
        workloads={
            name: {
                "per_gate": dict(result.per_gate),
                "per_class": {
                    gate_class.name: count
                    for gate_class, count in result.per_class.items()
                },
                "total_operations": result.total_operations,
                "total_slots": result.total_slots,
                "pauli_only_slots": result.pauli_only_slots,
                "pauli_gate_count": result.pauli_gate_count,
                "pauli_fraction": result.pauli_fraction,
                "non_clifford_count": result.non_clifford_count,
            }
            for name, result in censuses.items()
        }
    )
    _emit(args, report, lambda: render_census(censuses))
    return 0


def cmd_schedule(args) -> int:
    from .cli_format import render_schedule
    from .experiments.results import ScheduleReport
    from .experiments.schedule import compare_schedules

    comparison = compare_schedules()

    def outcome_dict(outcome):
        return {
            "window_duration": outcome.window_duration,
            "qubit_busy_time": outcome.qubit_busy_time,
            "decoder_deadline": outcome.decoder_deadline,
            "idle_fraction": outcome.idle_fraction,
        }

    report = ScheduleReport(
        without_frame=outcome_dict(comparison.without_frame),
        with_frame=outcome_dict(comparison.with_frame),
        time_saved=comparison.time_saved,
        relative_time_saved=comparison.relative_time_saved,
        decoder_deadline_relaxation=comparison.decoder_deadline_relaxation,
    )
    _emit(args, report, lambda: render_schedule(report))
    return 0


def cmd_bound(args) -> int:
    from .cli_format import render_bound
    from .experiments.analytic import ImprovementBound
    from .experiments.results import BoundReport

    report = BoundReport(
        ts_esm=args.ts_esm,
        rows=[
            {
                "distance": bound.distance,
                "ts_window_without_frame": bound.ts_window_without_frame,
                "ts_window_with_frame": bound.ts_window_with_frame,
                "relative_improvement": bound.relative_improvement,
            }
            for bound in (
                ImprovementBound.for_distance(d, args.ts_esm)
                for d in range(3, args.max_distance + 1)
            )
        ],
    )
    _emit(args, report, lambda: render_bound(report))
    return 0


def cmd_distance(args) -> int:
    from .cli_format import render_distance
    from .experiments.distance import run_distance_scaling
    from .experiments.results import DistanceReport

    decoder = _parse_decoder(args)
    if decoder is None:
        return 2
    results = run_distance_scaling(
        distances=args.distances,
        per_values=args.per,
        trials=args.trials,
        seed=args.seed,
        decoder=decoder,
    )
    report = DistanceReport(
        trials=args.trials,
        seed=args.seed,
        rows=[
            {
                "distance": r.distance,
                "physical_error_rate": r.physical_error_rate,
                "trials": r.trials,
                "logical_errors": r.logical_errors,
                "logical_error_rate": r.logical_error_rate,
            }
            for d in sorted(results)
            for r in results[d]
        ],
    )
    _emit(args, report, lambda: render_distance(report))
    return 0


def cmd_phenomenological(args) -> int:
    from .cli_format import render_phenomenological
    from .experiments.phenomenological import (
        run_phenomenological_scaling,
    )
    from .experiments.results import PhenomenologicalReport

    decoder = _parse_decoder(args)
    if decoder is None:
        return 2
    results = run_phenomenological_scaling(
        distances=args.distances,
        per_values=args.per,
        trials=args.trials,
        seed=args.seed,
        decoder=decoder,
    )
    report = PhenomenologicalReport(
        trials=args.trials,
        seed=args.seed,
        rows=[
            {
                "distance": r.distance,
                "data_error_rate": r.data_error_rate,
                "measurement_error_rate": r.measurement_error_rate,
                "trials": r.trials,
                "logical_errors": r.logical_errors,
                "logical_error_rate": r.logical_error_rate,
            }
            for d in sorted(results)
            for r in results[d]
        ],
    )
    _emit(args, report, lambda: render_phenomenological(report))
    return 0


def cmd_memory(args) -> int:
    from .cli_format import render_memory
    from .experiments.memory import run_block_scaling
    from .experiments.results import MemoryReport

    decoder = _parse_decoder(args)
    if decoder is None:
        return 2
    results = run_block_scaling(
        distances=args.distances,
        physical_error_rate=args.per,
        trials=args.trials,
        seed=args.seed,
        decoder=decoder,
    )
    report = MemoryReport(
        physical_error_rate=args.per,
        trials=args.trials,
        seed=args.seed,
        rows=[
            {
                "distance": r.distance,
                "physical_error_rate": r.physical_error_rate,
                "use_pauli_frame": r.use_pauli_frame,
                "windows": r.windows,
                "logical_errors": r.logical_errors,
                "clean_windows": r.clean_windows,
                "logical_error_rate": r.logical_error_rate,
            }
            for r in results
        ],
    )
    _emit(args, report, lambda: render_memory(report))
    return 0


def cmd_inject(args) -> int:
    from .cli_format import render_inject
    from .codes.surface17 import NinjaStarLayer
    from .codes.surface17.injection import (
        expected_bloch_vector,
        inject_logical_state,
        logical_bloch_vector,
    )
    from .experiments.results import InjectReport
    from .qpdo import StateVectorCore

    layer = NinjaStarLayer(StateVectorCore(seed=args.seed))
    layer.createqubit(1)
    inject_logical_state(layer, 0, args.theta, args.phi)
    observed = logical_bloch_vector(layer, 0)
    expected = expected_bloch_vector(args.theta, args.phi)
    error = max(abs(o - e) for o, e in zip(observed, expected))
    report = InjectReport(
        theta=args.theta,
        phi=args.phi,
        observed=[float(v) for v in observed],
        expected=[float(v) for v in expected],
        max_error=float(error),
        passed=bool(error < 1e-6),
    )
    _emit(args, report, lambda: render_inject(report))
    return 0 if report.passed else 1


def cmd_report(args) -> int:
    from .cli_format import render_trace_report
    from .experiments.results import TraceReport
    from .telemetry.report import aggregate_trace, load_trace

    aggregate = aggregate_trace(load_trace(args.trace_file))
    report = TraceReport(
        path=args.trace_file,
        spans=aggregate.span_rows(),
        counters=aggregate.counter_rows(),
        events=aggregate.event_rows(),
    )
    _emit(args, report, lambda: render_trace_report(report))
    return 0


def cmd_lint_circuit(args) -> int:
    from .analysis import (
        build_catalog_circuit,
        inject_t_gate,
        verify_circuit,
    )
    from .cli_format import render_circuit_report
    from .experiments.results import CircuitReport
    from .qpdo.core import CAP_BATCH, CAP_NON_CLIFFORD, CAP_QUANTUM_STATE

    try:
        circuit = build_catalog_circuit(args.circuit)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.inject_t:
        circuit = inject_t_gate(circuit)
    target = {
        "none": None,
        "stabilizer": frozenset(),
        "statevector": frozenset(
            {CAP_QUANTUM_STATE, CAP_NON_CLIFFORD}
        ),
        "packed": frozenset({CAP_BATCH}),
    }[args.target]
    analysis = verify_circuit(
        circuit,
        target=target,
        initial_frame=args.initial_frame,
        frame_policy=args.frame_policy,
    )
    report = CircuitReport(
        circuit=circuit.name,
        target=None if args.target == "none" else args.target,
        initial_frame=args.initial_frame,
        frame_policy=args.frame_policy,
        num_qubits=analysis.num_qubits,
        num_slots=analysis.num_slots,
        num_operations=analysis.num_operations,
        gate_census=analysis.gate_census,
        is_clifford=analysis.is_clifford,
        routing=analysis.routing,
        frame_safe=analysis.frame_safe,
        findings=[f.to_json_dict() for f in analysis.findings],
        errors=len(analysis.errors),
        warnings=len(analysis.warnings),
        passed=analysis.passed,
    )
    _emit(args, report, lambda: render_circuit_report(report))
    return 0 if analysis.passed else 1


def cmd_lint_code(args) -> int:
    from pathlib import Path

    from .cli_format import render_lint_report
    from .experiments.results import LintReport
    from .tools import lint

    roots = (
        [Path(root) for root in args.roots]
        if args.roots
        else [lint.default_root()]
    )
    findings = []
    files_checked = 0
    for root in roots:
        findings.extend(lint.lint_paths(root))
        files_checked += len(lint.iter_source_files(root))
    offending = lint.unsuppressed(findings)
    counts: dict = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    report = LintReport(
        root=" ".join(str(root) for root in roots),
        files_checked=files_checked,
        findings=[f.to_json_dict() for f in findings],
        counts_by_code=counts,
        suppressed=len(findings) - len(offending),
        unsuppressed=len(offending),
        passed=not offending,
    )
    _emit(args, report, lambda: render_lint_report(report))
    return 0 if report.passed else 1


def cmd_analyze(args) -> int:
    from .analysis.matrix import verify_matrix
    from .cli_format import render_matrix_report
    from .experiments.results import MatrixReport

    verification = verify_matrix()
    report = MatrixReport(
        decoders=verification.decoders,
        experiments=verification.experiments,
        cells=[cell.to_json_dict() for cell in verification.cells],
        doc_examples=verification.doc_examples,
        problems=verification.problems,
        passed=verification.passed,
    )
    _emit(args, report, lambda: render_matrix_report(report))
    return 0 if report.passed else 1


def cmd_serve(args) -> int:
    import dataclasses
    import tempfile

    from .serve import ServeConfig, run_self_test, run_server

    if args.self_test and args.spool is not None:
        print(
            "--spool: --self-test runs on its own temporary spool",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        job_concurrency=args.job_concurrency,
        job_ttl=args.job_ttl,
        max_jobs=args.max_jobs,
    )
    if args.spool is not None:
        config = dataclasses.replace(config, spool=args.spool)
    if args.self_test:
        with tempfile.TemporaryDirectory(prefix="repro-self-test-") as spool:
            report = run_self_test(dataclasses.replace(config, spool=spool))
        _emit(
            args,
            report,
            lambda: (
                f"serve self-test: {'PASS' if report.passed else 'FAIL'} "
                f"({report.completed}/{report.submitted} jobs, "
                f"{report.documents_validated} documents validated)"
            ),
        )
        return 0 if report.passed else 1
    return run_server(config)


_HANDLERS = {
    "verify": cmd_verify,
    "ler": cmd_ler,
    "sweep": cmd_sweep,
    "decoders": cmd_decoders,
    "census": cmd_census,
    "schedule": cmd_schedule,
    "bound": cmd_bound,
    "distance": cmd_distance,
    "phenomenological": cmd_phenomenological,
    "memory": cmd_memory,
    "inject": cmd_inject,
    "report": cmd_report,
    "serve": cmd_serve,
    "lint-circuit": cmd_lint_circuit,
    "lint-code": cmd_lint_code,
    "analyze": cmd_analyze,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    collector = None
    if args.trace or args.metrics:
        from . import telemetry
        from .telemetry.sinks import JsonLinesSink

        sinks = [JsonLinesSink(args.trace)] if args.trace else []
        collector = telemetry.enable(
            telemetry.TelemetryCollector(sinks)
        )
    try:
        return _HANDLERS[args.command](args)
    finally:
        if collector is not None:
            from . import telemetry

            telemetry.disable()
            collector.close()
            if args.metrics:
                print(collector.summary_table(), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
