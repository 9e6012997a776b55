"""Golden digests of the three graph decoders: mwpm, unionfind, sparse-mwpm.

Each algorithm decodes in three forms: a space-graph class, a
space-time class and a dense gather table for the Surface-17 windowed
protocol.  This file pins all three forms bit for bit, plus the
``--json`` reports of the four subcommands that decode with them, so
that a refactor of the code around the solvers (batch dedupe,
detection events, syndrome enumeration) cannot move an output bit
unnoticed.  Union-find is also pinned at d = 7 to 13, on batches with
repeated rows (the space-time ones span several of its decode
chunks), and through the ``phenom-uf`` benchmark operation and a
``distance`` sweep.
Union-find's rotated d = 3 tables are pinned in
``tests/test_unionfind.py`` (``GOLDEN_D3_DIGESTS``).

If a decoder change is *intentional*, regenerate the constants (each
test's body shows exactly how) and say so in the commit message.
"""

import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.codes.rotated import RotatedSurfaceCode
from repro.codes.surface17 import X_CHECK_MATRIX, Z_CHECK_MATRIX
from repro.decoders import (
    boundary_qubits_for,
    clear_lut_cache,
    mwpm_dense_lut,
    sparse_mwpm_dense_lut,
    unionfind_dense_lut,
)
from repro.decoders.registry import get_decoder

GRAPH_DECODERS = ("mwpm", "unionfind", "sparse-mwpm")

TABLE_FUNCTIONS = {
    "mwpm": mwpm_dense_lut,
    "unionfind": unionfind_dense_lut,
    "sparse-mwpm": sparse_mwpm_dense_lut,
}

#: SHA-256 prefixes of the packed dense tables, keyed by
#: ``(code, algorithm, species)``: ``sc17`` is the windowed protocol's
#: check matrices (with the rotated d = 3 boundary geometry, as
#: ``BatchedLerExperiment`` builds them), ``d3`` the rotated code's.
GOLDEN_TABLES = {
    ("sc17", "mwpm", "x"): "af7ccbda9b6ede0c",
    ("sc17", "mwpm", "z"): "d8778b5c8fd3f7bd",
    ("sc17", "unionfind", "x"): "f71058c615539471",
    ("sc17", "unionfind", "z"): "ca610f1ee10fb8e0",
    ("sc17", "sparse-mwpm", "x"): "e4f730f10a3b957b",
    ("sc17", "sparse-mwpm", "z"): "9c928c64ca60dd6a",
    ("d3", "mwpm", "x"): "c487c800c82bfe12",
    ("d3", "mwpm", "z"): "ac4351357df78208",
    ("d3", "sparse-mwpm", "x"): "fda03c227606a075",
    ("d3", "sparse-mwpm", "z"): "aae2ad80fdc41d2b",
}

#: SHA-256 prefixes of ``decode_batch`` over a seeded Z-check batch,
#: keyed by ``(algorithm, form, distance)``: ``space`` decodes a
#: ``(300, checks)`` syndrome batch, ``spacetime`` a
#: ``(200, d + 1, checks)`` phenomenological history batch.
GOLDEN_BATCHES = {
    ("mwpm", "space", 3): "afb2b80ddd3417e0",
    ("mwpm", "spacetime", 3): "bf3073d03050ca25",
    ("mwpm", "space", 5): "6a0de72c6f69d865",
    ("mwpm", "spacetime", 5): "c719240288cb48cd",
    ("unionfind", "space", 3): "f433f921a19a4da2",
    ("unionfind", "spacetime", 3): "a158a5782b5e6dad",
    ("unionfind", "space", 5): "1eba093aa1bd565e",
    ("unionfind", "spacetime", 5): "29d44482cd266265",
    ("sparse-mwpm", "space", 3): "2f3f03cf03c95e56",
    ("sparse-mwpm", "spacetime", 3): "d93695fdb1b67f07",
    ("sparse-mwpm", "space", 5): "5b2e5b6326484bc6",
    ("sparse-mwpm", "spacetime", 5): "73223ba30df2561f",
}

#: SHA-256 prefixes of each subcommand's ``--json`` report, keyed by
#: ``(subcommand, algorithm)``; the argument lists are :data:`REPORTS`.
GOLDEN_REPORTS = {
    ("distance", "mwpm"): "c83549c41eed436f",
    ("ler", "mwpm"): "e2c389d87da03e82",
    ("memory", "mwpm"): "0282958fa265c421",
    ("phenomenological", "mwpm"): "e1e6152479e73f20",
    ("distance", "unionfind"): "6f0a40a3c08da09c",
    ("ler", "unionfind"): "4cb53081c5f95e34",
    ("memory", "unionfind"): "ed2e1254726a98bb",
    ("phenomenological", "unionfind"): "64fbeccf048cf647",
    ("distance", "sparse-mwpm"): "c83549c41eed436f",
    ("ler", "sparse-mwpm"): "9a2c67a57ab4287f",
    ("memory", "sparse-mwpm"): "ed2e1254726a98bb",
    ("phenomenological", "sparse-mwpm"): "76891d3672ef7160",
}

#: SHA-256 prefixes of union-find ``decode_batch`` at the larger
#: distances, keyed by ``(form, distance)``: each batch is
#: :func:`repeated_rows` of the seeded batch below, so it holds
#: duplicate rows; the space-time ones span 2, 3 and 7 chunks of
#: ``CHUNK_SLOTS``.
GOLDEN_UNIONFIND_BATCHES = {
    ("space", 9): "139e85b77103873c",
    ("space", 13): "8df29fab82dd5e53",
    ("spacetime", 7): "6ee5f241d83e257e",
    ("spacetime", 9): "b3c0c3f2f598100d",
    ("spacetime", 13): "183543f22a9fd6d0",
}

#: SHA-256 prefixes of the union-find ``--json`` reports at the larger
#: distances, keyed like :data:`LARGE_REPORTS`.
GOLDEN_LARGE_REPORTS = {
    "phenomenological": "3b70ec189b5201cc",
    "distance": "b5e24aa46f498eb8",
}

#: ``phenomenological`` is one operation of the ``phenom-uf`` benchmark
#: workload; ``distance`` runs the code-capacity sweep at its default
#: rates and trials.
LARGE_REPORTS = {
    "phenomenological": [
        "phenomenological", "--distances", "5", "9", "13", "--per",
        "0.015", "--trials", "200", "--decoder", "unionfind", "--seed",
        "1",
    ],
    "distance": [
        "distance", "--decoder", "unionfind", "--distances", "7", "9",
        "--seed", "3",
    ],
}

REPORTS = {
    "distance": [
        "distance", "--distances", "3", "5", "--per", "0.05",
        "--trials", "200", "--seed", "7",
    ],
    "phenomenological": [
        "phenomenological", "--distances", "3", "5", "--per", "0.02",
        "--trials", "60", "--seed", "7",
    ],
    "memory": [
        "memory", "--distances", "3", "--per", "0.01",
        "--trials", "8", "--seed", "7",
    ],
    "ler": [
        "ler", "--per", "1e-2", "--batch", "64", "--windows", "5",
        "--seed", "7",
    ],
}


def _digest(bits: np.ndarray) -> str:
    packed = np.packbits(np.asarray(bits, dtype=np.uint8))
    return hashlib.sha256(packed.tobytes()).hexdigest()[:16]


def syndrome_batch(code: RotatedSurfaceCode) -> np.ndarray:
    """``(300, checks)`` Z-check syndromes of i.i.d. X errors (p = 6%)."""
    rng = np.random.default_rng(1000 + code.distance)
    errors = rng.random((300, code.num_data)) < 0.06
    return (errors.astype(np.uint8) @ code.z_check_matrix.T) % 2 == 1


def history_batch(code: RotatedSurfaceCode) -> np.ndarray:
    """``(200, d + 1, checks)`` phenomenological histories (p = q = 3%).

    ``d`` noisy rounds of accumulating X errors and misread syndrome
    bits, then one perfect round.
    """
    rng = np.random.default_rng(2000 + code.distance)
    rounds = code.distance
    checks = code.z_check_matrix.shape[0]
    fresh = rng.random((200, rounds, code.num_data)) < 0.03
    cumulative = np.logical_xor.accumulate(fresh, axis=1)
    exact = (cumulative.astype(np.uint8) @ code.z_check_matrix.T) % 2
    flips = rng.random((200, rounds, checks)) < 0.03
    noisy = (exact == 1) ^ flips
    return np.concatenate([noisy, exact[:, -1:] == 1], axis=1)


def repeated_rows(batch: np.ndarray, distance: int) -> np.ndarray:
    """``len(batch)`` rows drawn from the first 60% of ``batch``.

    A seeded draw with replacement, so the result repeats rows (the
    dedupe path) in an order unrelated to the original one.
    """
    rng = np.random.default_rng(3000 + distance)
    pool = (3 * batch.shape[0]) // 5
    return batch[rng.integers(0, pool, size=batch.shape[0])]


def decode_rows(decoder, batch: np.ndarray, single: str) -> np.ndarray:
    """``decoder.decode_batch(batch)``, or one ``single`` call per row.

    A decoder class without ``decode_batch`` is decoded row by row
    through its one-syndrome entry point (``decode`` or
    ``decode_history``); both paths must give the pinned bits.
    """
    decode_batch = getattr(decoder, "decode_batch", None)
    if decode_batch is not None:
        return np.asarray(decode_batch(batch), dtype=bool)
    decode = getattr(decoder, single)
    return np.stack([np.asarray(decode(row), dtype=bool) for row in batch])


@pytest.mark.parametrize("species", ["x", "z"])
@pytest.mark.parametrize("name", GRAPH_DECODERS)
def test_sc17_dense_tables(name, species):
    check = {"x": X_CHECK_MATRIX, "z": Z_CHECK_MATRIX}[species]
    boundary = boundary_qubits_for(RotatedSurfaceCode(3), species)
    clear_lut_cache()
    table, complete = TABLE_FUNCTIONS[name](check, boundary)
    assert table.shape == (16, 9)
    assert complete.all()
    assert _digest(table) == GOLDEN_TABLES[("sc17", name, species)]


@pytest.mark.parametrize("species", ["x", "z"])
@pytest.mark.parametrize("name", ["mwpm", "sparse-mwpm"])
def test_rotated_d3_dense_tables(name, species):
    code = RotatedSurfaceCode(3)
    clear_lut_cache()
    table, complete = TABLE_FUNCTIONS[name](
        getattr(code, f"{species}_check_matrix"),
        boundary_qubits_for(code, species),
    )
    assert table.shape == (16, 9)
    assert complete.all()
    assert _digest(table) == GOLDEN_TABLES[("d3", name, species)]


@pytest.mark.parametrize("distance", [3, 5])
@pytest.mark.parametrize("name", GRAPH_DECODERS)
def test_space_decode_batch(name, distance):
    code = RotatedSurfaceCode(distance)
    decoder = get_decoder(name).build_space(
        code.z_check_matrix, boundary_qubits_for(code, "z")
    )
    corrections = decode_rows(decoder, syndrome_batch(code), "decode")
    assert corrections.shape == (300, code.num_data)
    assert (
        _digest(corrections) == GOLDEN_BATCHES[(name, "space", distance)]
    )


@pytest.mark.parametrize("distance", [3, 5])
@pytest.mark.parametrize("name", GRAPH_DECODERS)
def test_spacetime_decode_batch(name, distance):
    code = RotatedSurfaceCode(distance)
    decoder = get_decoder(name).build_spacetime(
        code.z_check_matrix, boundary_qubits_for(code, "z")
    )
    corrections = decode_rows(
        decoder, history_batch(code), "decode_history"
    )
    assert corrections.shape == (200, code.num_data)
    assert (
        _digest(corrections)
        == GOLDEN_BATCHES[(name, "spacetime", distance)]
    )


@pytest.mark.parametrize("name", GRAPH_DECODERS)
def test_single_row_entry_points_match_the_batch(name):
    """``decode`` and ``decode_history`` agree with the pinned batch rows."""
    code = RotatedSurfaceCode(3)
    spec = get_decoder(name)
    boundary = boundary_qubits_for(code, "z")
    space = spec.build_space(code.z_check_matrix, boundary)
    syndromes = syndrome_batch(code)[:40]
    assert np.array_equal(
        np.stack([space.decode(row) for row in syndromes]),
        decode_rows(space, syndromes, "decode"),
    )
    spacetime = spec.build_spacetime(code.z_check_matrix, boundary)
    histories = history_batch(code)[:40]
    assert np.array_equal(
        np.stack([spacetime.decode_history(row) for row in histories]),
        decode_rows(spacetime, histories, "decode_history"),
    )


@pytest.mark.parametrize(
    "form, distance",
    [("space", 9), ("space", 13), ("spacetime", 7), ("spacetime", 9),
     ("spacetime", 13)],
)
def test_unionfind_large_decode_batch(form, distance):
    code = RotatedSurfaceCode(distance)
    spec = get_decoder("unionfind")
    boundary = boundary_qubits_for(code, "z")
    if form == "space":
        decoder = spec.build_space(code.z_check_matrix, boundary)
        batch = repeated_rows(syndrome_batch(code), distance)
    else:
        decoder = spec.build_spacetime(code.z_check_matrix, boundary)
        batch = repeated_rows(history_batch(code), distance)
    rows = batch.reshape(batch.shape[0], -1)
    assert np.unique(rows, axis=0).shape[0] < batch.shape[0]
    corrections = np.asarray(decoder.decode_batch(batch), dtype=bool)
    assert corrections.shape == (batch.shape[0], code.num_data)
    assert (
        _digest(corrections)
        == GOLDEN_UNIONFIND_BATCHES[(form, distance)]
    )


@pytest.mark.parametrize("command", sorted(LARGE_REPORTS))
def test_unionfind_large_json_reports(command, capsys):
    assert main(LARGE_REPORTS[command] + ["--json"]) == 0
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()[:16]
    assert digest == GOLDEN_LARGE_REPORTS[command]


@pytest.mark.parametrize("command", sorted(REPORTS))
@pytest.mark.parametrize("name", GRAPH_DECODERS)
def test_json_reports(name, command, capsys):
    argv = REPORTS[command] + ["--decoder", name, "--json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()[:16]
    assert digest == GOLDEN_REPORTS[(command, name)]
