"""Property-based tests of the packed bit-plane kernels.

Hypothesis drives the word-level kernels of
:mod:`repro.sim.packedsim` against their obvious unpacked numpy
counterparts over arbitrary shot counts (so the ragged last word is
exercised constantly, not just at hand-picked sizes):

* ``pack_bits``/``unpack_bits`` are mutually inverse and keep tail
  bits zero,
* XOR/AND on packed words equal XOR/AND on the bool arrays,
* a random Clifford+noise frame program advances
  :class:`PackedFrameArray` and the unpacked :class:`FrameArray`
  identically when fed identical RNG streams.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.framesim import FrameArray
from repro.sim.packedsim import (
    PackedFrameArray,
    full_mask,
    num_words,
    pack_bits,
    unpack_bits,
)

#: Shot counts straddle word boundaries by construction.
shot_counts = st.integers(min_value=1, max_value=200)


def bool_rows(draw, num_shots):
    """A (num_shots,) random bool array."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.random(num_shots) < draw(
        st.floats(min_value=0.0, max_value=1.0)
    )


class TestPackRoundTrip:
    @given(st.data(), shot_counts)
    @settings(deadline=None)
    def test_bits_to_words_to_bits(self, data, num_shots):
        bits = bool_rows(data.draw, num_shots)
        words = pack_bits(bits)
        assert words.shape == (num_words(num_shots),)
        assert np.array_equal(unpack_bits(words, num_shots), bits)

    @given(st.data(), shot_counts)
    @settings(deadline=None)
    def test_tail_bits_stay_zero(self, data, num_shots):
        bits = bool_rows(data.draw, num_shots)
        words = pack_bits(bits)
        assert np.all(words & ~full_mask(num_shots) == 0)

    @given(st.data(), shot_counts, st.integers(1, 5))
    @settings(deadline=None)
    def test_words_to_bits_to_words(self, data, num_shots, rows):
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        words = rng.integers(
            0, 2**64, size=(rows, num_words(num_shots)), dtype=np.uint64
        ) & full_mask(num_shots)
        bits = unpack_bits(words, num_shots)
        assert bits.shape == (rows, num_shots)
        assert np.array_equal(pack_bits(bits), words)


class TestWordKernels:
    @given(st.data(), shot_counts)
    @settings(deadline=None)
    def test_xor_and_not_match_bool_algebra(self, data, num_shots):
        a = bool_rows(data.draw, num_shots)
        b = bool_rows(data.draw, num_shots)
        wa, wb = pack_bits(a), pack_bits(b)
        assert np.array_equal(wa ^ wb, pack_bits(a ^ b))
        assert np.array_equal(wa & wb, pack_bits(a & b))
        # NOT over the valid shots = XOR with the full mask.
        assert np.array_equal(
            wa ^ full_mask(num_shots), pack_bits(~a)
        )


#: One random frame-program step: (kind, payload...).
def program_steps(num_qubits):
    one = st.integers(0, num_qubits - 1)
    pairs = st.tuples(one, one).filter(lambda p: p[0] != p[1])
    steps = [
        st.tuples(st.just("h"), one),
        st.tuples(st.just("s"), one),
        st.tuples(st.just("cnot"), pairs),
        st.tuples(st.just("cz"), pairs),
        st.tuples(st.just("swap"), pairs),
        st.tuples(st.just("reset"), one),
        st.tuples(st.just("measure"), one),
        st.tuples(st.just("xerr"), one),
        st.tuples(st.just("depolarize1"), one),
        st.tuples(st.just("depolarize2"), pairs),
        st.tuples(st.just("pauli_masks"), st.just(None)),
    ]
    return st.lists(st.one_of(steps), min_size=1, max_size=25)


class TestFrameProgramEquivalence:
    """Identical RNG streams => identical frames, step by step."""

    @given(
        st.data(),
        st.integers(min_value=1, max_value=130),
        st.integers(min_value=2, max_value=5),
    )
    @settings(deadline=None, max_examples=40)
    def test_random_program(self, data, num_shots, num_qubits):
        steps = data.draw(program_steps(num_qubits))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng_ref = np.random.default_rng(seed)
        rng_packed = np.random.default_rng(seed)
        mask_rng = np.random.default_rng(seed + 1)

        reference = FrameArray(num_shots, 0)
        packed = PackedFrameArray(num_shots, 0, rng_mode="exact")
        reference.add_qubits(num_qubits, rng_ref)
        packed.add_qubits(num_qubits, rng_packed)

        for kind, payload in steps:
            if kind in ("h", "s"):
                getattr(reference, kind)(payload)
                getattr(packed, kind)(payload)
            elif kind in ("cnot", "cz", "swap"):
                getattr(reference, kind)(*payload)
                getattr(packed, kind)(*payload)
            elif kind == "reset":
                reference.reset(payload, rng_ref)
                packed.reset(payload, rng_packed)
            elif kind == "measure":
                flips_ref = reference.measure_flips(payload, rng_ref)
                flips_packed = packed.measure_flips(
                    payload, rng_packed
                )
                assert np.array_equal(
                    flips_ref, unpack_bits(flips_packed, num_shots)
                )
            elif kind == "xerr":
                reference.xerr(payload, 0.2, rng_ref)
                packed.xerr(payload, 0.2, rng_packed)
            elif kind == "depolarize1":
                reference.depolarize1(payload, 0.2, rng_ref)
                packed.depolarize1(payload, 0.2, rng_packed)
            elif kind == "depolarize2":
                reference.depolarize2(*payload, 0.2, rng_ref)
                packed.depolarize2(*payload, 0.2, rng_packed)
            else:  # pauli_masks
                x_mask = mask_rng.random((num_shots, num_qubits)) < 0.3
                z_mask = mask_rng.random((num_shots, num_qubits)) < 0.3
                reference.x ^= x_mask
                reference.z ^= z_mask
                packed.apply_pauli_masks(x_mask, z_mask)
            assert np.array_equal(packed.x_bool(), reference.x)
            assert np.array_equal(packed.z_bool(), reference.z)
