import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from enetpipe import PortableRng
from enetpipe.rng import (_LANES, _STEPS, _gf2_apply, _lane_jumps,
                          _lane_starts)
from helpers import reference_normals, reference_shuffle


def test_same_seed_same_stream():
    a = PortableRng(1234)
    b = PortableRng(1234)
    assert [a.next_uint64() for _ in range(64)] == [b.next_uint64() for _ in range(64)]


def test_different_seeds_differ():
    a = [PortableRng(1).next_uint64() for _ in range(8)]
    b = [PortableRng(2).next_uint64() for _ in range(8)]
    assert a != b


def test_normals_moments_and_finiteness():
    x = PortableRng(11).normals(20_000)
    assert np.all(np.isfinite(x))
    assert abs(x.mean()) < 0.03
    assert abs(x.var() - 1.0) < 0.05


def test_normal_matrix_shape_matches_flat_stream():
    flat = PortableRng(3).normals(12)
    mat = PortableRng(3).normal_matrix(3, 4)
    np.testing.assert_array_equal(mat.ravel(), flat)


def test_integer_below_bounds():
    rng = PortableRng(5)
    draws = [rng.integer_below(7) for _ in range(2000)]
    assert min(draws) == 0
    assert max(draws) == 6
    counts = np.bincount(draws, minlength=7)
    # loose uniformity: each bucket within 40% of the expected 2000/7
    assert np.all(counts > 2000 / 7 * 0.6)
    assert np.all(counts < 2000 / 7 * 1.4)


def test_shuffle_preserves_multiset_and_is_seeded():
    values = np.arange(50)
    a = values.copy()
    PortableRng(9).shuffle(a)
    b = values.copy()
    PortableRng(9).shuffle(b)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.sort(a), values)
    assert not np.array_equal(a, values)  # 50! leaves this essentially sure


@pytest.mark.parametrize("n", [0, 1, 2, 31, 200])
@pytest.mark.parametrize("width", [None, 3])
def test_shuffle_and_permutation_match_the_swap_loop(n, width):
    # same arrangement, rows moved whole, and the same draws: the next
    # integer out of the generator agrees too
    shape = (n,) if width is None else (n, width)
    values = PortableRng(n + 100).normals(int(np.prod(shape))).reshape(shape)
    got, want = values.copy(), values.copy()
    rng, ref = PortableRng(n), PortableRng(n)
    rng.shuffle(got)
    reference_shuffle(ref, want)
    assert got.tobytes() == want.tobytes()
    assert rng.next_uint64() == ref.next_uint64()

    rng, ref = PortableRng(n), PortableRng(n)
    order = np.arange(n)
    reference_shuffle(ref, order)
    np.testing.assert_array_equal(rng.permutation(n), order)
    assert rng.next_uint64() == ref.next_uint64()


def test_permutation_is_a_permutation():
    p = PortableRng(13).permutation(31)
    np.testing.assert_array_equal(np.sort(p), np.arange(31))


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=2**32))
def test_integer_below_never_reaches_n(n, seed):
    assert 0 <= PortableRng(seed).integer_below(n) < n


def _spare_and_state(rng):
    spare = rng._spare_normal
    return (None if spare is None else spare.hex()), tuple(rng._state)


# sizes around one polar pair, one lane and one full round of lanes
_NORMAL_SIZES = st.one_of(
    st.integers(min_value=-2, max_value=300),
    st.sampled_from([2 * _STEPS - 1, 2 * _STEPS, 2 * _STEPS + 1,
                     _LANES * _STEPS // 2, _LANES * _STEPS - 1,
                     _LANES * _STEPS, 2 * _LANES * _STEPS + 3]))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(_NORMAL_SIZES, min_size=1, max_size=4))
@example(11, [220_200])                   # the wide_enet dataset's draws
@example(2**64 - 1, [1, 8191, 16384, 3])
@example(6, [47, 48, 49, 50, 95, 96])     # rounds that fall short and repeat
def test_normals_match_scalar_draws_bit_for_bit(seed, sizes):
    fast, reference = PortableRng(seed), PortableRng(seed)
    for n in sizes:
        got = fast.normals(n)
        want = reference_normals(reference, max(n, 0))
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert _spare_and_state(fast) == _spare_and_state(reference)
    assert fast.next_uint64() == reference.next_uint64()


def test_normals_of_nothing_leave_state_and_spare():
    rng = PortableRng(4)
    rng.normal()                              # leaves a spare pending
    before = _spare_and_state(rng)
    for n in (0, -5):
        assert rng.normals(n).shape == (0,)
        assert _spare_and_state(rng) == before


def _one_step_matrix():
    """The xoshiro256** transition built from the scalar generator: row
    ``64 w + b`` is the state after one step from the state with only bit
    ``b`` of word ``w`` set."""
    matrix = np.empty((256, 4), dtype=np.uint64)
    for i in range(256):
        rng = PortableRng(0)
        rng._state = [0, 0, 0, 0]
        rng._state[i // 64] = 1 << (i % 64)
        rng.next_uint64()
        matrix[i] = rng._state
    return matrix


def _matrix_power(matrix, k):
    result = np.zeros((256, 4), dtype=np.uint64)
    for i in range(256):
        result[i, i // 64] = 1 << (i % 64)
    while k:
        if k & 1:
            result = _gf2_apply(matrix, result.T).T
        matrix = _gf2_apply(matrix, matrix.T).T
        k >>= 1
    return result


@pytest.mark.parametrize("k", [0, 1, _STEPS - 1, _STEPS, _LANES * _STEPS + 5])
def test_jump_equals_scalar_steps(k):
    rng = PortableRng(17)
    state = np.array(rng._state, dtype=np.uint64)[:, None]
    jumped = _gf2_apply(_matrix_power(_one_step_matrix(), k), state)
    for _ in range(k):
        rng.next_uint64()
    assert [int(w) for w in jumped[:, 0]] == rng._state


def test_lane_jumps_and_starts_match_scalar_steps():
    one_step = _one_step_matrix()
    jumps = _lane_jumps()
    assert len(jumps) == _LANES.bit_length()
    for k, jump in enumerate(jumps):
        np.testing.assert_array_equal(jump, _matrix_power(one_step,
                                                          _STEPS << k))
    rng = PortableRng(23)
    starts = _lane_starts(rng._state, _LANES - 3)
    assert starts.shape == (4, _LANES - 3)
    for lane in range(_LANES - 3):
        assert [int(w) for w in starts[:, lane]] == rng._state
        for _ in range(_STEPS):
            rng.next_uint64()


def test_known_answers():
    # values printed by the scalar generator; xoshiro256** seeded through
    # splitmix64, and the scalar normal() loop
    for seed, first in [
            (0, [0x99ec5f36cb75f2b4, 0xbf6e1f784956452a,
                 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c]),
            (2**64 - 1, [0x8f5520d52a7ead08, 0xc476a018caa1802d,
                         0x81de31c0d260469e, 0xbf658d7e065f3c2f])]:
        rng = PortableRng(seed)
        assert [rng.next_uint64() for _ in range(4)] == first
    assert hashlib.sha256(PortableRng(11).normals(100_001).tobytes()
                          ).hexdigest() == (
        "1c2c36ae28c482af3025c78e4ced753394ecb5599eecb12b1092e24bb103f2cc")
