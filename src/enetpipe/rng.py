"""Seeded pseudo-random generation for synthetic fixtures and shuffling.

All randomness in the package flows through :class:`PortableRng`, a small
xoshiro256** generator seeded through splitmix64.  Using one explicit,
fully specified generator (rather than whatever numpy's default bit
generator happens to be) keeps every seeded fixture reproducible across
library versions and across reimplementations of the same byte-level
recurrence.

``PortableRng.normals`` returns the bits of that many ``normal()`` calls
and leaves the same state, but draws the integer stream in lanes.  The
xoshiro256** transition is linear over GF(2) on the 256-bit state, so
``A^k`` (``A`` the one-step matrix) jumps a state ``k`` draws ahead.  A
round starts up to ``_LANES`` copies of the generator ``_STEPS`` draws
apart and steps them together as numpy arrays; read lane by lane, the
outputs are the stream in order.  The first round builds its lane
starts with the precomputed jumps ``A^(_STEPS * 2^k)``, each doubling
the lanes built so far; after a full round every lane start moves on by
one jump of ``A^(_LANES * _STEPS)``.  The polar transform runs on
whole arrays with the same correctly rounded operations as ``normal()``
(conversion, ``2u - 1``, ``u*u + v*v``, division, ``sqrt``), except the
logarithm: ``np.log`` and ``math.log`` are not both correctly rounded
and disagree in the last bit on some inputs, so each accepted pair takes
``math.log`` as ``normal()`` does.
"""

import functools
import math

import numpy as np

__all__ = ["PortableRng"]

_MASK64 = (1 << 64) - 1
# One round of normals() is up to _LANES lanes of _STEPS draws each (even,
# so a lane boundary never splits a polar pair): 16384 draws, about 6400
# accepted pairs, in a few hundred kB of transient arrays.
_LANES = 256
_STEPS = 64


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_lanes(state, out):
    """Advance the generators in the columns of the (4, lanes) uint64
    ``state`` in place, one step per row of ``out``, writing that step's
    outputs into the row."""
    s0, s1, s2, s3 = state
    for row in out:
        x = s1 * 5
        np.multiply((x << 7) | (x >> 57), 9, out=row)
        t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = (s3 << 45) | (s3 >> 19)


def _gf2_apply(matrix, states):
    """Images of the (4, k) uint64 ``states`` under the linear map whose
    (256, 4) ``matrix`` holds the images of the 256 one-bit states (bit
    ``b`` of word ``w`` is state ``64 w + b``), read a byte at a time."""
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    images = matrix.reshape(32, 8, 4)
    for b in range(8):
        table[:, 1 << b:2 << b] = table[:, :1 << b] ^ images[:, b, None]
    state_bytes = np.ascontiguousarray(states.T, dtype="<u8").view(np.uint8)
    return np.bitwise_xor.reduce(table[np.arange(32), state_bytes],
                                 axis=1).T


@functools.cache
def _lane_jumps():
    """``A^(_STEPS * 2^k)`` for ``2^k <= _LANES``, bit-packed as (256, 4)
    uint64 images of the one-bit states; built once per process by stepping
    the 256 one-bit states once and squaring."""
    bit = np.left_shift(1, np.arange(64, dtype=np.uint64))
    one_bit = np.zeros((4, 256), dtype=np.uint64)
    for w in range(4):
        one_bit[w, 64 * w:64 * w + 64] = bit
    _step_lanes(one_bit, np.empty((1, 256), dtype=np.uint64))
    powers = [one_bit.T]                  # A^(2^k) for k = 0, 1, ...
    while len(powers) < (_STEPS * _LANES).bit_length():
        powers.append(_gf2_apply(powers[-1], powers[-1].T).T)
    jumps = powers[_STEPS.bit_length() - 1:]
    for jump in jumps:
        jump.flags.writeable = False
    return tuple(jumps)


def _lane_starts(state, lanes: int) -> np.ndarray:
    """The (4, lanes) states ``0, _STEPS, 2 _STEPS, ...`` draws after
    ``state``; each jump doubles the lanes built so far."""
    starts = np.array(state, dtype=np.uint64)[:, None]
    for jump in _lane_jumps():
        if starts.shape[1] >= lanes:
            break
        more = _gf2_apply(jump, starts[:, :lanes - starts.shape[1]])
        starts = np.concatenate([starts, more], axis=1)
    return starts


class PortableRng:
    """xoshiro256** pseudo-random generator with splitmix64 seeding.

    The integer stream is exactly the reference recurrence; floating point
    values are derived only through exactly-rounded operations plus log/sqrt,
    so seeded sequences are stable in practice across platforms.
    """

    def __init__(self, seed: int):
        s = int(seed) & _MASK64
        state = []
        for _ in range(4):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(z ^ (z >> 31))
        self._state = state
        self._spare_normal = None

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._state
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._state = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def integer_below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        bound = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_uint64()
            if u < bound:
                return u % n

    def normal(self) -> float:
        """Standard normal draw (Marsaglia polar method, spare cached)."""
        if self._spare_normal is not None:
            value = self._spare_normal
            self._spare_normal = None
            return value
        while True:
            u = 2.0 * self.random() - 1.0
            v = 2.0 * self.random() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        factor = math.sqrt(-2.0 * math.log(s) / s)
        self._spare_normal = v * factor
        return u * factor

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal draws: the values of ``n`` calls of
        ``normal()``, bit for bit, leaving the same state and spare; the
        stream is drawn in lanes (see the module docstring)."""
        out = np.empty(max(n, 0))
        filled = 0
        if n > 0 and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            filled = 1
        starts = None
        while filled < n:
            pairs = (n - filled + 1) // 2
            # a pair is accepted with probability pi/4, so a pair costs
            # about 2.55 draws; a round that falls short is followed by one
            # more
            lanes = min(_LANES, 1 + pairs * 21 // (8 * _STEPS))
            if starts is not None and starts.shape[1] == _LANES:
                # the last round drew _LANES * _STEPS: jump each lane by that
                starts = _gf2_apply(_lane_jumps()[-1], starts[:, :lanes])
            else:
                starts = _lane_starts(self._state, lanes)
            ends = starts.copy()
            raw = np.empty((_STEPS, lanes), dtype=np.uint64)
            _step_lanes(ends, raw)
            unit = (raw.T.reshape(-1, 2) >> 11) * 2.0 ** -53
            u = 2.0 * unit[:, 0] - 1.0
            v = 2.0 * unit[:, 1] - 1.0
            s = u * u + v * v
            kept = np.flatnonzero((s > 0.0) & (s < 1.0))[:pairs]
            s = s[kept]
            log_s = np.fromiter(map(math.log, s.tolist()), np.float64,
                                len(kept))
            factor = np.sqrt(-2.0 * log_s / s)
            values = np.column_stack([u[kept] * factor, v[kept] * factor])
            values = values.ravel()
            take = min(len(values), n - filled)
            out[filled:filled + take] = values[:take]
            filled += take
            if take < len(values):
                self._spare_normal = float(values[take])
            used = 2 * (kept[-1] + 1) if len(kept) == pairs else raw.size
            lane, offset = divmod(int(used), _STEPS)
            if lane == lanes:
                self._state = [int(w) for w in ends[:, -1]]
            else:
                self._state = [int(w) for w in starts[:, lane]]
                for _ in range(offset):
                    self.next_uint64()
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def shuffle(self, values: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle along the first axis. The swaps,
        one ``integer_below(i + 1)`` draw each for i = n-1 down to 1, run
        on a list of row indices; one gather then moves the rows."""
        order = list(range(len(values)))
        for i in range(len(order) - 1, 0, -1):
            j = self.integer_below(i + 1)
            order[i], order[j] = order[j], order[i]
        values[...] = values[order]

    def permutation(self, n: int) -> np.ndarray:
        idx = np.arange(n)
        self.shuffle(idx)
        return idx
