"""Bulk seeding and first draws for the detector's per-frame RNG streams.

The simulated detectors draw every stochastic value from a *freshly seeded*
``np.random.default_rng((salt, stream, ..., frame))`` so that outcomes are
pure functions of (model, frame).  That contract is what makes traces
cacheable — and it is also the scalar hot path's dominant cost: constructing
a ``SeedSequence`` + ``PCG64`` per draw costs ~12 us, and one detection
performs ~19 of them.

This module makes seeded streams cheap in bulk while staying bit-identical:

* :func:`pcg64_state_words` re-implements the ``SeedSequence`` entropy-pool
  hash (Melissa O'Neill's seed-sequence algorithm, frozen in NumPy since
  1.17) with vectorized uint32 arithmetic, producing the four 64-bit words
  ``SeedSequence(entropy).generate_state(4, uint64)`` would return — for N
  entropy tuples at once.  :func:`stream_state_words` lays a whole grid of
  streams x frames into one such pass.
* :meth:`DrawPool.first_normals` computes the first ``standard_normal`` of
  every stream as array arithmetic: PCG64's seeding (``pcg64_srandom``), its
  first LCG step and XSL-RR output (https://www.pcg-random.org/paper.html)
  in uint64 limbs, then NumPy's ziggurat fast path (Marsaglia & Tsang,
  https://www.jstatsoft.org/v05/i08), ``x = ±rabs * wi[idx]`` when
  ``rabs < ki[idx]``.  The ``wi``/``ki`` layer tables are read once per
  process from NumPy's own generator (:func:`layer_tables`), so no NumPy
  constant is copied; the ~1.5% of rows outside the fast path replay
  through one reusable ``PCG64`` via its public ``.state`` setter.
* :meth:`DrawPool.generator_for` positions that shared generator where
  ``np.random.default_rng(entropy)`` starts, for streams that draw more
  than one value.

On 2 vCPUs (Python 3.11, NumPy 2.4) the vectorized draw costs ~0.2 us per
stream against ~4.5 us for a ``.state`` set and draw, and reading the
tables ~7 ms once per process.  Equality with
``np.random.default_rng(entropy)`` is asserted bit-for-bit in
``tests/models/test_fastrng.py``, and the table read-out checks itself
against the scalar replay before any row uses it: on a disagreement (a
future NumPy changing its ziggurat) every row takes the scalar path, which
costs speed, never a wrong value.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

import numpy as np

# --- SeedSequence pool-hash constants (numpy/random/bit_generator.pyx) ----
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

# --- PCG64 seeding constants (numpy/random/src/pcg64/pcg64.h) -------------
_PCG64_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MASK128 = (1 << 128) - 1

# uint64 limb arithmetic keeps every operand np.uint64: NumPy 1.x promotes
# uint64 mixed with a Python int to float64.
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & 0xFFFFFFFFFFFFFFFF)

# --- NumPy's ziggurat: idx = r & 0xff, sign = bit 8, rabs = bits 9..60 ------
_LAYERS = 256
_RABS_BITS = 52
_RABS_MASK = np.uint64((1 << _RABS_BITS) - 1)
# The table read-out is checked on this many rows of a fixed stream.
_CHECK_ROWS = 256
# Rows per vectorized draw: 4096 took half the time of 32k rows in one
# pass, with a fifth of the peak memory.
_DRAW_CHUNK = 4096

EntropyPart = int | np.ndarray | Sequence[int]


def _int_words(value: int) -> list[int]:
    """The uint32 little-endian limbs SeedSequence assembles for one int."""
    if value < 0:
        raise ValueError("entropy values must be non-negative")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & _MASK32)
        value >>= 32
    return words


def entropy_rows(parts: Sequence[EntropyPart], count: int | None = None) -> np.ndarray:
    """Assemble N parallel entropy tuples into an ``(N, W)`` uint32 matrix.

    ``parts`` mirrors the tuple passed to ``np.random.default_rng``: scalar
    ints are broadcast to every row; one or more array parts supply the
    varying element (e.g. the frame index) and must contain values below
    2**32 so every row assembles to the same word count.
    """
    columns: list[np.ndarray] = []
    sizes = [len(p) for p in parts if not isinstance(p, (int, np.integer))]
    if count is None:
        if not sizes:
            raise ValueError("pass count when every entropy part is a scalar")
        count = sizes[0]
    if any(size != count for size in sizes):
        raise ValueError("varying entropy parts must share a length")
    for part in parts:
        if isinstance(part, (int, np.integer)):
            for word in _int_words(int(part)):
                columns.append(np.full(count, word, dtype=np.uint32))
        else:
            values = np.asarray(part, dtype=np.uint64)
            if values.ndim != 1:
                raise ValueError("varying entropy parts must be 1-D")
            if values.size and int(values.max()) > _MASK32:
                raise ValueError("varying entropy values must be below 2**32")
            columns.append(values.astype(np.uint32))
    return np.stack(columns, axis=1) if columns else np.zeros((count, 0), dtype=np.uint32)


def _hashmix(values: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step over a column of entropy words."""
    values = values ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    values = (values * np.uint32(hash_const)).astype(np.uint32)
    values = values ^ (values >> np.uint32(_XSHIFT))
    return values, hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's pool-mixing combiner (uint32, wraparound)."""
    result = (x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)).astype(np.uint32)
    return result ^ (result >> np.uint32(_XSHIFT))


def seed_pools(rows: np.ndarray) -> np.ndarray:
    """Vectorized ``SeedSequence`` entropy pools: ``(N, W)`` -> ``(N, 4)``."""
    rows = np.ascontiguousarray(rows, dtype=np.uint32)
    count, width = rows.shape
    pool = np.zeros((count, _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_A
    for i in range(_POOL_SIZE):
        source = rows[:, i] if i < width else np.zeros(count, dtype=np.uint32)
        pool[:, i], hash_const = _hashmix(source, hash_const)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, hash_const = _hashmix(pool[:, i_src], hash_const)
                pool[:, i_dst] = _mix(pool[:, i_dst], hashed)
    for i_src in range(_POOL_SIZE, width):
        for i_dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(rows[:, i_src], hash_const)
            pool[:, i_dst] = _mix(pool[:, i_dst], hashed)
    return pool


def generate_state64(pools: np.ndarray, n_words: int = 4) -> np.ndarray:
    """Vectorized ``SeedSequence.generate_state(n_words, uint64)`` per pool row."""
    pools = np.ascontiguousarray(pools, dtype=np.uint32)
    count = pools.shape[0]
    n_half = n_words * 2
    state = np.zeros((count, n_half), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(n_half):
        values = pools[:, i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        values = (values * np.uint32(hash_const)).astype(np.uint32)
        state[:, i_dst] = values ^ (values >> np.uint32(_XSHIFT))
    # Pair uint32 words little-endian-first, exactly as SeedSequence does
    # (views, not copies, on a little-endian host).
    return (
        state.astype("<u4", copy=False).reshape(count, n_words, 2).view("<u8")
        .reshape(count, n_words).astype(np.uint64, copy=False)
    )


def pcg64_state_words(parts: Sequence[EntropyPart], count: int | None = None) -> np.ndarray:
    """``(N, 4)`` uint64 seed words for PCG64, one row per entropy tuple.

    Row ``i`` equals ``np.random.SeedSequence(tuple_i).generate_state(4,
    np.uint64)`` where ``tuple_i`` takes element ``i`` of every array part.
    """
    return generate_state64(seed_pools(entropy_rows(parts, count=count)))


def stream_state_words(
    streams: Sequence[int],
    inner: np.ndarray,
    layout: Callable[[list[np.ndarray], np.ndarray], Sequence[EntropyPart]],
) -> np.ndarray:
    """``(len(streams), len(inner), 4)`` seed words for a grid of streams.

    ``layout(stream_columns, inner_column)`` returns the entropy parts of
    every (stream, inner) pair, e.g. ``lambda s, f: [salt, *s, seed, f]``.
    SeedSequence splits an int at or past 2**32 into uint32 words, so each
    stream id enters as one column per word, and ids of one word width
    share one hash pass: almost always a single pass for the whole grid.
    """
    inner = np.asarray(inner, dtype=np.uint64)
    out = np.empty((len(streams), len(inner), 4), dtype=np.uint64)
    widths = [len(_int_words(int(stream))) for stream in streams]
    for width in sorted(set(widths)):
        rows = [i for i, w in enumerate(widths) if w == width]
        columns = [
            np.repeat(
                np.array([(int(streams[i]) >> (32 * k)) & _MASK32 for i in rows], dtype=np.uint64),
                len(inner),
            )
            for k in range(width)
        ]
        count = len(rows) * len(inner)
        words = pcg64_state_words(layout(columns, np.tile(inner, len(rows))), count=count)
        out[rows] = words.reshape(len(rows), len(inner), 4)
    return out


def _pcg64_state_dict(words: np.ndarray) -> dict:
    """The post-seeding PCG64 ``.state`` dict for one row of seed words.

    Replays ``pcg64_srandom``: ``inc = (initseq << 1) | 1`` and two LCG
    steps folding in the init state, in 128-bit arithmetic.
    """
    initstate = (int(words[0]) << 64) | int(words[1])
    initseq = (int(words[2]) << 64) | int(words[3])
    inc = ((initseq << 1) | 1) & _MASK128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _mul_mult(lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` limbs of the 128-bit product ``lo * _MULT_LO``."""
    a0, a1 = lo & _LOW32, lo >> _U32
    b0, b1 = _MULT_LO & _LOW32, _MULT_LO >> _U32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32), (p00 & _LOW32) | (mid << _U32)


def _add128(
    hi: np.ndarray, lo: np.ndarray, add_hi: np.ndarray, add_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    total = lo + add_lo
    return hi + add_hi + (total < lo).astype(np.uint64), total


def _lcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's step ``state * MULT + inc`` (mod 2**128) on uint64 limbs."""
    prod_hi, prod_lo = _mul_mult(lo)
    prod_hi = prod_hi + lo * _MULT_HI + hi * _MULT_LO
    return _add128(prod_hi, prod_lo, inc_hi, inc_lo)


def first_outputs(words: np.ndarray) -> np.ndarray:
    """The first ``next_uint64`` of each freshly seeded PCG64 stream.

    Replays ``pcg64_srandom`` (``inc = initseq << 1 | 1``; step; add
    ``initstate``; step), takes one more step and applies the XSL-RR
    output: ``hi ^ lo`` rotated right by the state's top six bits.
    """
    words = np.asarray(words, dtype=np.uint64)
    inc_hi = (words[:, 2] << _U1) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << _U1) | _U1
    hi, lo = _add128(inc_hi, inc_lo, words[:, 0], words[:, 1])
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    rot = hi >> np.uint64(58)
    mixed = hi ^ lo
    # (64 - rot) & 63 keeps the left shift below 64; at rot == 0 both
    # shifts are 0 and the word passes through unrotated, as it should.
    return (mixed >> rot) | (mixed << ((np.uint64(64) - rot) & np.uint64(63)))


def _fast_normals(
    words: np.ndarray, wi: np.ndarray, ki: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ziggurat fast-path draws and the rows it does not cover.

    Mirrors NumPy's ``random_standard_normal``: the first output ``r``
    gives ``idx = r & 0xff``, the sign bit 8 and ``rabs`` bits 9..60; the
    draw is ``±rabs * wi[idx]`` when ``rabs < ki[idx]``.  Values of the
    returned slow rows are meaningless.
    """
    r = first_outputs(words)
    idx = (r & np.uint64(_LAYERS - 1)).astype(np.intp)
    rabs = (r >> np.uint64(9)) & _RABS_MASK
    out = rabs.astype(np.float64) * wi[idx]
    np.negative(out, out=out, where=((r >> np.uint64(8)) & _U1).astype(bool))
    return out, np.flatnonzero(rabs >= ki[idx])


def _read_layer_tables() -> tuple[np.ndarray, np.ndarray]:
    """Read NumPy's ziggurat ``wi``/``ki`` tables through its public API.

    Each probe sets a PCG64 state whose next output is a chosen word ``r``
    (the post-step state ``r`` itself: a zero high half means no rotation),
    draws one ``standard_normal`` and checks that exactly one step was
    taken — the fast path.  ``rabs = 1`` reads ``wi[idx]``; ``ki[idx]``,
    the smallest ``rabs`` the fast path refuses, is found by bisection
    seeded with the ratio of the next narrower layer's width (the fast
    path covers the points inside it), so a layer costs ~3 probes.  A
    layer with no fast path at ``rabs = 1`` keeps ``ki = 0``: all its rows
    replay.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def fast(idx: int, rabs: int) -> tuple[bool, float]:
        after = (rabs << 9) | idx
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((after - 1) * inverse) & _MASK128, "inc": 1},
            "has_uint32": 0,
            "uinteger": 0,
        }
        value = generator.standard_normal()
        return bit_generator.state["state"]["state"] == after, value

    wi = np.zeros(_LAYERS, dtype=np.float64)
    ki = np.zeros(_LAYERS, dtype=np.uint64)
    readable = []
    for idx in range(_LAYERS):
        one_step, value = fast(idx, 1)
        if one_step:
            wi[idx] = value
            readable.append(idx)
    narrower = None
    for idx in sorted(readable, key=lambda i: wi[i]):
        guess = 0 if narrower is None else int(wi[narrower] / wi[idx] * 2.0**_RABS_BITS)
        ki[idx] = _bisect_limit(lambda rabs, idx=idx: fast(idx, rabs)[0], guess)
        narrower = idx
    return wi, ki


def _bisect_limit(fast: Callable[[int], bool], guess: int) -> int:
    """The smallest ``rabs`` with ``fast(rabs)`` false (``fast`` is monotone).

    Probes ``guess`` and its neighbours first; a guess within one of the
    limit costs two probes, a wrong one a full bisection.
    """
    lo, hi = -1, 1 << _RABS_BITS  # every rabs <= lo is fast, every rabs >= hi is not
    for probe in (guess, guess + 1, guess - 1):
        if lo < probe < hi:
            if fast(probe):
                lo = probe
            else:
                hi = probe
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fast(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _check_sample() -> np.ndarray:
    """The fixed seed-word rows the table read-out is checked on."""
    return np.random.PCG64(_CHECK_ROWS).random_raw(4 * _CHECK_ROWS).reshape(-1, 4)


@functools.cache
def layer_tables() -> tuple[np.ndarray, np.ndarray]:
    """NumPy's ziggurat ``(wi, ki)``, read on first use and self-checked.

    The read-out must reproduce the scalar replay on a fixed sample of
    rows; on any disagreement ``ki`` is all zeros, so every row takes the
    scalar path.
    """
    wi, ki = _read_layer_tables()
    sample = _check_sample()
    drawn, slow = _fast_normals(sample, wi, ki)
    expected = DrawPool().replay_first_normals(sample)
    drawn[slow] = expected[slow]
    if not np.array_equal(drawn.view(np.uint64), expected.view(np.uint64)):
        ki = np.zeros_like(ki)
    return wi, ki


class DrawPool:
    """One reusable ``Generator`` re-seeded per stream via cheap state sets.

    ``generator_for(words)`` returns the shared generator positioned exactly
    where ``np.random.default_rng(entropy)`` would start; it stays valid
    until the next ``generator_for``/``first_normals`` call, which matches
    how the detector consumes its streams (one at a time).
    """

    def __init__(self) -> None:
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)

    def generator_for(self, words: np.ndarray) -> np.random.Generator:
        """The shared generator, seeded from one ``(4,)`` row of seed words."""
        self._bit_generator.state = _pcg64_state_dict(words)
        return self._generator

    def first_normals(self, words: np.ndarray) -> np.ndarray:
        """First ``standard_normal`` of each stream in an ``(N, 4)`` word array.

        Equals ``np.random.default_rng(entropy_i).standard_normal()`` per
        row; multiply by sigma for ``normal(0.0, sigma)`` (NumPy computes
        ``loc + scale * z`` internally, so the scaled values are identical).
        Ziggurat fast-path rows are computed as arrays; the rest replay.
        """
        words = np.asarray(words, dtype=np.uint64).reshape(-1, 4)
        wi, ki = layer_tables()
        out = np.empty(len(words), dtype=np.float64)
        # Chunks keep the limb arithmetic's temporaries small and in cache.
        for start in range(0, len(words), _DRAW_CHUNK):
            rows = words[start : start + _DRAW_CHUNK]
            drawn, slow = _fast_normals(rows, wi, ki)
            drawn[slow] = self.replay_first_normals(rows[slow])
            out[start : start + _DRAW_CHUNK] = drawn
        return out

    def replay_first_normals(self, words: np.ndarray) -> np.ndarray:
        """:meth:`first_normals` by a ``.state`` set and draw per row."""
        bit_generator = self._bit_generator
        draw = self._generator.standard_normal
        out = np.empty(len(words), dtype=np.float64)
        for i, row in enumerate(words):
            bit_generator.state = _pcg64_state_dict(row)
            out[i] = draw()
        return out
