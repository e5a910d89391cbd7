"""fastrng must replay NumPy's seeding bit-for-bit.

The batched detector's whole bit-identity contract rests on
``pcg64_state_words`` + ``DrawPool`` producing exactly the streams
``np.random.default_rng(entropy)`` produces.  These tests pin that against
the live NumPy, so a (historically frozen) upstream algorithm change, or a
mistake in the vectorized reimplementation, fails here first.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import fastrng
from repro.models.fastrng import (
    DrawPool,
    entropy_rows,
    pcg64_state_words,
)


def _reference_words(entropy: tuple) -> np.ndarray:
    return np.random.SeedSequence(entropy).generate_state(4, np.uint64)


class TestStateWords:
    def test_matches_seedsequence_for_frame_suffix(self):
        frames = np.arange(200)
        words = pcg64_state_words([0x5E1F7, 17, 9301, 9301, frames])
        for i in (0, 1, 7, 42, 199):
            expected = _reference_words((0x5E1F7, 17, 9301, 9301, int(frames[i])))
            assert np.array_equal(words[i], expected)

    def test_matches_seedsequence_for_mid_tuple_variation(self):
        frames = np.arange(64)
        words = pcg64_state_words([0x5E1F7, 9301, frames, 4093204925])
        for i in (0, 3, 63):
            expected = _reference_words((0x5E1F7, 9301, i, 4093204925))
            assert np.array_equal(words[i], expected)

    def test_wide_scalar_entropy_expands_to_two_words(self):
        big = 2**32 + 5  # crc32-salt + offset can exceed one uint32 word
        words = pcg64_state_words([0x5E1F7, big, np.arange(4)])
        for i in range(4):
            assert np.array_equal(words[i], _reference_words((0x5E1F7, big, i)))

    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_matches_seedsequence(self, prefix, varying):
        words = pcg64_state_words([*prefix, np.array([varying], dtype=np.uint64)])
        assert np.array_equal(words[0], _reference_words((*prefix, varying)))

    def test_rejects_oversized_varying_values(self):
        with pytest.raises(ValueError):
            pcg64_state_words([1, np.array([2**32], dtype=np.uint64)])

    def test_rejects_mismatched_varying_lengths(self):
        with pytest.raises(ValueError):
            entropy_rows([np.arange(3), np.arange(4)])

    def test_scalar_only_parts_need_explicit_count(self):
        with pytest.raises(ValueError):
            entropy_rows([1, 2, 3])
        rows = entropy_rows([1, 2, 3], count=5)
        assert rows.shape == (5, 3)


class TestDrawPool:
    def test_first_normals_match_default_rng(self):
        frames = np.arange(300)
        words = pcg64_state_words([0x5E1F7, 3, 9301, 9301, frames])
        drawn = DrawPool().first_normals(words)
        for i in (0, 1, 99, 299):
            expected = np.random.default_rng((0x5E1F7, 3, 9301, 9301, int(i))).standard_normal()
            assert drawn[i] == expected

    def test_generator_for_replays_full_stream(self):
        words = pcg64_state_words([0x5E1F7, 9301, np.arange(3), 77])
        pool = DrawPool()
        for i in range(3):
            gen = pool.generator_for(words[i])
            ref = np.random.default_rng((0x5E1F7, 9301, i, 77))
            assert gen.poisson(0.4) == ref.poisson(0.4)
            assert np.array_equal(gen.uniform(size=5), ref.uniform(size=5))
            assert gen.normal(0.0, 0.3) == ref.normal(0.0, 0.3)

    def test_scaled_normal_matches_numpy_loc_scale_path(self):
        words = pcg64_state_words([11, np.arange(50)])
        z = DrawPool().first_normals(words)
        for i in (0, 13, 49):
            assert 0.37 * z[i] == np.random.default_rng((11, int(i))).normal(0.0, 0.37)


def _bits(values: np.ndarray) -> np.ndarray:
    """Float64 values as their bit patterns: equality that tells -0.0 from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _draw_paths(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ziggurat layer, and whether it leaves the fast path."""
    wi, ki = fastrng.layer_tables()
    layer = (fastrng.first_outputs(words) & np.uint64(0xFF)).astype(np.intp)
    slow = np.zeros(len(words), dtype=bool)
    slow[fastrng._fast_normals(words, wi, ki)[1]] = True
    return layer, slow


@pytest.fixture
def fresh_tables():
    """Re-read the layer tables in the test, and again after it."""
    fastrng.layer_tables.cache_clear()
    yield
    fastrng.layer_tables.cache_clear()


class TestVectorizedFirstNormals:
    def test_random_seed_words_equal_the_scalar_replay(self):
        words = np.random.PCG64(2024).random_raw(4 * 60_000).reshape(-1, 4)
        pool = DrawPool()
        assert np.array_equal(
            _bits(pool.first_normals(words)), _bits(pool.replay_first_normals(words))
        )
        layer, slow = _draw_paths(words)
        assert slow[layer == 1].all() and (layer == 1).sum() > 100  # no fast path there
        assert (slow & (layer != 1)).sum() > 100  # rabs past a layer's limit
        assert not slow.all()

    @pytest.mark.parametrize("layout", ["iid", "knot", "model"])
    def test_detector_layouts_equal_the_scalar_replay(self, layout):
        salt, seed, count = 0x5E1F7, 9301, 4000
        varying = np.arange(count)
        parts = {
            "iid": [salt, 4093204927, seed, seed, varying],  # 5 words
            "knot": [salt, 4093204926, seed, varying],  # 4 words
            "model": [salt, seed, varying, 4093204925],  # 4 words, frame mid-tuple
        }[layout]
        words = pcg64_state_words(parts)
        pool = DrawPool()
        assert np.array_equal(
            _bits(pool.first_normals(words)), _bits(pool.replay_first_normals(words))
        )
        assert _draw_paths(words)[1].any()

    def test_a_sample_equals_default_rng(self):
        entropy = [(0x5E1F7, 17, 9301, 9301, i) for i in range(400)] + [
            (0x5E1F7, 9301, i, 2**32 + 3) for i in range(400)
        ]
        words = np.array([_reference_words(e) for e in entropy])
        drawn = DrawPool().first_normals(words)
        expected = [np.random.default_rng(e).standard_normal() for e in entropy]
        assert np.array_equal(_bits(drawn), _bits(expected))

    @settings(max_examples=200)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6))
    def test_property_first_normal_is_default_rngs(self, entropy):
        words = pcg64_state_words(entropy, count=1)
        drawn = DrawPool().first_normals(words)[0]
        assert _bits(drawn) == _bits(np.random.default_rng(entropy).standard_normal())

    def test_first_outputs_match_numpy_at_every_rotation(self):
        words = np.random.PCG64(5).random_raw(4 * 3000).reshape(-1, 4)
        mult = (2549297995355413924 << 64) | 4865540595714422341
        rotations, raw = [], []
        pool = DrawPool()
        for row in words:
            state = pool.generator_for(row).bit_generator.state["state"]
            stepped = (state["state"] * mult + state["inc"]) % 2**128
            rotations.append(stepped >> 122)  # XSL-RR rotates by the top six bits
            raw.append(pool.generator_for(row).bit_generator.random_raw())
        assert set(rotations) == set(range(64))  # rotation 0 included
        assert [int(v) for v in fastrng.first_outputs(words)] == raw

    def test_tables_are_read_on_first_use_not_on_import(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import repro.models.fastrng as f; print(f.layer_tables.cache_info().currsize)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(fastrng.__file__).parents[2])},
        )
        assert done.stdout.strip() == "0", done.stderr

    def test_a_wrong_table_entry_sends_every_row_to_the_scalar_path(
        self, monkeypatch, fresh_tables
    ):
        real = fastrng._read_layer_tables
        sample = fastrng._check_sample()
        wi, ki = real()
        fast_row = np.setdiff1d(np.arange(len(sample)), fastrng._fast_normals(sample, wi, ki)[1])[0]
        layer = int(fastrng.first_outputs(sample)[fast_row] & np.uint64(0xFF))

        def one_wrong_entry():
            wrong = wi.copy()
            wrong[layer] = np.nextafter(wrong[layer], 1.0)
            return wrong, ki

        monkeypatch.setattr(fastrng, "_read_layer_tables", one_wrong_entry)
        checked_wi, checked_ki = fastrng.layer_tables()
        assert not checked_ki.any()  # no row passes rabs < 0
        words = np.random.PCG64(9).random_raw(4 * 500).reshape(-1, 4)
        pool = DrawPool()
        assert np.array_equal(
            _bits(pool.first_normals(words)), _bits(pool.replay_first_normals(words))
        )

    def test_the_read_out_passes_its_own_check(self, fresh_tables):
        wi, ki = fastrng.layer_tables()
        assert ki.any()
        assert (ki == 0).sum() == 1  # only NumPy's layer 1 lacks a fast path
        assert np.array_equal(ki, fastrng._read_layer_tables()[1])


class TestStreamStateWords:
    def test_a_grid_equals_per_stream_hashing_across_word_widths(self):
        streams = [0, 7, 2**32 - 1, 2**32, 2**32 + 3, 2**40]
        frames = np.array([0, 3, 44, 45, 2**31])
        grid = fastrng.stream_state_words(
            streams, frames, lambda s, frame: [0x5E1F7, *s, 9301, 9301, frame]
        )
        assert grid.shape == (len(streams), len(frames), 4)
        for i, stream in enumerate(streams):
            for j, frame in enumerate(frames):
                expected = _reference_words((0x5E1F7, stream, 9301, 9301, int(frame)))
                assert np.array_equal(grid[i, j], expected), (stream, frame)

    def test_an_empty_grid(self):
        grid = fastrng.stream_state_words([3, 4], np.arange(0), lambda s, f: [1, *s, f])
        assert grid.shape == (2, 0, 4)


_BOUNDS = ((0.04, 0.22), (0.5, 1.1), (0.1, 0.9), (0.1, 0.9), (0.05, 0.30))


def _reference_items(entropy: list[tuple], rates: list[float]) -> tuple[list, list]:
    owners, values = [], []
    for row, (key, rate) in enumerate(zip(entropy, rates)):
        generator = np.random.default_rng(key)
        for _ in range(generator.poisson(rate)):
            owners.append(row)
            values.append([generator.uniform(low, high) for low, high in _BOUNDS])
    return owners, values


class TestPoissonItems:
    """Distractor-shaped draws: a Poisson count, then five uniforms per item."""

    def test_a_sample_equals_default_rng(self):
        entropy = [(0x5E1F7, 9301, i, 4093204925) for i in range(600)]
        rates = [(0.0, 0.07, 0.35, 0.96, 2.4, 9.99)[i % 6] for i in range(600)]
        words = np.array([_reference_words(e) for e in entropy])
        owners, values = DrawPool().poisson_items(words, rates, _BOUNDS)
        expected_owners, expected_values = _reference_items(entropy, rates)
        assert owners.tolist() == expected_owners
        assert np.array_equal(_bits(values), _bits(expected_values))

    def test_rates_from_ten_up_and_long_counts_replay(self):
        # Rate 10 takes NumPy's PTRS branch; rate 6 often needs more
        # outputs than the vectorized count reads.
        entropy = [(0x5E1F7, 3, i) for i in range(80)]
        rates = [10.0 if i % 2 else 6.0 for i in range(80)]
        words = np.array([_reference_words(e) for e in entropy])
        owners, values = DrawPool().poisson_items(words, rates, _BOUNDS)
        expected_owners, expected_values = _reference_items(entropy, rates)
        assert owners.tolist() == expected_owners
        assert np.array_equal(_bits(values), _bits(expected_values))

    def test_an_invalid_rate_raises_as_numpy_does(self):
        words = np.array([_reference_words((1, 2, 3))])
        with pytest.raises(ValueError):
            DrawPool().poisson_items(words, [-0.5], _BOUNDS)

    def test_no_rows_and_zero_rates_draw_nothing(self):
        pool = DrawPool()
        owners, values = pool.poisson_items(np.zeros((0, 4), dtype=np.uint64), [], _BOUNDS)
        assert owners.shape == (0,) and values.shape == (0, 5)
        words = np.random.PCG64(4).random_raw(4 * 10).reshape(-1, 4)
        owners, values = pool.poisson_items(words, np.zeros(10), _BOUNDS)
        assert owners.shape == (0,) and values.shape == (0, 5)

    def test_the_vectorized_path_passes_its_own_check(self):
        assert fastrng.poisson_items_exact()

    def test_a_failed_check_sends_every_row_to_the_replay(self, monkeypatch):
        monkeypatch.setattr(fastrng, "poisson_items_exact", lambda: False)
        replayed = []
        real = DrawPool.replay_poisson_items

        def counting(self, words, rates, bounds):
            replayed.append(len(words))
            return real(self, words, rates, bounds)

        monkeypatch.setattr(DrawPool, "replay_poisson_items", counting)
        words = np.random.PCG64(6).random_raw(4 * 50).reshape(-1, 4)
        rates = np.full(50, 0.5)
        owners, values = DrawPool().poisson_items(words, rates, _BOUNDS)
        assert replayed == [50]
        fast_owners, fast_values = DrawPool()._poisson_items(
            words, rates, _BOUNDS, np.ones(50, dtype=bool)
        )
        assert np.array_equal(owners, fast_owners)
        assert np.array_equal(_bits(values), _bits(fast_values))
