import bisect

import numpy as np

from csi_graphlab import rng as rng_module
from csi_graphlab.rng import (
    GAMMA,
    _derive_seeds,
    _pcg64_states,
    derive_seed,
    mix64,
    replicate_generators,
    stream,
    uniform_thresholds_index,
)

MASK = (1 << 64) - 1


def reference_next(state):
    """Stateful reference generator, written straight off the algorithm."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def reference_stream(seed, n):
    out, state = [], seed & MASK
    for _ in range(n):
        state, z = reference_next(state)
        out.append(z)
    return out


def test_counter_mode_matches_stateful_reference():
    for seed in (0, 1, 42, 2**63, MASK):
        assert stream(seed, 16).tolist() == reference_stream(seed, 16)


def test_known_first_draw_for_seed_zero():
    # Widely published first output of this generator seeded at 0.
    assert stream(0, 1)[0] == 0xE220A8397B1DCDAF


def test_offset_slices_the_same_stream():
    full = stream(9, 10)
    assert stream(9, 6, offset=4).tolist() == full[4:].tolist()
    assert stream(9, 0).tolist() == []


def test_mix64_matches_vectorized_path():
    for i in range(1, 8):
        assert mix64((5 + i * GAMMA) & MASK) == stream(5, i)[i - 1]


def test_derive_seed_separates_streams():
    a = derive_seed(7, 1)
    b = derive_seed(7, 2)
    c = derive_seed(7, 1, 2)
    d = derive_seed(7, 2, 1)
    assert len({a, b, c, d}) == 4
    assert derive_seed(7, 1) == a  # stable


def test_threshold_lookup_matches_bisect():
    cdf = [1 << 62, 3 << 62]  # cells with probability 1/4, 1/2, 1/4
    idx = uniform_thresholds_index(np.array(cdf, dtype=np.uint64), seed=3, n=4096)
    want = [bisect.bisect_right(cdf, z) for z in reference_stream(3, 4096)]
    assert idx.tolist() == want
    counts = np.bincount(idx, minlength=3) / 4096
    assert abs(counts[0] - 0.25) < 0.03
    assert abs(counts[1] - 0.50) < 0.03


def test_threshold_lookup_degenerate_cell():
    # Zero-width first cell is never selected.
    cdf = np.array([0, 1 << 63], dtype=np.uint64)
    idx = uniform_thresholds_index(cdf, seed=11, n=500)
    assert 0 not in set(idx.tolist())


def test_pcg64_states_match_numpy_seeding():
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, MASK]
    drawn = np.random.default_rng(2024).integers(0, MASK, 10_000, np.uint64, endpoint=True)
    small = np.arange(2**32 - 50, 2**32 + 50, dtype=np.uint64)  # one entropy word or two
    seeds = edges + drawn.tolist() + small.tolist()
    got = list(_pcg64_states(np.array(seeds, dtype=np.uint64)))
    assert got == [np.random.PCG64(s).state for s in seeds]


def test_vectorized_derive_matches_derive_seed():
    for seed in (0, 7, 2**63, MASK):
        for ks in (range(3, 40), range(1000, 1001), range(5, 5)):
            assert _derive_seeds(seed, ks).tolist() == [derive_seed(seed, k) for k in ks]


def test_reused_generator_draws_like_a_fresh_default_rng(monkeypatch):
    law = np.array([0.2, 0.5, 0.3])
    ks = range(2, 60)
    for block in (rng_module._STATE_BLOCK, 7):  # 7: state blocks that cut the range
        monkeypatch.setattr(rng_module, "_STATE_BLOCK", block)
        reused = [
            (g.multinomial(500, law), g.multinomial(0, law), g.multinomial(37, law))
            for g in replicate_generators(11, ks)
        ]
        for k, draws in zip(ks, reused):
            fresh = np.random.default_rng(derive_seed(11, k))
            for n, got in zip((500, 0, 37), draws):
                assert got.tolist() == fresh.multinomial(n, law).tolist()
        assert len(reused) == len(ks)
