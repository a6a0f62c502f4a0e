import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import ParameterError, philox, theory

TILE = philox.TILE

# (counter, key) -> output: the Random123 known-answer vectors for
# Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as
# 1, 2, 3", SC'11).
M32 = 0xFFFFFFFF
KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((M32,) * 4, (M32, M32), (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter,key,want", KNOWN_ANSWERS)
def test_known_answers_scalar_reference(counter, key, want):
    assert philox.philox4x32_scalar(counter, key) == want


@pytest.mark.parametrize("counter,key,want", KNOWN_ANSWERS)
def test_known_answers_single_block(counter, key, want):
    out = philox.philox4x32(*counter, *key)
    assert tuple(int(w) for w in out) == want


@pytest.mark.parametrize("counter,key,want", KNOWN_ANSWERS)
def test_known_answers_broadcast_many_blocks(counter, key, want):
    # the vector sits at a few positions of a grid spanning several tiles,
    # on both sides of a tile boundary; its neighbours carry other counters
    n = 6 * TILE + 3
    pos = [0, 1, TILE - 1, TILE, 3 * TILE + 1, n - 1]
    c = [np.arange(n, dtype=np.uint64) * (w + 1) for w in range(4)]
    k0 = np.arange(n, dtype=np.uint64)
    for p in pos:
        for w in range(4):
            c[w][p] = counter[w]
        k0[p] = key[0]
    out = philox.philox4x32(c[0][:, None], c[1][:, None], c[2][:, None], c[3][:, None],
                            k0[:, None], np.array([key[1]], dtype=np.uint64))
    assert out[0].shape == (n, 1)
    for p in pos:
        assert tuple(int(o[p, 0]) for o in out) == want
    q = 12_345
    ref = philox.philox4x32_scalar([int(x[q]) for x in c], (int(k0[q]), key[1]))
    assert tuple(int(o[q, 0]) for o in out) == ref


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def broadcast_grids(draw):
    """Six broadcastable inputs (c0..c3, k0, k1) of a grid of 2..3*TILE blocks."""
    size = draw(st.sampled_from([TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
                | st.integers(2, 3 * TILE))
    shape, rest = [], size
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.sampled_from(_divisors(rest)))
        shape.append(d)
        rest //= d
    shape.append(rest)
    shape = list(draw(st.permutations(shape)))
    scalar_key = draw(st.booleans())
    n_inputs = 4 if scalar_key else 6
    # every axis is carried by at least one input; the others broadcast
    keeps = [[draw(st.booleans()) for _ in shape] for _ in range(n_inputs)]
    for axis in range(len(shape)):
        keeps[draw(st.integers(0, n_inputs - 1))][axis] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = [rng.integers(0, 2**64, size=[d if k else 1 for d, k in zip(shape, keep)],
                           dtype=np.uint64) for keep in keeps]
    if scalar_key:
        inputs += [int(x) for x in rng.integers(0, 2**32, size=2)]
    return tuple(shape), inputs


@settings(max_examples=25, deadline=None)
@given(broadcast_grids())
def test_tiled_path_equals_scalar_rounds(grid):
    shape, inputs = grid
    out = philox.philox4x32(*inputs)
    assert all(o.shape == shape and o.dtype == np.uint64 for o in out)
    flat = [np.broadcast_to(np.asarray(x, dtype=np.uint64), shape).ravel() for x in inputs]
    words = np.stack([o.ravel() for o in out], axis=1)
    for i in range(words.shape[0]):
        ref = philox.philox4x32_scalar([int(x[i]) for x in flat[:4]],
                                       [int(x[i]) for x in flat[4:]])
        assert tuple(int(w) for w in words[i]) == ref


def _inputs(rng, scalar_key):
    """Six inputs of a (3, 5, 11) grid; only c0 and c1 carry random words."""
    c0 = rng.integers(0, 2**64, size=(3, 1, 11), dtype=np.uint64)
    c1 = rng.integers(0, 2**64, size=(1, 5, 1), dtype=np.uint64)
    c2, c3 = np.arange(11, dtype=np.uint64), 9
    if scalar_key:
        return [c0, c1, c2, c3, 12345, M32]
    k0 = rng.integers(0, 2**64, size=(3, 1, 1), dtype=np.uint64)
    k1 = rng.integers(0, 2**64, size=(1, 5, 11), dtype=np.uint64)
    return [c0, c1, c2, c3, k0, k1]


@pytest.mark.parametrize("tile", [7, 64])
@pytest.mark.parametrize("scalar_key", [True, False])
def test_grid_walk_with_a_small_tile(monkeypatch, tile, scalar_key):
    # a run longer than TILE would not fit the work buffers and fail; every
    # block must land at its C-order position, whatever the run lengths
    monkeypatch.setattr(philox, "TILE", tile)
    inputs = _inputs(np.random.default_rng(tile), scalar_key)
    out = philox.philox4x32(*inputs)
    shape = (3, 5, 11)
    assert all(o.shape == shape for o in out)
    flat = [np.broadcast_to(np.asarray(x, dtype=np.uint64), shape).ravel() for x in inputs]
    words = np.stack([o.ravel() for o in out], axis=1)
    for i in range(words.shape[0]):
        ref = philox.philox4x32_scalar([int(x[i]) for x in flat[:4]],
                                       [int(x[i]) for x in flat[4:]])
        assert tuple(int(w) for w in words[i]) == ref
    rows, cols = np.arange(13)[:, None], np.arange(50)[None, :]
    small = philox.gaussians(8, rows, cols, 1), philox.bernoullis(8, 0.4, rows, cols)
    monkeypatch.setattr(philox, "TILE", TILE)
    assert np.array_equal(small[0], philox.gaussians(8, rows, cols, 1))
    assert np.array_equal(small[1], philox.bernoullis(8, 0.4, rows, cols))


def test_edge_grids():
    z = philox.gaussians(1, np.arange(0), 0)
    assert z.shape == (0,) and z.dtype == np.float64
    s = philox.signs(1, np.zeros((0, 3), dtype=np.uint64), 0)
    assert s.shape == (0, 3) and s.dtype == np.int64
    g = philox.gaussians(1, 3, 4)
    assert g.shape == () and g == philox.gaussians(1, np.array([3]), 4)[0]
    # a size-1 key keeps its axes in the grid's shape
    k = np.zeros((1, 1, 1), dtype=np.uint64)
    out = philox.philox4x32(np.arange(4), 0, 0, 0, k, k)
    assert all(o.shape == (1, 1, 4) for o in out)
    assert tuple(int(o[0, 0, 2]) for o in out) == philox.philox4x32_scalar((2, 0, 0, 0), (0, 0))


@pytest.mark.parametrize("size", [TILE - 1, TILE, TILE + 1, 3 * TILE + 5])
def test_transforms_equal_single_block_draws(size):
    # every transform is applied tile by tile; a block's value must not
    # depend on its position in a tile or on the tile it falls in
    rows = np.arange(size, dtype=np.uint64)
    pick = [0, TILE - 2, TILE - 1, TILE, size - 1]
    pick = [i for i in pick if 0 <= i < size]
    u1, u2 = philox.uniforms01(21, rows, 4, 1)
    z = philox.gaussians(21, rows, 4, 1)
    s = philox.signs(21, rows, 4, 1)
    b = philox.bernoullis(21, 0.4, rows, 4, 1)
    for i in pick:
        v1, v2 = philox.uniforms01(21, i, 4, 1)
        assert (u1[i], u2[i]) == (v1, v2)
        assert z[i] == philox.gaussians(21, i, 4, 1)
        assert s[i] == philox.signs(21, i, 4, 1)
        assert b[i] == philox.bernoullis(21, 0.4, i, 4, 1)
        w = philox.philox4x32_scalar((i, 4, 1, 0), (21, 0))
        assert s[i] == 1 - 2 * (w[0] & 1)
    assert z.dtype == np.float64 and s.dtype == np.int64 and b.dtype == np.int64


def test_mc_box_probability_estimate_pinned():
    # recorded before the sample loop was streamed: the estimate is a
    # count of hits and must not depend on how the samples are chunked
    spec = theory.CovarianceSpec(3, 0.8, 0.0)
    samples = (1 << 18) + 12345
    est = theory.mc_box_probability(spec, 1.0, samples, seed=20231)
    assert est.samples == samples
    assert est.estimate == 132977 / samples


def test_vectorized_matches_scalar_reference():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ctr = [int(x) for x in rng.integers(0, 2**32, 4)]
        key = [int(x) for x in rng.integers(0, 2**32, 2)]
        ref = philox.philox4x32_scalar(ctr, key)
        vec = philox.philox4x32(*ctr, key[0], key[1])
        assert tuple(int(v) for v in vec) == ref


def test_broadcast_keys_equal_scalar_loop():
    seeds = np.array([3, 9, 2**63 + 5], dtype=np.uint64)
    k0, k1 = philox.split_key(seeds)
    c = np.arange(4, dtype=np.uint64)
    out = philox.philox4x32(c[None, :], 1, 2, 3, k0[:, None], k1[:, None])
    for i, s in enumerate(seeds):
        l0, l1 = philox.split_key(int(s))
        single = philox.philox4x32(c, 1, 2, 3, l0, l1)
        for w in range(4):
            assert np.array_equal(out[w][i], single[w])


def test_uniforms_open_interval_and_deterministic():
    u1, u2 = philox.uniforms01(7, np.arange(100000), 0)
    assert float(u1.min()) > 0.0 and float(u1.max()) < 1.0
    v1, _ = philox.uniforms01(7, np.arange(100000), 0)
    assert np.array_equal(u1, v1)
    w1, _ = philox.uniforms01(8, np.arange(100000), 0)
    assert not np.array_equal(u1, w1)


def test_gaussian_moments():
    z = philox.gaussians(11, np.arange(200000), 5)
    assert abs(z.mean()) < 3.0 / np.sqrt(len(z))
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / len(z))


def test_signs_balanced():
    s = philox.signs(13, np.arange(100000), 1)
    assert set(np.unique(s)) == {-1, 1}
    assert abs(s.mean()) < 3.0 / np.sqrt(len(s))


def test_bernoulli_rate():
    b = philox.bernoullis(17, 0.3, np.arange(100000), 2)
    assert set(np.unique(b)) <= {0, 1}
    assert abs(b.mean() - 0.3) < 3.0 * np.sqrt(0.3 * 0.7 / len(b))


def test_seed_validation():
    with pytest.raises(ValueError):
        philox.split_key(-1)
    with pytest.raises(ValueError):
        philox.split_key(2**64)


def test_out_of_range_seed_is_parameter_error():
    for seed in (-1, 2**64):
        with pytest.raises(ParameterError):
            philox.split_key(seed)
        with pytest.raises(ParameterError):
            philox.gaussians(seed, np.arange(3), 0)


def test_derive_seed_spread():
    vals = {philox.derive_seed(5, a, b) for a in range(30) for b in range(30)}
    assert len(vals) == 900
    assert all(0 <= v < 2**64 for v in vals)
    assert philox.derive_seed(5, 3, 4) == philox.derive_seed(5, 3, 4)


def test_derive_seed_counter_words_are_32_bit_integers():
    # 1.7 used to truncate to 1, True to count as 1 and -1 to wrap to 2^32 - 1
    for word in (1.7, True, -1, 2**32, np.float64(3.0)):
        for a, b in ((word, 0), (0, word)):
            with pytest.raises(ParameterError, match="counter words must be integers"):
                philox.derive_seed(5, a, b)
    assert philox.derive_seed(5, np.int64(3)) == philox.derive_seed(5, 3)
    assert philox.derive_seed(5, np.uint32(3), np.int8(2)) == philox.derive_seed(5, 3, 2)
    assert philox.derive_seed(5, M32, M32) != philox.derive_seed(5, 0, 0)


def test_every_draw_obeys_the_seed_rule():
    # a float seed used to truncate (derive_seed(1.7, 3) == derive_seed(1, 3))
    # and a negative array seed to wrap to 2^64 - 1
    for seed in (1.7, np.float64(2.0), True, -1, 2**64, np.int64(-1)):
        with pytest.raises(ParameterError, match="seeds must be integers"):
            philox.derive_seed(seed, 3)
    for seeds in (np.array([-1]), np.array([1.7]), [3, True], [2**64]):
        with pytest.raises(ParameterError, match="seeds must be integers"):
            philox.gaussians(seeds, np.arange(3), 0)


def test_numpy_integer_seeds_draw_as_their_int_seed():
    c = np.arange(5)
    for seed in (np.uint64(2**63 + 5), np.uint64(2**64 - 1), np.int64(5), np.uint32(7)):
        s = int(seed)
        assert philox.derive_seed(seed, 3) == philox.derive_seed(s, 3)
        assert np.array_equal(philox.gaussians(seed, c, 0), philox.gaussians(s, c, 0))
        assert np.array_equal(philox.signs(np.array([seed]), c, 1), philox.signs(s, c, 1))
