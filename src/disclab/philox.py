"""Counter-based random number generation (Philox4x32-10).

Every random entry used in this package is a pure function of a 64-bit
seed and a small tuple of counter words, so any single matrix entry (or
Monte Carlo sample) can be computed without streaming through a generator
state.  This is what makes instance generation reproducible, order
independent, and safely parallel.

Layout used by the callers in this package:

    key     = (seed low 32 bits, seed high 32 bits)
    counter = (c0, c1, c2, c3)  -- e.g. (row, col, stream, 0)

One Philox block yields four 32-bit words; ``uniforms01`` folds them into
two open-interval (0,1) doubles and ``gaussians`` applies Box-Muller to
those two, producing one standard normal per block.

``philox4x32`` evaluates a broadcast grid of blocks in one of two ways:

* a grid of one block runs the ten rounds on plain Python integers
  (``philox4x32_scalar``).  ``derive_seed`` is the one caller that draws
  a single block per call; the others reach this path only when a grid
  happens to hold one block (the online ``random`` signer draws a whole
  column block per call);
* a larger grid is cut, in C order, into tiles of at most ``TILE`` = 2^14
  blocks.  A tile's counters, and its keys when the key is an array, are
  copied into uint64 buffers allocated once per call, and every round
  runs as in-place ufuncs.  A scalar key's ten round keys are computed
  once per call.

The word transforms (the (0,1) fold, Box-Muller, the sign bit and the
Bernoulli compare) are applied tile by tile, so ``uniforms01``,
``gaussians``, ``signs`` and ``bernoullis`` hold their output plus one
tile of temporaries (about 1 MB), however many blocks they draw.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9  # Weyl increments for the key schedule
_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10

TILE = 1 << 14

_TWO_PI = 2.0 * np.pi
_INV_2_53 = 1.0 / 9007199254740992.0  # 2^-53


def _raw_words(w, outs, scratch):
    for out, word in zip(outs, w):
        np.copyto(out, word)


def _unit_open(hi, lo, out):
    # 64 bits -> double in (0, 1): 53-bit mantissa offset by half an ulp
    np.left_shift(hi, _SHIFT32, out=hi)
    np.bitwise_or(hi, lo, out=hi)
    np.right_shift(hi, np.uint64(11), out=hi)
    np.add(hi, 0.5, out=out)
    np.multiply(out, _INV_2_53, out=out)


def _uniform_pair(w, outs, scratch):
    _unit_open(w[0], w[1], outs[0])
    _unit_open(w[2], w[3], outs[1])


def _box_muller(w, outs, u2):
    z = outs[0]
    _unit_open(w[0], w[1], z)
    _unit_open(w[2], w[3], u2)
    np.log(z, out=z)
    np.multiply(z, -2.0, out=z)
    np.sqrt(z, out=z)
    np.multiply(u2, _TWO_PI, out=u2)
    np.cos(u2, out=u2)
    np.multiply(z, u2, out=z)


def _sign_bit(w, outs, scratch):
    s = outs[0]
    np.bitwise_and(w[0], 1, out=s)
    np.multiply(s, -2, out=s)
    np.add(s, 1, out=s)


def _bernoulli_below(p):
    def fold(w, outs, u1):
        _unit_open(w[0], w[1], u1)
        np.less(u1, p, out=outs[0])
    return fold


# (output dtypes, per-tile fold of the four words into the outputs)
_WORDS = ((np.uint64,) * 4, _raw_words)
_UNIFORMS = ((np.float64, np.float64), _uniform_pair)
_GAUSSIANS = ((np.float64,), _box_muller)
_SIGNS = ((np.int64,), _sign_bit)


def _tiles(shape):
    """(flat start, index) of runs of at most TILE consecutive C-order blocks.

    The trailing axes that fit in one tile are kept whole; the axis before
    them is cut into steps and every axis further out is walked one index
    at a time.
    """
    inner, j = 1, len(shape)
    while j > 0 and inner * shape[j - 1] <= TILE:
        j -= 1
        inner *= shape[j]
    if j == 0:
        yield 0, ()
        return
    step, start = TILE // inner, 0
    for outer in np.ndindex(*shape[:j - 1]):
        for a in range(0, shape[j - 1], step):
            b = min(a + step, shape[j - 1])
            yield start, outer + (slice(a, b),)
            start += (b - a) * inner


def _scalar_schedule(k0: int, k1: int) -> list:
    k0, k1 = k0 & 0xFFFFFFFF, k1 & 0xFFFFFFFF
    keys = []
    for _ in range(_ROUNDS):
        keys.append((np.uint64(k0), np.uint64(k1)))
        k0 = (k0 + _W0) & 0xFFFFFFFF
        k1 = (k1 + _W1) & 0xFFFFFFFF
    return keys


def _array_schedule(k0, k1):
    """The round keys of one tile of array keys, advanced in place."""
    for r in range(_ROUNDS):
        yield k0, k1
        if r + 1 < _ROUNDS:
            for k, w in ((k0, _W0), (k1, _W1)):
                np.add(k, np.uint64(w), out=k)
                np.bitwise_and(k, _MASK32, out=k)


def _load(dst, src):
    """Copy one tile of a broadcast input into a flat buffer, mod 2^32."""
    np.copyto(dst.reshape(src.shape), src)
    np.bitwise_and(dst, _MASK32, out=dst)


def _rounds(x, p0, p1, keys):
    c0, c1, c2, c3 = x
    for k0, k1 in keys:
        np.multiply(c0, _M0, out=p0)  # 32x32 -> 64 bit product, exact in uint64
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=c0)
        np.bitwise_xor(c0, c1, out=c0)
        np.bitwise_xor(c0, k0, out=c0)
        np.right_shift(p0, _SHIFT32, out=c2)
        np.bitwise_xor(c2, c3, out=c2)
        np.bitwise_xor(c2, k1, out=c2)
        np.bitwise_and(p1, _MASK32, out=c1)
        np.bitwise_and(p0, _MASK32, out=c3)


def philox4x32(c0, c1, c2, c3, k0, k1, *, fold=_WORDS):
    """Philox4x32-10 block function on broadcastable uint64 arrays.

    Counter and key inputs broadcast against each other and are taken
    mod 2^32; returns four uint64 arrays holding 32-bit words.  ``fold``
    is the module's own hook for its word transforms (the (0,1) fold,
    Box-Muller, the sign bit, the Bernoulli compare), which are applied
    tile by tile instead of returning the words.
    """
    args = [np.asarray(x, dtype=np.uint64) for x in (c0, c1, c2, c3, k0, k1)]
    shape = np.broadcast(*args).shape
    size = math.prod(shape)
    dtypes, apply = fold
    outs = [np.empty(size, dtype=d) for d in dtypes]
    scratch = np.empty(min(size, TILE), dtype=np.float64)
    if size == 1:
        words = philox4x32_scalar([a.item() for a in args[:4]], [a.item() for a in args[4:]])
        apply([np.array([w], dtype=np.uint64) for w in words], outs, scratch)
    elif size > 1:
        scalar_key = args[4].size == 1 and args[5].size == 1
        if scalar_key:
            keys = _scalar_schedule(args[4].item(), args[5].item())
            args = args[:4]
        grid = [np.broadcast_to(a, shape) for a in args]
        # one buffer per loaded input, then the two round products
        bufs = [np.empty(min(size, TILE), dtype=np.uint64) for _ in range(len(args) + 2)]
        for start, index in _tiles(shape):
            tile = [g[index] for g in grid]
            n = tile[0].size
            x = [b[:n] for b in bufs]
            for dst, src in zip(x, tile):
                _load(dst, src)
            if not scalar_key:
                keys = _array_schedule(x[4], x[5])
            _rounds(x[:4], x[-2], x[-1], keys)
            apply(x[:4], [o[start:start + n] for o in outs], scratch[:n])
    return tuple(o.reshape(shape) for o in outs)


def split_key(seed) -> tuple[np.uint64, np.uint64]:
    """64-bit seed (scalar or array) -> (low, high) 32-bit key words."""
    if np.isscalar(seed) and not isinstance(seed, np.ndarray):
        if not 0 <= seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned value, got {seed}")
        s = np.uint64(seed)
    else:
        s = np.asarray(seed, dtype=np.uint64)
    return s & _MASK32, s >> _SHIFT32


def uniforms01(seed: int, c0, c1, c2=0, c3=0):
    """Two independent (0,1) uniforms per counter block."""
    k0, k1 = split_key(seed)
    return philox4x32(c0, c1, c2, c3, k0, k1, fold=_UNIFORMS)


def gaussians(seed: int, c0, c1, c2=0, c3=0):
    """One standard normal per counter block via Box-Muller."""
    k0, k1 = split_key(seed)
    return philox4x32(c0, c1, c2, c3, k0, k1, fold=_GAUSSIANS)[0]


def signs(seed: int, c0, c1, c2=0, c3=0):
    """One uniform sign in {-1, +1} per counter block (int64)."""
    k0, k1 = split_key(seed)
    return philox4x32(c0, c1, c2, c3, k0, k1, fold=_SIGNS)[0]


def bernoullis(seed: int, p: float, c0, c1, c2=0, c3=0):
    """One Bernoulli(p) draw in {0, 1} per counter block (int64)."""
    k0, k1 = split_key(seed)
    fold = ((np.int64,), _bernoulli_below(p))
    return philox4x32(c0, c1, c2, c3, k0, k1, fold=fold)[0]


def derive_seed(seed: int, a: int, b: int = 0) -> int:
    """A fresh 64-bit seed from (seed, a, b); used to fan out sub-streams."""
    k0, k1 = split_key(seed)
    o0, o1, _, _ = philox4x32_scalar((int(a), int(b), 7, 0), (int(k0), int(k1)))
    return (o0 << 32) | o1


def philox4x32_scalar(counter, key, rounds: int = _ROUNDS):
    """Plain-integer Philox4x32 rounds: the single-block path of
    ``philox4x32`` and the reference its tiled path is tested against."""
    c = [x & 0xFFFFFFFF for x in counter]
    k0, k1 = key[0] & 0xFFFFFFFF, key[1] & 0xFFFFFFFF
    for _ in range(rounds):
        p0 = 0xD2511F53 * c[0]
        p1 = 0xCD9E8D57 * c[2]
        c = [
            ((p1 >> 32) ^ c[1] ^ k0) & 0xFFFFFFFF,
            p1 & 0xFFFFFFFF,
            ((p0 >> 32) ^ c[3] ^ k1) & 0xFFFFFFFF,
            p0 & 0xFFFFFFFF,
        ]
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return tuple(c)
