import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (Instance, InstanceFormatError, ParameterError,
                     UnsupportedDisorderError, generate, interpolate, load_instance,
                     resample_suffix, save_instance)
from disclab.instances import generate_batch


def test_rademacher_support():
    inst = generate(1, 1, "rademacher", 42)
    assert int(inst.entries[0, 0]) in (-1, 1)
    assert inst.entries.dtype == np.int64


def test_bernoulli_determinism():
    a = generate(2, 3, "bernoulli", 5, p=0.5)
    b = generate(2, 3, "bernoulli", 5, p=0.5)
    assert a.entries.tobytes() == b.entries.tobytes()
    assert set(np.unique(a.entries)) <= {0, 1}


def test_gaussian_determinism_bytes():
    a = generate(7, 9, "gaussian", 91)
    b = generate(7, 9, "gaussian", 91)
    assert a.entries.tobytes() == b.entries.tobytes()
    c = generate(7, 9, "gaussian", 92)
    assert not np.array_equal(a.entries, c.entries)


def test_gaussian_sample_mean_clt():
    # SE of the mean of 10^6 standard normals is 1e-3
    inst = generate(1000, 1000, "gaussian", 2718)
    assert abs(float(inst.entries.mean())) <= 3e-3


def test_generate_batch_matches_singles():
    seeds = [11, 12, 2**40 + 3]
    batch = generate_batch(4, 5, "gaussian", seeds)
    for i, s in enumerate(seeds):
        assert np.array_equal(batch[i], generate(4, 5, "gaussian", s).entries)
    rb = generate_batch(3, 3, "rademacher", seeds)
    for i, s in enumerate(seeds):
        assert np.array_equal(rb[i], generate(3, 3, "rademacher", s).entries)


@settings(max_examples=60, deadline=None)
@given(disorder=st.sampled_from(["gaussian", "rademacher", "bernoulli"]),
       rows=st.integers(1, 5), cols=st.integers(1, 30) | st.sampled_from([3277, 6000]),
       seeds=st.lists(st.integers(0, 2**64 - 1) | st.just(2**64 - 1), min_size=1, max_size=4),
       col_offset=st.integers(0, 64), data=st.data())
def test_generation_does_not_depend_on_order(disorder, rows, cols, seeds, col_offset, data):
    p = 0.3 if disorder == "bernoulli" else None
    # a batch member is its seed's own instance, at any column offset
    batch = generate_batch(rows, cols, disorder, seeds, p)
    shifted = generate_batch(rows, cols, disorder, seeds, p, col_offset=col_offset)
    for b, s in enumerate(seeds):
        assert np.array_equal(batch[b], generate(rows, cols, disorder, s, p).entries)
        wide = generate(rows, col_offset + cols, disorder, s, p).entries
        assert np.array_equal(shifted[b], wide[:, col_offset:])
    # a smaller instance is the top-left block of a larger one
    r, c = data.draw(st.integers(1, rows)), data.draw(st.integers(1, cols))
    full = generate(rows, cols, disorder, seeds[0], p).entries
    assert np.array_equal(generate(r, c, disorder, seeds[0], p).entries, full[:r, :c])
    # resampled suffixes are the member seeds' own last k columns
    k = data.draw(st.integers(1, cols))
    members = resample_suffix(generate(rows, cols, disorder, seeds[0], p), k,
                              len(seeds) + 1, seeds)
    suffixes = generate_batch(rows, k, disorder, seeds, p, col_offset=cols - k)
    for b, s in enumerate(seeds):
        entries = members[b + 1].entries
        assert np.array_equal(entries[:, cols - k:], suffixes[b])
        assert np.array_equal(entries[:, cols - k:],
                              generate(rows, cols, disorder, s, p).entries[:, cols - k:])
        assert np.array_equal(entries[:, :cols - k], full[:, :cols - k])


def test_parameter_errors():
    with pytest.raises(ParameterError):
        generate(0, 5, "gaussian", 1)
    with pytest.raises(ParameterError):
        generate(5, 0, "gaussian", 1)
    with pytest.raises(ParameterError):
        generate(2, 2, "bernoulli", 1, p=0.0)
    with pytest.raises(ParameterError):
        generate(2, 2, "bernoulli", 1, p=1.0)
    with pytest.raises(ParameterError):
        generate(2, 2, "bernoulli", 1)
    with pytest.raises(ParameterError):
        generate(2, 2, "nonsense", 1)
    with pytest.raises(ParameterError):
        generate(2, 2, "gaussian", 1, p=0.5)
    with pytest.raises(ParameterError):
        generate(2.0, 2, "gaussian", 1)
    with pytest.raises(ParameterError):
        generate(2, 2, "bernoulli", 1, p="0.5")


_DIMS = "rows and cols must be positive"
_SHAPE = r"entries have shape \(3, 2\), expected \(2, 3\)"


@pytest.mark.parametrize("rows, cols, shape, match", [
    (0, 3, (0, 3), _DIMS), (2, 3, (3, 2), _SHAPE), (2, -1, (2, 0), _DIMS),
    (2.0, 3, (2, 3), _DIMS), (True, 3, (1, 3), _DIMS), (2, 3, (6,), "entries have shape"),
    (2, 3, (1, 2, 3), "entries have shape")])
def test_a_malformed_instance_is_refused_at_construction(rows, cols, shape, match):
    # Instance(0, 3, ...) and a (3, 2) array for a 2 x 3 instance used to
    # construct, and a scan on them ended in a numpy ValueError
    with pytest.raises(ParameterError, match=match):
        Instance(rows, cols, "gaussian", None, np.ones(shape))
    assert Instance(np.int64(2), 3, "gaussian", None, np.ones((2, 3))).shape == (2, 3)


def test_seeds_must_be_integers_in_range():
    # a negative numpy seed would wrap to 2^64 - 1, a float seed truncate
    for seeds in (np.array([-1]), np.array([3, -5], dtype=np.int32), [1.7], np.array([1.7]),
                  [2**64], [-1], [True], np.array([True])):
        with pytest.raises(ParameterError, match="seeds must be integers"):
            generate_batch(2, 3, "gaussian", seeds)
    for seed in (1.7, 1.0, -1, 2**64, np.int64(-1), np.float64(2.0), True):
        with pytest.raises(ParameterError, match="seeds must be integers"):
            generate(2, 3, "gaussian", seed)
    with pytest.raises(ParameterError):
        resample_suffix(generate(2, 3, "gaussian", 1), 1, 2, [0.5])


def test_generate_batch_seeds_are_a_1d_sequence():
    for seeds in (5, np.uint64(5), [[1, 2]], np.zeros((2, 1), dtype=np.uint64)):
        with pytest.raises(ParameterError, match="1-d sequence"):
            generate_batch(2, 3, "gaussian", seeds)
    assert generate_batch(2, 3, "gaussian", [7]).shape == (1, 2, 3)


def test_numpy_integer_seeds_draw_the_int_seed():
    want = generate_batch(2, 3, "rademacher", [5, 2**63, 2**64 - 1])
    for seeds in (np.array([5, 2**63, 2**64 - 1], dtype=np.uint64),
                  (np.uint64(5), np.uint64(2**63), 2**64 - 1), range(5, 6)):
        got = generate_batch(2, 3, "rademacher", seeds)
        assert np.array_equal(got, want[:len(got)])
    assert np.array_equal(generate_batch(2, 3, "rademacher", np.array([5], dtype=np.int8)),
                          want[:1])
    assert generate_batch(2, 3, "gaussian", []).shape == (0, 2, 3)
    for seed in (np.int64(5), np.uint32(5), np.uint64(5)):
        inst = generate(2, 3, "rademacher", seed)
        assert np.array_equal(inst.entries, want[0]) and inst.seed == 5


def test_resample_prefix_identity_exact():
    base = generate(4, 10, "gaussian", 7)
    members = resample_suffix(base, 3, 4, [100, 101, 102])
    assert members[0] is base
    for a in members:
        for b in members:
            assert np.array_equal(a.entries[:, :7], b.entries[:, :7])
    # resampled columns differ from the base (a.s. for gaussian)
    for mem in members[1:]:
        assert not np.array_equal(mem.entries[:, 7:], base.entries[:, 7:])


def test_resample_full_width_all_fresh():
    base = generate(3, 6, "gaussian", 8)
    members = resample_suffix(base, 6, 2, [500])
    assert not np.any(members[1].entries == base.entries)


def test_resample_k1_agrees_elsewhere():
    base = generate(2, 9, "rademacher", 3)
    members = resample_suffix(base, 1, 2, [44])
    assert np.array_equal(members[1].entries[:, :8], base.entries[:, :8])


def test_resampled_entries_independent_of_base():
    # paired (base, member) entries in the resampled block across 10^4
    # members: empirical correlation within 3 SE of 0
    n, k = 8, 4
    base = generate(1, n, "gaussian", 60)
    members = resample_suffix(base, k, 10_001, list(range(10_000)))
    xs = np.tile(base.entries[0, n - k:], 10_000)
    ys = np.concatenate([mem.entries[0, n - k:] for mem in members[1:]])
    corr = float(np.mean(xs * ys))       # both marginals are N(0,1)
    se = float(np.std(xs * ys)) / math.sqrt(len(ys))
    assert abs(corr) <= 3 * se


def test_resample_errors():
    base = generate(2, 5, "gaussian", 1)
    with pytest.raises(ParameterError):
        resample_suffix(base, 6, 2, [1])
    with pytest.raises(ParameterError):
        resample_suffix(base, 0, 2, [1])
    with pytest.raises(ParameterError):
        resample_suffix(base, 2, 1, [])
    with pytest.raises(ParameterError):
        resample_suffix(base, 2, 3, [1])


def test_interpolate_endpoints():
    base = generate(3, 4, "gaussian", 10)
    fresh = generate(3, 4, "gaussian", 11)
    assert np.array_equal(interpolate(base, fresh, 0.0).entries, base.entries)
    assert np.array_equal(interpolate(base, fresh, math.pi / 2).entries, fresh.entries)


def test_interpolate_preserves_variance():
    base = generate(1000, 1000, "gaussian", 21)
    fresh = generate(1000, 1000, "gaussian", 22)
    mixed = interpolate(base, fresh, math.pi / 4)
    var = float(mixed.entries.var())
    se = math.sqrt(2.0 / mixed.entries.size)
    assert abs(var - 1.0) <= 3 * se


def test_interpolation_pair_correlation():
    # two members at angles tau_i, tau_j off one base: entrywise product
    # mean matches cos(tau_i) cos(tau_j)
    base = generate(1000, 1000, "gaussian", 31)
    f1 = generate(1000, 1000, "gaussian", 32)
    f2 = generate(1000, 1000, "gaussian", 33)
    t1, t2 = 0.4, 1.1
    m1 = interpolate(base, f1, t1)
    m2 = interpolate(base, f2, t2)
    prod = m1.entries * m2.entries
    mean = float(prod.mean())
    se = float(prod.std()) / math.sqrt(prod.size)
    assert abs(mean - math.cos(t1) * math.cos(t2)) <= 3 * se


def test_interpolate_errors():
    base = generate(2, 3, "gaussian", 1)
    fresh = generate(2, 3, "gaussian", 2)
    with pytest.raises(ParameterError):
        interpolate(base, fresh, 2.0)
    with pytest.raises(ParameterError):
        interpolate(base, generate(2, 4, "gaussian", 2), 0.3)
    with pytest.raises(UnsupportedDisorderError):
        interpolate(generate(2, 3, "rademacher", 1), fresh, 0.3)


@pytest.mark.parametrize("disorder, p, rows, match", [
    ("rademacher", None, [[0.5, 1, 1]], r"whole numbers, got 0.5 at \(0, 0\)"),
    ("bernoulli", 0.5, [[1, 0], [0, 0.25]], r"whole numbers, got 0.25 at \(1, 1\)"),
    ("rademacher", None, [[1, np.inf]], "whole numbers, got inf"),
    ("gaussian", None, [[0.5, np.nan, -1.0]], r"finite numbers, got nan at \(0, 1\)"),
    ("gaussian", None, [[0.5], [-np.inf]], "finite numbers, got -inf"),
    ("gaussian", None, np.ones((1, 2), dtype=complex), "real numbers"),
    ("rademacher", None, np.array([["1", "-1"]]), "real numbers"),
    ("foo", None, [[1.0]], "unknown disorder 'foo'"),
    ("bernoulli", None, [[1, 0]], "needs p"),
    ("rademacher", 0.5, [[1, -1]], "only meaningful for bernoulli")])
def test_instance_values_and_disorder_are_checked_at_construction(disorder, p, rows, match):
    # each used to construct: a fractional rademacher instance was truncated
    # to int64, so exact_discrepancy of [[0.5, 1, 1]] reported 0 for 0.5, and
    # a NaN gaussian instance gave an exact minimum of nan
    arr = np.asarray(rows)
    with pytest.raises(ParameterError, match=match):
        Instance(arr.shape[0], arr.shape[1], disorder, None, rows, p)


def test_instance_holds_its_entries_in_one_working_dtype():
    inst = Instance(1, 3, "rademacher", 0, [[1.0, -1.0, 3.0]])
    assert inst.entries.dtype == np.int64 and inst.entries.tolist() == [[1, -1, 3]]
    inst = Instance(1, 3, "bernoulli", 0, np.array([[True, False, True]]), 0.5)
    assert inst.entries.dtype == np.int64
    inst = Instance(2, 1, "gaussian", None, np.array([[1], [2]], dtype=np.int32))
    assert inst.entries.dtype == np.float64


def test_instance_entries_are_read_only_and_its_own():
    # a later write to the caller's array used to change the instance
    arr = np.ones((2, 3))
    inst = Instance(2, 3, "gaussian", None, arr)
    arr[0, 0] = 5.0
    assert inst.entries[0, 0] == 1.0 and not inst.entries.flags.writeable
    view = np.ones((2, 6))[:, ::2]
    inst = Instance(2, 3, "gaussian", None, view)
    view[1, 1] = 7.0
    assert inst.entries[1, 1] == 1.0
    frozen = generate(2, 3, "gaussian", 1).entries
    assert Instance(2, 3, "gaussian", None, frozen).entries is frozen
    with pytest.raises(ValueError):
        inst.entries[0, 0] = 2.0


def test_load_instance_reports_a_refused_instance_with_its_path(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_bytes(b'{"rows": 1, "cols": 2, "disorder": "gaussian", "seed": 1, '
                     b'"body": "csv"}\n0.5,nan\n')
    with pytest.raises(InstanceFormatError, match=r"inst.txt: entries must be finite "
                                                  r"numbers, got nan at \(0, 1\)"):
        load_instance(path)


def test_instance_file_roundtrip_csv(tmp_path):
    for kind, p in (("gaussian", None), ("rademacher", None), ("bernoulli", 0.25)):
        inst = generate(3, 5, kind, 77, p=p)
        path = tmp_path / f"{kind}.txt"
        save_instance(inst, path, body="csv")
        back = load_instance(path)
        assert np.array_equal(back.entries, inst.entries)
        assert back.entries.dtype == inst.entries.dtype
        assert (back.rows, back.cols, back.disorder, back.seed, back.p) == \
               (inst.rows, inst.cols, inst.disorder, inst.seed, inst.p)


def test_instance_file_holds_only_its_family_values(tmp_path):
    path = tmp_path / "inst.txt"
    for disorder, p, bad in (("rademacher", None, 5), ("rademacher", None, 0),
                             ("bernoulli", 0.5, -1), ("bernoulli", 0.5, 2)):
        for body in ("csv", "raw"):
            inst = generate(2, 4, disorder, 9, p)
            entries = np.array(inst.entries)
            entries[1, 2] = bad
            save_instance(Instance(2, 4, disorder, 9, entries, p), path, body=body)
            with pytest.raises(InstanceFormatError, match=r"entry \(1, 2\) is"):
                load_instance(path)


def test_instance_file_roundtrip_raw(tmp_path):
    inst = generate(4, 6, "gaussian", 123)
    path = tmp_path / "g.bin"
    with pytest.raises(ParameterError, match="body format must be 'csv' or 'raw'"):
        save_instance(inst, path, body="xml")
    save_instance(inst, path, body="raw")
    back = load_instance(path)
    assert back.entries.tobytes() == inst.entries.tobytes()
