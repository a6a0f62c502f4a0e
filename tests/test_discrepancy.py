import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disclab import (CapacityError, Instance, ParameterError,
                     UnsupportedDisorderError, disc_value, enumerate_below,
                     enumerate_solutions, exact_discrepancy, generate, parse_sign_string,
                     sbp_membership, search_xi_sbp, sign_string)
from disclab import discrepancy
from disclab.discrepancy import (_GrayScan, _suffix_table, aligned_empty,
                                 codes_from_signs, scan_precision, signs_from_codes)
from oracles import (gray_first_minimizer, gray_suffix_table, gray_walk_solutions,
                     lex_suffix_table, naive_disc_value, naive_exact_value, naive_solution_set)

# block budgets in bytes (None: the default _BLOCK_BYTES); a small budget cuts
# the walk into many blocks of both parities, and 1 byte gives blocks of one
# candidate (q = 0)
BLOCK_BUDGETS = [1, 16, 64, 512, None]


def _set_budget(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(discrepancy, "_BLOCK_BYTES", budget)


def _inst(rows, disorder="rademacher"):
    arr = np.asarray(rows, dtype=np.int64 if disorder != "gaussian" else np.float64)
    return Instance(arr.shape[0], arr.shape[1], disorder, 0, arr)


def test_disc_value_hand_example():
    res = disc_value(_inst([[1, 1], [1, -1]]), [1, 1])
    assert res.value == 2
    assert tuple(res.row_sums) == (2, 0)
    assert isinstance(res.value, int)


def test_disc_value_flip_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        inst = generate(3, 9, "gaussian", int(rng.integers(2**62)))
        sigma = rng.choice([-1, 1], size=9)
        assert disc_value(inst, sigma).value == disc_value(inst, -sigma).value


def test_disc_value_naive_oracle():
    inst = generate(8, 12, "rademacher", 314)
    rng = np.random.default_rng(5)
    for _ in range(25):
        sigma = rng.choice([-1, 1], size=12)
        assert disc_value(inst, sigma).value == naive_disc_value(inst.entries, sigma)


def test_disc_value_dimension_error():
    with pytest.raises(ParameterError):
        disc_value(generate(2, 5, "gaussian", 1), [1, 1, 1])
    with pytest.raises(ParameterError):
        disc_value(generate(2, 3, "gaussian", 1), [1, 0, 1])


def test_exact_trivial_rows():
    assert exact_discrepancy(_inst([[1, 1]])).value == 0
    res = exact_discrepancy(_inst([[1, 1], [1, 1]]))
    assert res.value == 0
    assert tuple(res.argmin) == (1, -1)


def test_exact_matches_naive_all_disorders():
    rng = np.random.default_rng(6)
    for trial in range(24):
        n = int(rng.integers(1, 15))
        m = int(rng.integers(1, 6))
        kind = ("gaussian", "rademacher", "bernoulli")[trial % 3]
        inst = generate(m, n, kind, int(rng.integers(2**62)),
                        p=0.3 if kind == "bernoulli" else None)
        got = exact_discrepancy(inst)
        want = naive_exact_value(inst.entries)
        if kind == "gaussian":
            assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want))
            chk = disc_value(inst, got.argmin)
            assert abs(chk.value - got.value) <= 1e-12 * max(1.0, got.value)
        else:
            assert got.value == want
            assert disc_value(inst, got.argmin).value == got.value


def test_exact_multi_block_path(monkeypatch):
    # below the default budget the high-bit incremental updates and the
    # downward walk of odd blocks' table columns are exercised
    inst = generate(3, 16, "rademacher", 99)
    want = naive_exact_value(inst.entries), gray_first_minimizer(inst.entries)
    for budget in BLOCK_BUDGETS:
        with monkeypatch.context() as mp:
            _set_budget(mp, budget)
            assert (_GrayScan(inst.entries).n_blocks > 1) == (budget is not None)
            res = exact_discrepancy(inst)
        assert res.value == want[0]
        assert np.array_equal(res.argmin, want[1])


@pytest.mark.parametrize("kind,rows,cols", [
    ("rademacher", 5, 10), ("rademacher", 4, 13), ("rademacher", 6, 15),
    ("rademacher", 3, 17), ("bernoulli", 4, 12), ("bernoulli", 3, 13),
    ("bernoulli", 4, 16)])
def test_exact_argmin_first_in_walk_order(kind, rows, cols, monkeypatch):
    # the default budget scans these in one block, the smaller ones in many
    for seed in range(4):
        inst = generate(rows, cols, kind, seed, p=0.5 if kind == "bernoulli" else None)
        want = gray_first_minimizer(inst.entries)
        for budget in BLOCK_BUDGETS:
            with monkeypatch.context() as mp:
                _set_budget(mp, budget)
                assert np.array_equal(exact_discrepancy(inst).argmin, want)


@pytest.mark.parametrize("budget", BLOCK_BUDGETS[:-1])
@pytest.mark.parametrize("disorder", ["rademacher", "bernoulli", "gaussian"])
def test_every_block_size_gives_the_same_answers(disorder, budget, monkeypatch):
    for n in range(1, 16):
        inst = generate(1 + n % 4, n, disorder, 100 + n,
                        p=0.5 if disorder == "bernoulli" else None)
        threshold = disc_value(inst, signs_from_codes([(1 << n) // 3], n, "lex")[0]).value
        assert _GrayScan(inst.entries).n_blocks == 1
        want = enumerate_below(inst, threshold)
        with monkeypatch.context() as mp:
            mp.setattr(discrepancy, "_BLOCK_BYTES", budget)
            res = exact_discrepancy(inst)
            got = enumerate_below(inst, threshold)
        assert np.array_equal(res.argmin, gray_first_minimizer(inst.entries))
        assert res.value == disc_value(inst, res.argmin).value
        assert np.array_equal(got, want)


def _tied_instance(disorder, rows, cols, seed):
    # "gaussian" disorder with whole float entries in -2..2: the float scan
    # meets exact ties, decided on direct products.  Column 2 is zero on even
    # seeds, so candidates tie in pairs (table columns 2k and 2k+1) that an
    # odd block walks in the reverse of table order.
    if disorder != "gaussian":
        return generate(rows, cols, disorder, seed, p=0.5 if disorder == "bernoulli" else None)
    entries = np.random.default_rng(seed).integers(-2, 3, (rows, cols)).astype(np.float64)
    if seed % 2 == 0:
        entries[:, 1] = 0
    return Instance(rows, cols, "gaussian", seed, entries)


@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
@pytest.mark.parametrize("disorder", ["rademacher", "bernoulli", "gaussian"])
def test_scans_hand_out_candidates_in_walk_order(disorder, budget, monkeypatch):
    # odd blocks walk their table columns downward; reading an odd block's
    # candidates in table order reorders solutions and breaks ties wrongly
    _set_budget(monkeypatch, budget)
    for seed in range(8):
        n = 10 + seed % 5
        inst = _tied_instance(disorder, 2 + seed % 3, n, seed)
        res = exact_discrepancy(inst)
        assert np.array_equal(res.argmin, gray_first_minimizer(inst.entries))
        codes = np.random.default_rng(seed).integers(0, 1 << n, 2)
        for sigma in [res.argmin, *signs_from_codes(codes, n, "lex")]:
            threshold = disc_value(inst, sigma).value
            assert np.array_equal(enumerate_below(inst, threshold),
                                  gray_walk_solutions(inst.entries, threshold))


@pytest.mark.parametrize("order", ["gray", "lex"])
@pytest.mark.parametrize("disorder", ["rademacher", "bernoulli", "gaussian"])
def test_suffix_table_matches_its_definition(disorder, order, monkeypatch):
    inst = generate(5, 12, disorder, 7, p=0.5 if disorder == "bernoulli" else None)
    entries = inst.entries
    s = float(np.abs(entries).sum(axis=1).max())
    dtype = scan_precision(entries, 0)[0]
    for q in range(12):
        # gray: the exact scan's table over columns 2..q+1; lex: a table over
        # the last q columns, as the shared-prefix searches build them
        cols = entries[:, 1:1 + q] if order == "gray" else entries[:, 12 - q:]
        table = _suffix_table(cols, dtype, order)
        if order == "gray":
            monkeypatch.setattr(discrepancy, "_BLOCK_BYTES", 5 * dtype.itemsize << q)
            scan = _GrayScan(entries)
            assert scan.q == q and scan.dtype == dtype
            assert np.array_equal(scan.table, table)
            want = gray_suffix_table(entries, q)
        else:
            want = lex_suffix_table(cols)
        assert table.shape == (5, 1 << q) and table.dtype == dtype
        if disorder == "gaussian":
            # summed in float64, each entry -2 times a sequential sum of at
            # most q terms (error <= 2 (q - 1) (eps / 2) S), then cast once
            wide = _suffix_table(cols, np.dtype(np.float64), order)
            assert np.all(np.abs(wide - want) <= max(q - 1, 0) * np.finfo(np.float64).eps * s)
            assert np.array_equal(table, wide.astype(dtype))
        else:
            assert np.array_equal(table, want)


def test_exact_reports_direct_product_gaussian():
    for seed in range(10):
        inst = generate(8, 18, "gaussian", seed)
        res = exact_discrepancy(inst)
        direct = disc_value(inst, res.argmin)
        assert res.value == direct.value
        assert np.array_equal(res.row_sums, direct.row_sums)


def test_enumerate_threshold_decided_on_direct_product():
    # a threshold equal to a vector's direct-product norm admits that vector
    for seed in range(10):
        inst = generate(8, 18, "gaussian", seed)
        best = disc_value(inst, exact_discrepancy(inst).argmin)
        sols = enumerate_below(inst, best.value)
        got = {tuple(int(v) for v in row) for row in sols}
        assert tuple(int(v) for v in best.argmin) in got
        assert tuple(-int(v) for v in best.argmin) in got
        assert all(disc_value(inst, row).value <= best.value for row in sols)


def test_exact_deterministic_argmin():
    inst = generate(4, 12, "gaussian", 1234)
    a = exact_discrepancy(inst)
    b = exact_discrepancy(inst)
    assert np.array_equal(a.argmin, b.argmin) and a.value == b.value


def test_exact_minimality_random_vectors():
    inst = generate(5, 13, "gaussian", 77)
    best = exact_discrepancy(inst).value
    rng = np.random.default_rng(8)
    sigmas = rng.choice([-1, 1], size=(1000, 13))
    vals = np.abs(sigmas @ inst.entries.T).max(axis=1)
    assert best <= float(vals.min()) + 1e-12


def test_exact_capacity_error():
    with pytest.raises(CapacityError):
        exact_discrepancy(generate(2, 31, "rademacher", 1))
    with pytest.raises(CapacityError):
        exact_discrepancy(generate(2, 12, "rademacher", 1), max_n=10)


def test_sbp_membership_examples():
    one_row = Instance(1, 2, "gaussian", 0, np.array([[3.0, 0.0]]))
    for sigma in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        assert not sbp_membership(one_row, sigma, 1.0)
    small = Instance(1, 2, "gaussian", 0, np.array([[0.1, 0.1]]))
    for sigma in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        assert sbp_membership(small, sigma, 1.0)
    inst = generate(3, 6, "gaussian", 5)
    huge = float(np.abs(inst.entries).sum())
    assert sbp_membership(inst, [1] * 6, huge)


def test_sbp_membership_inclusive_boundary():
    inst = Instance(1, 4, "gaussian", 0, np.array([[1.0, 0.0, 0.0, 0.0]]))
    # value 1 equals kappa*sqrt(n) with kappa = 0.5: inclusive comparison
    assert sbp_membership(inst, [1, 1, 1, 1], 0.5)


def test_sbp_membership_errors():
    with pytest.raises(UnsupportedDisorderError):
        sbp_membership(generate(2, 4, "rademacher", 1), [1, 1, 1, 1], 1.0)
    with pytest.raises(ParameterError):
        sbp_membership(generate(2, 4, "gaussian", 1), [1, 1, 1, 1], 0.0)


def test_enumerate_solutions_extremes():
    inst = generate(3, 8, "gaussian", 44)
    assert enumerate_solutions(inst, 1e-12).shape[0] == 0
    huge = float(np.abs(inst.entries).sum()) / math.sqrt(8) + 1.0
    assert enumerate_solutions(inst, huge).shape[0] == 2 ** 8


@pytest.mark.parametrize("kappa", [math.inf, math.nan, 0.0, -1.0])
def test_a_kappa_outside_zero_to_infinity_is_refused(kappa):
    # an infinite kappa used to count all 2^n vectors
    inst = generate(2, 8, "gaussian", 1)
    with pytest.raises(ParameterError, match="kappa must be positive and finite"):
        enumerate_solutions(inst, kappa)
    with pytest.raises(ParameterError, match="kappa must be positive and finite"):
        sbp_membership(inst, np.ones(8, dtype=np.int8), kappa)


def test_enumerate_below_takes_any_threshold():
    inst = generate(2, 8, "gaussian", 1)
    assert enumerate_below(inst, math.inf).shape == (2 ** 8, 8)
    assert enumerate_below(inst, -1.0).shape == (0, 8)


def test_enumerate_matches_naive_count_and_set():
    inst = generate(3, 12, "gaussian", 2024)
    sols = enumerate_solutions(inst, 1.0)
    want = naive_solution_set(inst.entries, math.sqrt(12))
    got = {tuple(int(v) for v in row) for row in sols}
    assert got == want
    assert sols.shape[0] == len(want)          # closed under flip, no dupes


def test_enumerate_flip_closure():
    inst = generate(4, 10, "gaussian", 3)
    sols = enumerate_solutions(inst, 1.2)
    got = {tuple(int(v) for v in row) for row in sols}
    assert all(tuple(-v for v in s) in got for s in got)


def test_enumerate_below_integer_threshold_exact():
    inst = generate(4, 11, "rademacher", 17)
    sols = enumerate_below(inst, 1)
    want = naive_solution_set(inst.entries, 1)
    assert {tuple(int(v) for v in r) for r in sols} == want


def test_enumerate_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_solutions(generate(2, 27, "rademacher", 1), 1.0)


def test_sign_string_roundtrip():
    sigma = np.array([1, -1, -1, 1], dtype=np.int8)
    assert sign_string(sigma) == "+--+"
    assert np.array_equal(parse_sign_string("+--+"), sigma)
    with pytest.raises(ParameterError):
        parse_sign_string("+x-")
    with pytest.raises(ParameterError):
        parse_sign_string("")


@pytest.mark.parametrize("n", [0, 1, 2, 1024])
def test_sign_string_equals_the_per_coordinate_definition(n):
    rng = np.random.default_rng(n)
    vectors = [rng.choice(np.array([-1, 1], dtype=np.int8), n), rng.standard_normal(n),
               rng.integers(-2, 3, n), rng.choice([0.0, -0.0, np.nan, 1e-300, -1.0], n)]
    for sigma in vectors + [list(vectors[0])]:
        assert sign_string(sigma) == "".join("+" if s > 0 else "-" for s in sigma)


def _signs_by_bits(code, n, order):
    # the sign-code convention one coordinate at a time (see _code_layout)
    if order == "gray":
        return [1] + [-1 if (code >> b) & 1 else 1 for b in range(n - 1)]
    return [-1 if (code >> (n - j)) & 1 else 1 for j in range(1, n + 1)]


@pytest.mark.parametrize("order", ["gray", "lex"])
def test_signs_from_codes_equal_the_per_bit_definition(order):
    rng = np.random.default_rng(17)
    for n in range(1, 65):
        bits = n - 1 if order == "gray" else n
        codes = rng.integers(0, 2**64 - 1, 12, dtype=np.uint64, endpoint=True)
        codes &= np.uint64((1 << bits) - 1)
        want = [_signs_by_bits(int(c), n, order) for c in codes]
        got = signs_from_codes(codes, n, order)
        assert got.dtype == np.int8 and got.tolist() == want, n
        assert codes_from_signs(got, order).tolist() == codes.tolist(), n
    assert signs_from_codes(np.empty(0, dtype=np.uint64), 5, order).shape == (0, 5)


@pytest.mark.parametrize("order, n", [("gray", 22), ("lex", 21)])
def test_signs_from_codes_holds_the_output_plus_o_count(order, n):
    # it once built two (count, n) uint64 temporaries: a 706 KB peak for this
    # 67 KB output
    codes = np.random.default_rng(3).integers(0, 1 << 21, 3104).astype(np.uint64)
    tracemalloc.start()
    try:
        out = signs_from_codes(codes, n, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 16 * codes.shape[0] + 4096


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sign_code_roundtrip_lex(data):
    n = data.draw(st.integers(1, 40))
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))
    signs = signs_from_codes(codes, n, "lex")
    assert signs.dtype == np.int8 and signs.shape == (len(codes), n)
    assert codes_from_signs(signs, "lex").tolist() == codes
    assert np.array_equal(signs_from_codes(codes_from_signs(signs, "lex"), n, "lex"), signs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sign_code_roundtrip_gray(data):
    n = data.draw(st.integers(1, 40))
    codes = data.draw(st.lists(st.integers(0, (1 << (n - 1)) - 1), min_size=1, max_size=16))
    signs = signs_from_codes(codes, n, "gray")
    assert signs.shape == (len(codes), n) and np.all(signs[:, 0] == 1)
    assert codes_from_signs(signs, "gray").tolist() == codes
    assert np.array_equal(signs_from_codes(codes_from_signs(signs, "gray"), n, "gray"), signs)


def test_sign_code_conventions():
    # lex: coordinate 1 is the most significant bit; gray: bit b is column b+2
    assert sign_string(signs_from_codes([0b0110], 4, "lex")[0]) == "+--+"
    assert sign_string(signs_from_codes([0b0110], 4, "gray")[0]) == "++--"
    lex = signs_from_codes(np.arange(8), 3, "lex")
    assert [sign_string(s) for s in lex] == sorted(sign_string(s) for s in lex)
    with pytest.raises(ParameterError):
        signs_from_codes([0], 3, "colex")


@pytest.mark.parametrize("shape, dtype", [((8, 4096), np.float64), ((3, 5, 7), np.int64),
                                          (4096, np.float64), ((1,), np.int64)])
def test_aligned_empty_starts_on_a_cache_line(shape, dtype):
    for _ in range(8):                 # several heap states
        a = aligned_empty(shape, dtype)
        assert a.ctypes.data % 64 == 0
        assert a.shape == np.empty(shape).shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable


# -- scan dtypes and re-decision on the direct product --------------------------

@pytest.mark.parametrize("scale, dtype", [(1, np.int8), (100, np.int16), (10 ** 5, np.int32),
                                          (10 ** 9, np.int64)])
def test_exact_matches_naive_in_every_integer_scan_dtype(scale, dtype):
    # integer entries beyond +-1 come only from the API: a rademacher file
    # must hold +-1
    rng = np.random.default_rng(scale)
    for trial in range(3):
        entries = rng.integers(-scale, scale + 1, size=(5, 15), dtype=np.int64)
        inst = Instance(5, 15, "rademacher", trial, entries)
        assert scan_precision(inst.entries, 4)[0] == dtype
        res = exact_discrepancy(inst)
        assert res.value == naive_exact_value(inst.entries)
        assert np.array_equal(res.argmin, gray_first_minimizer(inst.entries))
        assert res.row_sums.dtype == np.int64
        assert {tuple(r) for r in enumerate_below(inst, res.value).tolist()} == \
            naive_solution_set(inst.entries, res.value)


def test_exact_matches_naive_in_the_float32_scan():
    for seed in range(4):
        inst = generate(5, 15, "gaussian", seed)
        assert scan_precision(inst.entries, 4)[0] == np.float32
        res = exact_discrepancy(inst)
        assert abs(res.value - naive_exact_value(inst.entries)) <= 1e-12
        assert np.array_equal(res.argmin, gray_first_minimizer(inst.entries))
        assert res.value == disc_value(inst, res.argmin).value


def test_scan_precision_dtypes_and_slack():
    entries = generate(4, 20, "gaussian", 1).entries
    s = float(np.abs(entries).sum(axis=1).max())
    dtype, slack = scan_precision(entries, 256)
    assert dtype == np.float32 and slack >= np.finfo(np.float32).eps * s
    assert scan_precision(np.zeros((2, 5)), 1)[1] > 0
    assert scan_precision(np.full((2, 5), 1e38), 1)[0] == np.float64
    assert scan_precision(np.ones((2, 42), dtype=np.int64), 4) == (np.int8, 0)
    assert scan_precision(np.ones((2, 43), dtype=np.int64), 4) == (np.int16, 0)


_TIE = 2.0 ** -30        # 0.5 +- _TIE are distinct in float64, one value in float32


def _near_tie(y, z):
    # among the four vectors with sigma(1) = +1, row 2 leaves two whose
    # norms are 0.5 + (y - z) and 0.5 - (y - z)
    assert np.float32(0.5 + _TIE) == np.float32(0.5 - _TIE)
    return _inst([[0.5, y, z], [0.0, 1.0, 1.0]], "gaussian")


def test_exact_near_tie_decided_on_the_direct_product():
    # the walk visits (+,-,+) at 0.5 + _TIE before (+,+,-) at 0.5 - _TIE
    inst = _near_tie(0.25, 0.25 + _TIE)
    assert disc_value(inst, [1, -1, 1]).value == 0.5 + _TIE
    res = exact_discrepancy(inst)
    assert res.argmin.tolist() == [1, 1, -1]
    assert res.value == 0.5 - _TIE


def test_enumerate_near_tie_decided_on_the_direct_product():
    inst = _near_tie(0.25, 0.25 + _TIE)
    got = {tuple(r) for r in enumerate_below(inst, 0.5 - _TIE).tolist()}
    assert got == {(1, 1, -1), (-1, -1, 1)}
    got = {tuple(r) for r in enumerate_below(inst, 0.5).tolist()}
    assert got == {(1, 1, -1), (-1, -1, 1)}
    assert len(enumerate_below(inst, 0.5 + _TIE)) == 4


def test_xi_sbp_near_tie_decided_on_the_direct_product():
    # lexicographically (+,+,-) at 0.5 + _TIE comes before (+,-,+) at 0.5 - _TIE
    inst = _near_tie(0.25 + _TIE, 0.25)
    cert = search_xi_sbp([inst, inst], 2, 0.5 / math.sqrt(3))
    assert cert.members.tolist() == [[1, -1, 1], [1, -1, 1]]
    assert np.all(cert.disc_values <= cert.threshold)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enumerate_below_admits_a_vector_at_its_own_value(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 16))
    disorder = data.draw(st.sampled_from(["gaussian", "rademacher"]))
    inst = generate(rows, cols, disorder, data.draw(st.integers(0, 2 ** 32 - 1)))
    sigma = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=cols, max_size=cols))
    got = {tuple(r) for r in enumerate_below(inst, disc_value(inst, sigma).value).tolist()}
    assert tuple(sigma) in got and tuple(-s for s in sigma) in got


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enumeration_is_closed_under_flip(data):
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 12))
    disorder = data.draw(st.sampled_from(["gaussian", "rademacher", "bernoulli"]))
    p = 0.4 if disorder == "bernoulli" else None
    inst = generate(rows, cols, disorder, data.draw(st.integers(0, 2 ** 64 - 1)), p)
    if disorder == "gaussian":
        kappa = data.draw(st.floats(0.05, 3.0))
        sols = enumerate_solutions(inst, kappa)
        threshold = kappa * math.sqrt(cols)
    else:
        threshold = data.draw(st.integers(0, cols))
        sols = enumerate_below(inst, threshold)
    got = {tuple(r) for r in sols.tolist()}
    assert len(got) == sols.shape[0]                       # no duplicates
    assert all(tuple(-s for s in sigma) in got for sigma in got)
    half = sols.shape[0] // 2                              # the stated order
    assert np.array_equal(sols[half:], -sols[:half]) and np.all(sols[:half, 0] == 1)
    assert got == naive_solution_set(inst.entries, threshold)


def _kappa_at(value, n):
    """A kappa > 0 with kappa * sqrt(n) == value in float64, or None."""
    k = value / math.sqrt(n)
    for cand in (k, math.nextafter(k, 0.0), math.nextafter(k, math.inf)):
        if cand > 0 and cand * math.sqrt(n) == value:
            return cand
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_vector_at_kappa_sqrt_n_is_a_member(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 14))
    inst = generate(rows, cols, "gaussian", data.draw(st.integers(0, 2 ** 64 - 1)))
    sigma = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=cols, max_size=cols))
    kappa = _kappa_at(disc_value(inst, sigma).value, cols)
    assume(kappa is not None)
    assert sbp_membership(inst, sigma, kappa)
    assert tuple(sigma) in {tuple(r) for r in enumerate_solutions(inst, kappa).tolist()}
    assert not sbp_membership(inst, sigma, math.nextafter(kappa, 0.0) * (1 - 1e-12))


def test_disc_value_refuses_row_sums_beyond_int64():
    # all-plus row sum 12000000000000000001 used to wrap to 6446744073709551615;
    # the instance is refused when it is built
    with pytest.raises(ParameterError, match="int64"):
        inst = _inst([[3 * 10**18] * 4 + [1]])
        disc_value(inst, [1] * 5)


def test_int64_row_sum_limits_are_exact():
    # S = 2^63 - 1 fits (its float64 sum rounds to 2^63); the scan needs 3 S
    inst = _inst([[2**62, 2**62 - 1]])
    assert disc_value(inst, [1, 1]).value == 2**63 - 1
    with pytest.raises(ParameterError, match="3 S"):
        exact_discrepancy(inst)
    assert exact_discrepancy(_inst([[10**18, 10**18 + 1, 1]])).value == 0
