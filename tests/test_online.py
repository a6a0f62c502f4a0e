import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (ALGORITHMS, ContractViolationError, GreedyOnline, Instance,
                     ParameterError, PotentialOnline, RandomSigningOnline,
                     generate, generate_batch, make_algorithm, philox, random_signing,
                     resample_suffix, run_greedy_batch, run_online, run_online_batch)
from disclab import online
from disclab.landscape import stability_probe
from disclab.online import _block_width
from oracles import online_signs, potential_sign, random_signs


class BlockReturns:
    """A block signer returning ``make(t0, k, b)`` for the block at t0."""

    name = "block-returns"

    def __init__(self, make):
        self.make = make

    def start(self, rows, omegas=(0,)):
        return len(omegas)

    def sign_block(self, scratch, t0, columns):
        return self.make(t0, len(columns), scratch)


def returns_at(value, bad_step, bad_row=0):
    """A block signer returning +1 except ``value`` at step ``bad_step`` in
    batch row ``bad_row``."""
    def make(t0, k, b):
        out = np.ones((k, b))
        if t0 <= bad_step < t0 + k:
            out[bad_step - t0, bad_row] = value
        return out
    return BlockReturns(make)


def score_signs(alg, scratch, partial, column):
    """The harness's rule on one column: +1 where the score of partial +
    column is at most the score of partial - column."""
    scores = alg.score(scratch, np.array((partial + column, partial - column)))
    return np.where(scores[0] <= scores[1], 1, -1)


def test_constant_algorithm_all_ones():
    inst = generate(3, 20, "gaussian", 1)
    res = run_online(BlockReturns(lambda t0, k, b: np.ones((k, b))), inst)
    assert np.all(res.sigma == 1)
    assert np.allclose(res.row_sums, inst.entries.sum(axis=1))


def test_greedy_hand_trace():
    inst = Instance(1, 3, "rademacher", 0, np.array([[1, 1, 1]], dtype=np.int64))
    res = run_online(GreedyOnline(), inst)
    assert tuple(res.sigma) == (1, -1, 1)
    assert res.value == 1


def test_greedy_step_rules():
    g = GreedyOnline()
    assert score_signs(g, None, np.zeros(2), np.array([1.0, 0.0])) == 1      # tie -> +1
    assert score_signs(g, None, np.array([5.0, 0.0]), np.array([1.0, 0.0])) == -1


def test_greedy_decides_integer_instances_on_exact_int64_norms():
    # 2^54 + 1 and 2^54 - 1 round to one float64: a float score would call
    # the second column a tie and sign it +1
    inst = Instance(1, 2, "rademacher", 0, np.array([[2**54, 1]], dtype=np.int64))
    assert tuple(run_online(GreedyOnline(), inst).sigma) == (1, -1)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_integer_batches_whose_row_sums_leave_int64_are_refused(dtype):
    # the batch path used to cast to int64 with no guard, and greedy reported
    # the wrapped row sum -446744073709551616 for a row whose l1 norm is 1.8e19
    entries = np.array([[[9 * 10**18, 9 * 10**18], [0, 2 * 10**18]]], dtype=dtype)
    with pytest.raises(ParameterError, match="may leave int64"):
        run_greedy_batch(entries)
    with pytest.raises(ParameterError, match="may leave int64"):
        run_online_batch(RandomSigningOnline(), entries, (0,))
    signs, sums = run_greedy_batch(entries // 2)             # l1 norm 9e18 fits
    assert sums.dtype == np.int64
    assert np.array_equal(sums[0], entries[0].astype(object) // 2 @ signs[0].astype(object))


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_a_non_finite_batch_is_refused_naming_the_entries(alg):
    # greedy used to blame its own scores ("overflow float64") and random
    # returned NaN row sums with no error
    entries = np.ones((2, 3, 4))
    entries[1, 2, 0] = np.nan
    with pytest.raises(ParameterError, match=r"entries must be finite numbers, got nan "
                                             r"at \(1, 2, 0\)"):
        run_online_batch(make_algorithm(alg), entries, (0, 1))


@pytest.mark.parametrize("alg", ALGORITHMS)
@pytest.mark.parametrize("disorder", ["gaussian", "rademacher"])
def test_run_online_does_not_recheck_an_instances_entries(alg, disorder, monkeypatch):
    # an Instance checked its entries when built; run_online used to hand them
    # to run_online_batch, which checked them again
    inst = generate(3, 40, disorder, 8)
    want = run_online(make_algorithm(alg), inst, omega=2).sigma

    def refuse(*args, **kwargs):
        raise AssertionError("entries checked again")

    monkeypatch.setattr(online, "_working_entries", refuse)
    assert np.array_equal(run_online(make_algorithm(alg), inst, omega=2).sigma, want)
    with pytest.raises(AssertionError, match="checked again"):
        run_online_batch(make_algorithm(alg), inst.entries[None], (2,))


def test_greedy_m1_bounded_walk():
    inst = generate(1, 10_000, "rademacher", 7)
    res = run_online(GreedyOnline(), inst)
    partial = np.cumsum(res.sigma.astype(np.int64) * inst.entries[0])
    assert np.max(np.abs(partial)) <= 1


def test_potential_tie_and_m1_equivalence():
    pot = PotentialOnline(0.9)
    assert score_signs(pot, 0.9, np.zeros(3), np.array([1.0, -2.0, 0.5])) == 1
    for seed in (3, 4, 5):
        inst = generate(1, 400, "gaussian", seed)
        assert np.array_equal(run_online(pot, inst).sigma,
                              run_online(GreedyOnline(), inst).sigma)


def test_potential_batched_decisions_match_single_formula():
    # the (2, B, M) evaluation must decide exactly as two 1-d log-sum-cosh calls
    rng = np.random.default_rng(2024)
    pot = PotentialOnline()
    for m in (1, 2, 5, 16, 33):
        for scale in (0.01, 1.0, 40.0):
            b = 64
            partial = np.round(rng.standard_normal((b, m)) * scale * 8, 1)
            column = np.round(rng.standard_normal((b, m)) * scale, 1)
            column[:4] = 0.0                          # exact ties, both ways
            partial[4:8] = 0.0
            lam = pot.start(m, [0] * b)
            got = score_signs(pot, lam, partial, column)
            want = [potential_sign(lam, partial[i], column[i]) for i in range(b)]
            assert np.array_equal(got, want), (m, scale)


def test_potential_lambda_validation():
    with pytest.raises(ParameterError):
        PotentialOnline(0.0)
    with pytest.raises(ParameterError):
        make_algorithm("potential", -1.0)
    for lam in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="positive and finite"):
            PotentialOnline(lam)
    with pytest.raises(ParameterError):
        make_algorithm("nope")
    for name in ("greedy", "random"):         # only potential reads lambda
        with pytest.raises(ParameterError, match="only the potential"):
            make_algorithm(name, 0.5)


def test_potential_survives_large_lambda():
    inst = generate(4, 200, "gaussian", 9)
    res = run_online(PotentialOnline(200.0), inst)   # cosh would overflow naively
    assert np.isfinite(res.value)


def test_prefix_property_all_algorithms():
    # instances sharing columns 1..t yield identical signs 1..t
    rng = np.random.default_rng(11)
    n, m = 48, 5
    for name in ("greedy", "potential", "random"):
        alg = make_algorithm(name)
        for trial in range(6):
            t = int(rng.integers(1, n))
            base = generate(m, n, "gaussian", int(rng.integers(2**62)))
            other = resample_suffix(base, n - t, 2, [int(rng.integers(2**62))])[1]
            ra = run_online(alg, base, omega=5)
            rb = run_online(alg, other, omega=5)
            assert np.array_equal(ra.sigma[:t], rb.sigma[:t]), (name, t)


def test_online_determinism():
    inst = generate(4, 64, "rademacher", 21)
    for name in ("greedy", "potential", "random"):
        alg = make_algorithm(name)
        a = run_online(alg, inst, omega=3)
        b = run_online(alg, inst, omega=3)
        assert np.array_equal(a.sigma, b.sigma)


def test_contract_violation():
    with pytest.raises(ContractViolationError):
        run_online(BlockReturns(lambda t0, k, b: np.full((k, b), 2)),
                   generate(2, 4, "gaussian", 1))


@pytest.mark.parametrize("value", [1.5, 0, 2, -1.5, float("nan")])
def test_contract_violation_names_step(value):
    with pytest.raises(ContractViolationError, match=r"step 3\b"):
        run_online(returns_at(value, 3), generate(2, 8, "rademacher", 1))


def test_contract_violation_one_row_of_batch():
    entries = generate_batch(3, 10, "gaussian", np.arange(4))
    with pytest.raises(ContractViolationError, match=r"step 6, batch row 2\b"):
        run_online_batch(returns_at(2, 6, bad_row=2), entries, np.arange(4))
    signs, _ = run_online_batch(returns_at(-1, 6, bad_row=2), entries, np.arange(4))
    assert signs[2, 6] == -1 and np.count_nonzero(signs == -1) == 1


def test_contract_violation_wrong_shape():
    # one sign per block column where one per instance is due
    with pytest.raises(ContractViolationError, match=r"step 0\b"):
        run_online_batch(BlockReturns(lambda t0, k, b: np.ones((k, 2))),
                         generate_batch(2, 5, "gaussian", np.arange(3)), np.arange(3))


def test_an_algorithm_with_neither_protocol_is_refused():
    class StepOnly:
        name = "step-only"

        def start(self, rows, omegas=(0,)):
            return None

        def step(self, scratch, partial, column):      # no longer a protocol
            return 1

    with pytest.raises(ContractViolationError,
                       match=r"'step-only' defines neither sign_block .* nor score"):
        run_online(StepOnly(), generate(2, 4, "gaussian", 1))


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 5), m=st.integers(1, 6), n=st.integers(1, 40),
       disorder=st.sampled_from(["gaussian", "rademacher", "bernoulli"]),
       alg=st.sampled_from(ALGORITHMS), seed=st.integers(0, 2**32))
def test_batch_harness_equals_single_runs(b, m, n, disorder, alg, seed):
    p = 0.4 if disorder == "bernoulli" else None
    seeds = [philox.derive_seed(seed, i) for i in range(b)]
    entries = generate_batch(m, n, disorder, seeds, p)        # float64 or int64
    omegas = np.array([philox.derive_seed(seed, i, 1) for i in range(b)], dtype=np.uint64)
    algorithm = make_algorithm(alg)
    signs, sums = run_online_batch(algorithm, entries, omegas)
    assert signs.dtype == np.int8 and signs.shape == (b, n)
    assert sums.dtype == entries.dtype and sums.shape == (b, m)
    for i in range(b):
        inst = Instance(m, n, disorder, seeds[i], entries[i], p)
        assert np.array_equal(run_online(algorithm, inst, omega=int(omegas[i])).sigma,
                              signs[i])
        assert np.array_equal(sums[i], entries[i] @ signs[i].astype(entries.dtype))


@pytest.mark.parametrize("target", ["column", "candidates"])
def test_steps_see_read_only_inputs(target):
    class Writer:
        name = "writer"

        def start(self, rows, omegas=(0,)):
            return None

        def sign_block(self, scratch, t0, columns):
            columns[...] = 0
            return np.ones(columns.shape[:-1])

    class ScoreWriter:
        name = "score-writer"

        def start(self, rows, omegas=(0,)):
            return None

        def score(self, scratch, candidates):
            candidates[...] = 0
            return np.zeros(candidates.shape[:-1])

    entries = np.array(generate_batch(2, 6, "gaussian", np.arange(3)))   # writable
    with pytest.raises(ValueError, match="read-only"):
        run_online_batch(ScoreWriter() if target == "candidates" else Writer(), entries,
                         np.arange(3))


def test_block_signer_sees_read_only_columns_on_every_call(monkeypatch):
    monkeypatch.setattr(online, "_BLOCK_COLUMNS", 4)        # two columns per block
    seen = []

    class Spy(RandomSigningOnline):
        def sign_block(self, seeds, t0, columns):
            seen.append((t0, columns.shape, columns.flags.writeable,
                         columns.strides[-1] == columns.itemsize))
            return super().sign_block(seeds, t0, columns)

    entries = np.array(generate_batch(3, 9, "gaussian", np.arange(2)))   # writable
    run_online_batch(Spy(), entries, np.arange(2))
    # each (M,) column is contiguous, and the last block is ragged
    assert seen == [(t0, (2, 2, 3), False, True) for t0 in (0, 2, 4, 6)] + [
        (8, (1, 2, 3), False, True)]


def test_scores_see_read_only_candidates_on_every_call():
    seen = []

    class Spy(GreedyOnline):
        def score(self, scratch, candidates):
            seen.append(candidates.flags.writeable)
            return super().score(scratch, candidates)

    run_online_batch(Spy(), generate_batch(3, 20, "gaussian", np.arange(2)), np.arange(2))
    assert len(seen) > 20 and not any(seen)


def test_batch_harness_validation():
    with pytest.raises(ParameterError):
        run_online_batch(GreedyOnline(), np.zeros((3, 4)), [0, 0, 0])
    with pytest.raises(ParameterError):
        run_online_batch(GreedyOnline(), np.zeros((2, 3, 4)), [0])


def test_greedy_batch_matches_scalar():
    entries = np.stack([generate(4, 40, "gaussian", s).entries for s in range(6)])
    signs, sums = run_greedy_batch(entries)
    for i in range(6):
        res = run_online(GreedyOnline(), Instance(4, 40, "gaussian", i, entries[i]))
        assert np.array_equal(res.sigma, signs[i])
        assert np.allclose(res.row_sums, sums[i])


def test_greedy_batch_reports_direct_products():
    entries = generate_batch(32, 1024, "gaussian", np.arange(10))
    signs, sums = run_greedy_batch(entries)
    for i in range(10):
        assert np.array_equal(sums[i], entries[i] @ signs[i])


def test_random_signing_matches_online_path():
    for kind in ("gaussian", "rademacher"):
        inst = generate(3, 30, kind, 8)
        fast = random_signing(inst, 17)
        slow = run_online(RandomSigningOnline(), inst, omega=17).sigma
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, random_signs(inst.entries, 17))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.float64])
def test_random_signing_keys_on_working_dtype(dtype):
    # the column is hashed as the harness holds it (int64 or float64)
    entries = generate(3, 40, "rademacher", 4).entries.astype(dtype)
    inst = Instance(3, 40, "rademacher", 4, entries)
    want = run_online(RandomSigningOnline(), inst, omega=9).sigma
    assert np.array_equal(random_signing(inst, 9), want)
    assert np.array_equal(want, random_signs(entries.astype(np.int64), 9))


def test_random_signing_determinism_and_seed_sensitivity():
    inst = generate(2, 100, "gaussian", 5)
    assert np.array_equal(random_signing(inst, 9), random_signing(inst, 9))
    assert not np.array_equal(random_signing(inst, 9), random_signing(inst, 10))


def test_random_signing_gaussian_tail():
    # M=1 walk of 10^4 uniform signs: |sum| <= 4 sqrt(n) has probability
    # ~1 - 6e-5; demand >= 99% over 300 seeds
    inst_entries = [generate(1, 10_000, "rademacher", s) for s in range(300)]
    hits = 0
    bound = 4.0 * math.sqrt(10_000)
    for inst in inst_entries:
        sigma = random_signing(inst, 1000 + inst.seed)
        val = abs(int(np.sum(sigma.astype(np.int64) * inst.entries[0])))
        hits += val <= bound
    assert hits >= 0.99 * 300


def test_random_signing_max_row_scaling():
    # median max row sum across rows within a factor 2 of sqrt(2 n ln M)
    n, m = 10_000, 100
    target = math.sqrt(2 * n * math.log(m))
    vals = []
    for s in range(11):
        inst = generate(m, n, "gaussian", 900 + s)
        sigma = random_signing(inst, s).astype(np.float64)
        vals.append(float(np.abs(inst.entries @ sigma).max()))
    med = float(np.median(vals))
    assert target / 2 <= med <= target * 2


def test_potential_beats_random_small():
    n, m, seeds = 256, 16, 30
    pot_vals, rnd_vals = [], []
    alg = PotentialOnline()
    for s in range(seeds):
        inst = generate(m, n, "rademacher", 4000 + s)
        pot_vals.append(run_online(alg, inst).value)
        sigma = random_signing(inst, s).astype(np.int64)
        rnd_vals.append(int(np.abs(inst.entries @ sigma).max()))
    assert np.median(pot_vals) <= np.median(rnd_vals)


@pytest.mark.parametrize("alg", ["greedy", "potential", "random"])
def test_online_reports_direct_product(alg):
    # the running sums drift on gaussian instances; the report must not
    for seed in range(10):
        inst = generate(32, 1024, "gaussian", seed)
        res = run_online(make_algorithm(alg), inst, omega=seed)
        sums = inst.entries @ res.sigma.astype(np.float64)
        assert np.array_equal(res.row_sums, sums)
        assert res.value == float(np.max(np.abs(sums)))


@settings(max_examples=40, deadline=None)
@given(alg=st.sampled_from(ALGORITHMS), m=st.integers(1, 6), n=st.integers(1, 40),
       disorder=st.sampled_from(["gaussian", "rademacher", "bernoulli"]),
       seed=st.integers(0, 2**64 - 1), omega=st.integers(0, 2**64 - 1), data=st.data())
def test_online_run_on_a_prefix_gives_the_prefix_signs(alg, m, n, disorder, seed, omega,
                                                      data):
    # coordinate t sees columns 1..t only, so the first t columns alone
    # give the first t signs of the full run
    p = 0.5 if disorder == "bernoulli" else None
    t = data.draw(st.integers(1, n))
    full = run_online(make_algorithm(alg), generate(m, n, disorder, seed, p), omega)
    head = run_online(make_algorithm(alg), generate(m, t, disorder, seed, p), omega)
    assert np.array_equal(head.sigma, full.sigma[:t])


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("disorder", ["gaussian", "rademacher"])      # float64, int64
def test_random_signs_equal_the_per_column_definition(b, disorder):
    m = 4
    n = 2 * _block_width(b, m) + 5            # two full column blocks and a ragged one
    entries = generate_batch(m, n, disorder, np.arange(b) + 70)
    omegas = np.array([philox.derive_seed(71, i) for i in range(b)], dtype=np.uint64)
    signs, _ = run_online_batch(RandomSigningOnline(), entries, omegas)
    for i in range(b):
        assert np.array_equal(signs[i], random_signs(entries[i], omegas[i])), i


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_prefix_property_across_column_blocks(alg):
    m = 32
    per = _block_width(1, m)
    n = 2 * per + 40                          # three column blocks
    base = generate(m, n, "gaussian", 1234)
    ra = run_online(make_algorithm(alg), base, omega=5)
    for t in (per - 1, per, per + 1):
        # a sign that read one column too far would still match with
        # probability about 1/2 per suffix, so try eight
        for other in resample_suffix(base, n - t, 9, [10 * t + j for j in range(8)])[1:]:
            assert not np.array_equal(base.entries[:, t:], other.entries[:, t:])
            rb = run_online(make_algorithm(alg), other, omega=5)
            assert np.array_equal(ra.sigma[:t], rb.sigma[:t]), t


def test_block_contract_violation_names_step():
    with pytest.raises(ContractViolationError,
                       match=r"'block-returns', step 3, batch row 1\b"):
        run_online_batch(returns_at(1.5, 3, bad_row=1),
                         generate_batch(2, 8, "gaussian", np.arange(2)), np.arange(2))


class RunningGreedy:
    """Greedy as a block signer that keeps its own running sums in its
    scratch state and walks each block column by column."""

    name = "running-greedy"

    def start(self, rows, omegas=(0,)):
        return {}

    def sign_block(self, state, t0, columns):
        k, b, m = columns.shape
        partial = state.get("partial", np.zeros((b, m), columns.dtype))
        signs = np.empty((k, b))
        for j, column in enumerate(columns):
            plus, minus = partial + column, partial - column
            won = np.abs(plus).max(-1) <= np.abs(minus).max(-1)      # ties -> +1
            signs[j] = np.where(won, 1, -1)
            partial = np.where(won[:, None], plus, minus)
        state["partial"] = partial
        return signs


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("disorder", ["gaussian", "rademacher"])      # float64, int64
def test_a_stateful_block_signer_reproduces_greedy_across_blocks(b, disorder):
    # any online rule is a block signer with state: dropping the per-column
    # step protocol loses none
    m = 4
    n = 2 * _block_width(b, m) + 5            # two full column blocks and a ragged one
    entries = generate_batch(m, n, disorder, np.arange(b) + 90)
    signs, sums = run_online_batch(RunningGreedy(), entries, np.arange(b))
    want, want_sums = run_greedy_batch(entries)
    assert np.array_equal(signs, want)
    assert np.array_equal(sums, want_sums)


def test_block_contract_violation_wrong_shape():
    per = _block_width(1, 2)

    def make(t0, k, b):
        return np.ones((k, b)) if t0 == 0 else np.ones(k)

    with pytest.raises(ContractViolationError, match=rf"'block-returns', step {per}\b"):
        run_online(BlockReturns(make), generate(2, per + 7, "gaussian", 1))


def test_run_online_refuses_row_sums_beyond_int64():
    # refused when the instance is built, before any run
    with pytest.raises(ParameterError, match="int64"):
        inst = Instance(1, 5, "rademacher", 0,
                        np.array([[3 * 10**18] * 4 + [1]], dtype=np.int64))
        run_online(GreedyOnline(), inst)


@pytest.mark.parametrize("omega", [1.7, -1, 2**64, True])
def test_random_signing_refuses_a_bad_aux_seed(omega):
    # as generate refuses such seeds; 1.7 used to sign as omega 1
    with pytest.raises(ParameterError, match="seeds must be integers"):
        run_online(RandomSigningOnline(), generate(2, 30, "gaussian", 1), omega)


@settings(max_examples=80, deadline=None)
@given(rule=st.sampled_from(["greedy", "potential"]), b=st.sampled_from([1, 3]),
       m=st.sampled_from([1, 2, 7, 33]), n=st.integers(1, 30),
       disorder=st.sampled_from(["gaussian", "rademacher", "bernoulli"]),
       lam=st.sampled_from([None, 0.25, 40.0]), column_block=st.sampled_from([1, 7, 64]),
       block_columns=st.sampled_from([1, 4, 9]), seed=st.integers(0, 2**32), data=st.data())
def test_score_signs_equal_the_per_column_definition(rule, b, m, n, disorder, lam,
                                                     column_block, block_columns, seed, data):
    # small column blocks, so that runs cross block boundaries
    p = 0.4 if disorder == "bernoulli" else None
    seeds = [philox.derive_seed(seed, i) for i in range(b)]
    entries = np.array(generate_batch(m, n, disorder, seeds, p))
    zero = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    entries[:, :, zero] = 0                  # exact ties: both candidates are the old sums
    lam = lam if rule == "potential" else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(online, "_COLUMN_BLOCK", column_block)
        patch.setattr(online, "_BLOCK_COLUMNS", block_columns)
        signs, _ = run_online_batch(make_algorithm(rule, lam), entries, np.arange(b))
    for i in range(b):
        assert np.array_equal(signs[i], online_signs(entries[i], rule, lam)), i


@pytest.mark.filterwarnings("error")            # no numpy overflow warning either
@pytest.mark.parametrize("disorder", ["gaussian", "rademacher"])
def test_potential_refuses_a_lambda_that_overflows_float64(disorder):
    inst = generate(3, 6, disorder, 1)
    with pytest.raises(ParameterError, match=r"'potential'.*step 0\b.*overflow float64"):
        run_online(PotentialOnline(1e308), inst)
    with pytest.raises(ParameterError, match="overflow float64"):
        stability_probe(PotentialOnline(1e308), 0.9, 3, 6, 3, 1.0)
    # a large lambda that stays inside float64 still decides by the definition
    res = run_online(PotentialOnline(1e300), inst)
    assert np.array_equal(res.sigma, online_signs(inst.entries, "potential", 1e300))


@pytest.mark.filterwarnings("error")
def test_lambda_overflow_is_caught_before_the_block_that_reaches_it(monkeypatch):
    # one column per block; |a - m| reaches 2 lambda (row l1 norm so far):
    # 1.75e308 after seven columns, 2e308 after eight, so step 7 is refused
    monkeypatch.setattr(online, "_BLOCK_COLUMNS", 1)
    inst = Instance(1, 8, "rademacher", 0, np.ones((1, 8), dtype=np.int64))
    with pytest.raises(ParameterError, match=r"step 7\b"):
        run_online(PotentialOnline(1e308 / 8), inst)
    head = Instance(1, 7, "rademacher", 0, np.ones((1, 7), dtype=np.int64))
    assert np.array_equal(run_online(PotentialOnline(1e308 / 8), head).sigma,
                          online_signs(head.entries, "potential", 1e308 / 8))
