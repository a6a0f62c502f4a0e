"""Checks of every task's output against the computations in reference.py.

A checker takes a task and the bytes of its output files, and returns a
list of error strings (empty when the output is right).  Integer
disorders are checked exactly.  Gaussian row sums and values are checked
to 1e-9 relative: disclab accumulates its row sums incrementally, and
they drift from the direct product by up to about 1e-13.  A gaussian
vector whose value lies within that slack of a threshold may be counted
either way (see ``reference.below``).

Large instances (online, stability) are taken from ``disclab.instances``
and spot-checked entry by entry against the definition; small ones are
rebuilt whole from the definition.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import numpy as np

import reference

ENTRY_SAMPLES = 64


def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(b)))


def _close_vec(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))))


def _equal_value(disorder, got, want) -> bool:
    return _close(got, want) if disorder == "gaussian" else got == int(want)


def _sums_errors(what, disorder, entries, sigma_str, value, sums) -> list:
    """Reported value and row sums against the direct product."""
    direct = reference.row_sums(entries, [1 if c == "+" else -1 for c in sigma_str])
    err = []
    if disorder == "gaussian":
        ok = _close_vec(sums, direct)
    else:
        ok = [int(v) for v in sums] == [int(v) for v in direct]
    if not ok:
        err.append(f"{what}: row sums differ from the direct product")
    if not _equal_value(disorder, value, np.abs(direct).max()):
        err.append(f"{what}: value {value} is not max |row sum| of the witness")
    return err


def sign_array(s: str) -> np.ndarray:
    return np.array([1 if c == "+" else -1 for c in s], dtype=np.int64)


# ---------------------------------------------------------------------------
# experiment sweeps (exact minima and SBP counts)
# ---------------------------------------------------------------------------

def _exact_errors(payload, cfg, seed) -> list:
    rows, cols, disorder = cfg["rows"], cfg["cols"], cfg["disorder"]
    what = f"exact seed {seed}"
    argmin = payload["argmin"]
    if len(argmin) != cols or argmin[0] != "+":
        return [f"{what}: argmin {argmin!r} is not a length-{cols} vector with sigma_1 = +"]
    entries = reference.instance_entries(rows, cols, disorder, seed)
    err = _sums_errors(what, disorder, entries, argmin, payload["value"], payload["row_sums"])
    vals = reference.all_values(entries, first_plus=True)
    best = vals.min()
    if not _equal_value(disorder, payload["value"], best):
        err.append(f"{what}: value {payload['value']} is not the minimum {best}")
    if disorder != "gaussian":
        # tie rule: the first minimizer in the solver's Gray-walk order
        ties = np.nonzero(vals == best)[0]
        first = int(ties[np.argmin(reference.gray_index(ties, cols))])
        if reference.sign_code(argmin) != first:
            err.append(f"{what}: argmin is not the first minimizer in Gray-walk order")
    return err


def _sbp_count_errors(payload, cfg, seed) -> list:
    rows, cols = cfg["rows"], cfg["cols"]
    entries = reference.instance_entries(rows, cols, "gaussian", seed)
    thr = cfg["kappa"] * math.sqrt(cols)
    strict, loose = reference.below(reference.all_values(entries), thr,
                                    reference.tolerance("gaussian", thr))
    lo, hi = int(strict.sum()), int(loose.sum())
    if payload["kappa"] != cfg["kappa"] or not lo <= payload["count"] <= hi:
        return [f"sbp-count seed {seed}: count {payload['count']}, expected {lo}"
                + (f"..{hi}" if hi != lo else "")]
    return []


def check_experiment(task, blobs) -> list:
    cfg = task.params["config"]
    manifest = json.loads(blobs[0])
    err = []
    for key, want in cfg.items():
        if manifest["config"].get(key) != want:
            err.append(f"manifest config {key} = {manifest['config'].get(key)!r}, "
                       f"expected {want!r}")
    entries = manifest["tasks"]
    if [t["seed"] for t in entries] != cfg["seeds"]:
        err.append("manifest does not list the configured seeds")
    for t, blob in zip(entries, blobs[1:]):
        if t["status"] != "ok" or t["file"] != f"{cfg['kind']}_{t['seed']}.json":
            err.append(f"manifest task {t} is not ok")
            continue
        if reference.sha256(blob) != t["sha256"]:
            err.append(f"{t['file']}: SHA-256 differs from the manifest")
        payload = json.loads(blob)
        if payload["seed"] != t["seed"]:
            err.append(f"{t['file']}: seed {payload['seed']}")
        if cfg["kind"] == "exact":
            err += _exact_errors(payload, cfg, t["seed"])
        else:
            err += _sbp_count_errors(payload, cfg, t["seed"])
    return err


# ---------------------------------------------------------------------------
# online signing and the stability probe
# ---------------------------------------------------------------------------

def _program_entries(rows, cols, disorder, seed):
    """disclab's instance, with sampled entries checked against the definition."""
    from disclab.instances import generate

    entries = np.asarray(generate(rows, cols, disorder, seed).entries)
    entries = entries.astype(np.float64 if disorder == "gaussian" else np.int64)
    bad = reference.entry_mismatches(entries, disorder, seed, ENTRY_SAMPLES,
                                     random.Random(seed))
    return entries, ([f"instance seed {seed}: entries {bad[:3]} differ from the definition"]
                     if bad else [])


def _potential_prefix_errors(rows, cols, disorder, seed, sigma) -> list:
    """Online prefix property: the first n/2 signs on the n/2-column
    instance (the same leading columns) equal the first n/2 signs here."""
    from disclab.instances import generate
    from disclab.online import PotentialOnline, run_online

    half = cols // 2
    res = run_online(PotentialOnline(), generate(rows, half, disorder, seed), omega=seed)
    got = "".join("+" if s > 0 else "-" for s in res.sigma)
    return [] if got == sigma[:half] else [f"potential seed {seed}: prefix property fails"]


def check_online(task, blobs) -> list:
    p = task.params
    payload = json.loads(blobs[0])
    err = []
    if [r["seed"] for r in payload["results"]] != p["seeds"]:
        return [f"online: results for seeds {[r['seed'] for r in payload['results']]}"]
    for res in payload["results"]:
        seed, sigma = res["seed"], res["sigma"]
        what = f"online {p['alg']} seed {seed}"
        if len(sigma) != p["cols"] or res["alg"] != p["alg"]:
            err.append(f"{what}: malformed result")
            continue
        entries, bad = _program_entries(p["rows"], p["cols"], p["disorder"], seed)
        err += bad
        err += _sums_errors(what, p["disorder"], entries, sigma, res["value"], res["row_sums"])
        if p["alg"] == "greedy":
            if not np.array_equal(reference.greedy_signs(entries)[0], sign_array(sigma)):
                err.append(f"{what}: signs differ from the greedy replay")
        elif p["alg"] == "random":
            if not np.array_equal(reference.random_signs(entries, seed), sign_array(sigma)):
                err.append(f"{what}: signs differ from the Philox replay")
        else:
            steps = reference.potential_violations(entries, sign_array(sigma),
                                                   1.0 / math.sqrt(p["rows"]))
            if steps:
                err.append(f"{what}: steps {steps[:3]} do not minimize the potential")
            err += _potential_prefix_errors(p["rows"], p["cols"], p["disorder"], seed, sigma)
    return err


def check_stability(task, blobs) -> list:
    p = task.params
    out = json.loads(blobs[0])
    trials, tau = p["trials"], math.acos(p["rho"])
    d_h, fro, ok_a, ok_b, err = [], [], [], [], []
    for t in range(trials):
        base, bad_a = _program_entries(p["rows"], p["cols"], "gaussian",
                                       reference.derive_seed(p["seed"], t, 0))
        fresh, bad_b = _program_entries(p["rows"], p["cols"], "gaussian",
                                        reference.derive_seed(p["seed"], t, 1))
        err += bad_a + bad_b
        pert = interpolate(base, fresh, tau)
        sa, sums_a = reference.greedy_signs(base)
        sb, sums_b = reference.greedy_signs(pert)
        d_h.append(int(np.count_nonzero(sa != sb)))
        fro.append(float(np.linalg.norm(base - pert)))
        ok_a.append(np.abs(sums_a).max() <= p["threshold"])
        ok_b.append(np.abs(sums_b).max() <= p["threshold"])
    d_arr = np.array(d_h)
    qs = np.quantile(d_arr, [0.0, 0.25, 0.5, 0.75, 1.0])
    want_q = {f"q{q:03d}": float(v) for q, v in zip((0, 25, 50, 75, 100), qs)}
    if np.std(fro) < 1e-12:
        fit_l, fit_f = 0.0, float(np.mean(d_arr))
    else:
        fit_l, fit_f = np.polyfit(fro, d_arr.astype(float), 1)
    if out["d_hamming"] != d_h:
        err.append("stability: per-trial Hamming distances differ from the replay")
    if not _close_vec(out["frobenius"], fro):
        err.append("stability: per-trial Frobenius distances differ")
    if out["success_rate"] != float(np.mean(ok_a)) or \
            out["success_rate_perturbed"] != float(np.mean(ok_b)):
        err.append("stability: success rates differ from the replay")
    if out["quantiles"] != want_q:
        err.append("stability: Hamming quantiles differ")
    if not (abs(out["fit_f"] - fit_f) <= 1e-6 * max(1.0, abs(fit_f))
            and abs(out["fit_L"] - fit_l) <= 1e-6 * max(1.0, abs(fit_l))):
        err.append("stability: least-squares fit differs")
    for key in ("rho", "trials", "threshold"):
        if out[key] != p[key]:
            err.append(f"stability: {key} = {out[key]!r}")
    if (out["n"], out["rows"]) != (p["cols"], p["rows"]):
        err.append("stability: shape differs")
    return err


# ---------------------------------------------------------------------------
# landscape searches, histogram, Monte Carlo box probability
# ---------------------------------------------------------------------------

def _overlaps(codes, n) -> list:
    out = []
    for i in range(len(codes)):
        for j in range(i + 1, len(codes)):
            out.append(1.0 - 2.0 * bin(codes[i] ^ codes[j]).count("1") / n)
    return out


def _certificate_errors(what, out, members, threshold, disorder) -> list:
    """Members' values and overlaps, recomputed from the witness."""
    err = []
    n = len(out["members"][0])
    codes = [reference.sign_code(s) for s in out["members"]]
    if out["overlaps"] != _overlaps(codes, n):
        err.append(f"{what}: overlaps differ from the witness")
    if not _close(out["threshold"], threshold):
        err.append(f"{what}: threshold {out['threshold']}, expected {threshold}")
    for i, (entries, s) in enumerate(zip(members, out["members"])):
        v = np.abs(reference.row_sums(entries, sign_array(s))).max()
        if not _close(out["disc_values"][i], v):
            err.append(f"{what}: member {i} value {out['disc_values'][i]}, direct {v}")
        if v > threshold + reference.tolerance(disorder, threshold):
            err.append(f"{what}: member {i} exceeds the threshold")
    return err


def xi_members(p) -> list:
    """The suffix-resampled ensemble of a xi search: member i > 0 redraws
    the last k columns from derive_seed(seed, i, 1)."""
    n, k, disorder = p["cols"], p["k"], p["disorder"]
    base = reference.instance_entries(p["rows"], n, disorder, p["seed"])
    members = [base]
    for i in range(1, p["m"]):
        sub = reference.derive_seed(p["seed"], i, 1)
        suffix = [[reference.entry(sub, disorder, r, c) for c in range(n - k, n)]
                  for r in range(p["rows"])]
        members.append(np.concatenate([base[:, : n - k], np.array(suffix, dtype=base.dtype)],
                                      axis=1))
    return members


def ogp_instances(p):
    """(base, [fresh_i]) of an OGP search; fresh_i uses derive_seed(seed, i, 2)."""
    base = reference.instance_entries(p["rows"], p["cols"], "gaussian", p["seed"])
    return base, [reference.instance_entries(p["rows"], p["cols"], "gaussian",
                                              reference.derive_seed(p["seed"], i, 2))
                  for i in range(p["m"])]


def interpolate(base, fresh, tau):
    """cos(tau) base + sin(tau) fresh; pi/2 gives fresh exactly."""
    c, s = (0.0, 1.0) if tau == np.pi / 2 else (np.cos(tau), np.sin(tau))
    return c * base + s * fresh


def check_xi(task, blobs) -> list:
    p = task.params
    out = json.loads(blobs[0])
    n, k, m, disorder = p["cols"], p["k"], p["m"], p["disorder"]
    members = xi_members(p)
    threshold = (p["kappa"] * math.sqrt(n) if p["mode"] == "xi-sbp"
                 else p["cu"] * math.sqrt(p["rows"]))
    tol = reference.tolerance(disorder, threshold)
    strict, loose = [], []
    for entries in members:
        s, l = reference.below(reference.all_values(entries), threshold, tol)
        strict.append(s.reshape(1 << (n - k), 1 << k))
        loose.append(l.reshape(1 << (n - k), 1 << k))
    feasible = np.logical_and.reduce([s.any(axis=1) for s in strict])
    what = f"{p['mode']} seed {p['seed']}"
    if not out["found"]:
        hit = np.nonzero(feasible)[0]
        return [f"{what}: no tuple reported, but prefix {hit[0]} has one"] if hit.size else []
    codes = [reference.sign_code(s) for s in out["members"]]
    if len(codes) != m or any(len(s) != n for s in out["members"]):
        return [f"{what}: malformed witness"]
    err = _certificate_errors(what, out, members, threshold, disorder)
    if out["tau_or_delta"] != {"mode": "suffix_resample", "k": k}:
        err.append(f"{what}: tau_or_delta {out['tau_or_delta']}")
    prefix = codes[0] >> k
    if any(c >> k != prefix for c in codes):
        return err + [f"{what}: members do not share the first n-k signs"]
    if np.any(feasible[:prefix]):
        err.append(f"{what}: an earlier prefix has a tuple")
    for i, c in enumerate(codes):
        suffix = c & ((1 << k) - 1)
        if not loose[i][prefix, suffix]:
            err.append(f"{what}: member {i} is not a solution")
        if np.any(strict[i][prefix, :suffix]):
            err.append(f"{what}: member {i} has an earlier solution suffix")
    return err


def check_ogp(task, blobs) -> list:
    p = task.params
    out = json.loads(blobs[0])
    n, m, thr = p["cols"], p["m"], p["K"]
    lo, hi = p["beta"] - p["eta"], p["beta"]
    base, fresh = ogp_instances(p)
    angles = [j * (math.pi / (2 * p["grid"])) for j in range(p["grid"] + 1)]
    tol = reference.tolerance("gaussian", thr)
    # per member and angle: (strict, loose) solution masks over all codes
    masks = []
    for i in range(m):
        per_angle = []
        for tau in angles:
            per_angle.append(reference.below(
                reference.all_values(interpolate(base, fresh[i], tau)), thr, tol))
        masks.append(per_angle)
    strict = [np.logical_or.reduce([a[0] for a in per]) for per in masks]
    loose = [np.logical_or.reduce([a[1] for a in per]) for per in masks]
    what = f"ogp seed {p['seed']}"
    if m != 2:
        return [f"{what}: the check handles m = 2"]
    s0, s1 = np.nonzero(strict[0])[0], np.nonzero(strict[1])[0]
    if not out["found"]:
        for start in range(0, s0.size, 256):
            if reference.window_pairs(s0[start:start + 256], s1, n, lo, hi).any():
                return [f"{what}: no tuple reported, but one exists"]
        return []
    codes = [reference.sign_code(s) for s in out["members"]]
    err = []
    for i, c in enumerate(codes):
        if not loose[i][c]:
            err.append(f"{what}: member {i} is no solution at any angle")
    if not reference.window_pairs([codes[0]], [codes[1]], n, lo, hi)[0, 0]:
        err.append(f"{what}: overlap outside [{lo}, {hi}]")
    earlier = s0[s0 < codes[0]]
    for start in range(0, earlier.size, 256):
        if reference.window_pairs(earlier[start:start + 256], s1, n, lo, hi).any():
            err.append(f"{what}: a lexicographically earlier tuple exists")
            break
    if strict[0][codes[0]] and reference.window_pairs(
            [codes[0]], s1[s1 < codes[1]], n, lo, hi).any():
        err.append(f"{what}: an earlier second member exists")
    taus = out["tau_or_delta"].get("angles", [])
    inst = []
    for i, (c, tau) in enumerate(zip(codes, taus)):
        j = angles.index(tau) if tau in angles else None
        if j is None or not masks[i][j][1][c] or any(masks[i][a][0][c] for a in range(j)):
            err.append(f"{what}: member {i} angle {tau} is not its first witness angle")
            j = 0
        inst.append(interpolate(base, fresh[i], angles[j]))
    if len(taus) != m:
        return err + [f"{what}: {len(taus)} angles for {m} members"]
    return err + _certificate_errors(what, out, inst, thr, "gaussian")


def check_histogram(task, blobs) -> list:
    p = task.params
    n = p["cols"]
    entries = reference.instance_entries(p["rows"], n, "gaussian", p["seed"])
    thr = p["kappa"] * math.sqrt(n)
    strict, loose = reference.below(reference.all_values(entries), thr,
                                    reference.tolerance("gaussian", thr))
    what = f"histogram seed {p['seed']}"
    if not np.array_equal(strict, loose):
        return [f"{what}: kappa lies within rounding of a solution's value"]
    counts_d = reference.hamming_counts(np.nonzero(strict)[0], n)
    overlap = 1.0 - 2.0 * np.arange(n + 1) / n
    want, edges = np.histogram(overlap, bins=p["bins"], range=(-1.0, 1.0), weights=counts_d)
    rows = list(csv.reader(io.StringIO(blobs[0].decode("ascii"))))
    if rows[0] != ["bin_lo", "bin_hi", "count"] or len(rows) != p["bins"] + 1:
        return [f"{what}: malformed CSV"]
    got = [(float(a), float(b), int(c)) for a, b, c in rows[1:]]
    expect = [(float(a), float(b), int(c)) for a, b, c in zip(edges[:-1], edges[1:], want)]
    return [] if got == expect else [f"{what}: bin counts differ from the pair counts"]


def check_box(task, blobs) -> list:
    p = task.params
    out = json.loads(blobs[0])
    m, beta, eta = p["m"], p["beta"], p["eta"]
    cov = reference.equicorrelated(m, beta - eta)
    half = p["K"] / math.sqrt(p["n"])
    bound = ((2.0 * math.pi) ** (-m / 2.0) * np.linalg.det(cov) ** -0.5
             * (2.0 * p["K"] / math.sqrt(p["n"])) ** m)
    err = []
    for key in ("m", "beta", "eta", "K", "n"):
        if out[key] != p[key]:
            err.append(f"box-bound: {key} = {out[key]!r}")
    if not _close(out["bound"], bound):
        err.append(f"box-bound: bound {out['bound']}, expected {bound}")
    est, se, samples = out["mc_estimate"], out["mc_std_error"], p["samples"]
    if not _close(se, math.sqrt(est * (1.0 - est) / samples)):
        err.append("box-bound: standard error is not sqrt(p(1-p)/N)")
    exact = reference.box_probability(cov, half)
    if abs(est - exact) > 4.0 * se + 1e-5:
        err.append(f"box-bound: estimate {est} is more than 4 standard errors "
                   f"({se}) from {exact}")
    return err


CHECKERS = {"experiment": check_experiment, "online": check_online,
            "stability": check_stability, "xi": check_xi, "ogp": check_ogp,
            "histogram": check_histogram, "box": check_box}


def check(task, blobs) -> list:
    try:
        return CHECKERS[task.check](task, blobs)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"{task.label}: malformed output ({type(exc).__name__}: {exc})"]
