"""Command line interface.

Subcommands: gen, disc, sbp, online, landscape, theory, experiment.
``--seed``, ``--samples``, and ``--out`` behave uniformly; when --out is
omitted, reports go to stdout.  The environment variable DISCLAB_OUT_DIR
supplies the default output directory for experiment sweeps.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import landscape, theory
from .discrepancy import (enumerate_solutions, exact_discrepancy, parse_sign_string,
                          sbp_membership, sign_string)
from .errors import CapacityError, ParameterError
from .experiment import load_config, parse_seed_range, run_experiment
from .instances import generate, load_instance, resample_suffix, save_instance
from .online import make_algorithm, run_online
from .philox import derive_seed
from .reports import emit_report, to_payload


def _add_instance_args(p, seed_required=True):
    p.add_argument("--in", dest="infile", help="read the instance from a file")
    p.add_argument("--rows", type=int, help="row count M")
    p.add_argument("--cols", type=int, help="column count n")
    p.add_argument("--disorder", choices=("gaussian", "rademacher", "bernoulli"),
                   default="gaussian")
    p.add_argument("--p", type=float, default=None, help="bernoulli parameter")
    p.add_argument("--seed", type=int, default=0 if not seed_required else None)


def _instance_from(args):
    if args.infile:
        return load_instance(args.infile)
    if args.rows is None or args.cols is None:
        raise ParameterError("need --in FILE or --rows/--cols/--seed")
    seed = args.seed if args.seed is not None else 0
    return generate(args.rows, args.cols, args.disorder, seed, args.p)


def _emit(args, result, fmt="json"):
    text = emit_report(result, fmt, getattr(args, "out", None))
    if getattr(args, "out", None) is None:
        sys.stdout.write(text)


def _cmd_gen(args):
    inst = _instance_from(args)
    save_instance(inst, args.out, body=args.body)


def _cmd_disc(args):
    inst = _instance_from(args)
    res = exact_discrepancy(inst, max_n=args.max_n)
    _emit(args, res)


def _cmd_sbp(args):
    inst = _instance_from(args)
    if args.sigma:
        sigma = parse_sign_string(args.sigma)
        ok = sbp_membership(inst, sigma, args.kappa)
        _emit(args, {"kappa": args.kappa, "sigma": args.sigma, "satisfies": ok})
        return
    sols = enumerate_solutions(inst, args.kappa, max_n=args.max_n)
    payload = {"kappa": args.kappa, "count": int(sols.shape[0])}
    if args.list:
        payload["solutions"] = [sign_string(s) for s in sols]
    _emit(args, payload)


def _cmd_online(args):
    seeds = parse_seed_range(args.seeds)
    alg = make_algorithm(args.alg, args.lam)
    results = []
    for seed in seeds:
        inst = generate(args.rows, args.cols, args.disorder, seed, args.p)
        res = run_online(alg, inst, omega=seed)
        row = {"seed": seed, "alg": args.alg}
        row.update(to_payload(res))
        results.append(row)
    _emit(args, {"alg": args.alg, "rows": args.rows, "cols": args.cols,
                 "disorder": args.disorder, "results": results})


def _ensemble_from(args, m, k):
    base = generate(args.rows, args.cols, args.disorder, args.seed, args.p)
    seeds = [derive_seed(args.seed, i, 1) for i in range(1, m)]
    return resample_suffix(base, k, m, seeds)


def _cmd_landscape(args):
    if args.mode == "histogram":
        inst = _instance_from(args)
        sols = enumerate_solutions(inst, args.kappa, max_n=args.max_n)
        if sols.shape[0] < 2:
            raise ParameterError(f"only {sols.shape[0]} solutions at kappa={args.kappa}; "
                                 "histogram needs at least 2")
        hist = landscape.overlap_histogram(sols, args.bins)
        _emit(args, hist, fmt="csv")
        return
    if args.mode == "xi-sbp":
        members = _ensemble_from(args, args.m, args.k)
        cert = landscape.search_xi_sbp(members, args.k, args.kappa, max_n=args.max_n)
        _emit(args, cert if cert is not None else {"found": False})
        return
    if args.mode == "xi-disc":
        k = args.k if args.k is not None else args.rows
        members = _ensemble_from(args, args.m, k)
        cert = landscape.search_xi_disc(members, k, args.cu, max_n=args.max_n)
        _emit(args, cert if cert is not None else {"found": False})
        return
    if args.mode == "ogp":
        base = generate(args.rows, args.cols, "gaussian", args.seed)
        fresh = [generate(args.rows, args.cols, "gaussian", derive_seed(args.seed, i, 2))
                 for i in range(args.m)]
        window = landscape.OgpWindow(beta=args.beta, eta=args.eta, bound=args.K,
                                     m=args.m)
        grid = landscape.default_angle_grid(args.grid)
        cert = landscape.search_ogp_tuples(base, fresh, grid, window, max_n=args.max_n)
        _emit(args, cert if cert is not None else {"found": False})
        return
    # stability
    alg = make_algorithm(args.alg, args.lam)
    rep = landscape.stability_probe(alg, args.rho, args.trials, args.cols,
                                    args.rows, args.threshold, seed=args.seed)
    _emit(args, rep)


def _cmd_theory(args):
    t = args.topic
    if t == "alpha-c":
        _emit(args, {"kappa": args.kappa, "alpha_c": theory.alpha_c(args.kappa)})
    elif t == "psi-sbp":
        _emit(args, theory.psi_sbp(args.delta, args.m, args.alpha, args.kappa))
    elif t == "psi-disc":
        _emit(args, theory.psi_disc(args.m, args.beta, args.eta, args.c,
                                    args.n, args.rows, args.K,
                                    entropy_factor=args.entropy_factor))
    elif t == "ogp-params":
        _emit(args, theory.find_ogp_params(args.C1, args.c2, args.K))
    elif t == "cov":
        eta_vec = ([float(x) for x in args.eta_vec.split(",")]
                   if args.eta_vec else ())
        spec = theory.CovarianceSpec(args.m, args.beta, args.eta, tuple(eta_vec))
        _emit(args, theory.covariance_analysis(spec))
    elif t == "box-bound":
        bound = theory.gaussian_box_bound(args.m, args.beta, args.eta, args.K, args.n)
        payload = {"m": args.m, "beta": args.beta, "eta": args.eta,
                   "K": args.K, "n": args.n, "bound": bound}
        if args.samples:
            cov = theory.build_covariance(
                args.m, args.beta, [args.eta] * (args.m * (args.m - 1) // 2))
            est = theory.mc_box_probability(cov, args.K / math.sqrt(args.n),
                                            args.samples, args.seed)
            payload["mc_estimate"] = est.estimate
            payload["mc_std_error"] = est.std_error
        _emit(args, payload)
    elif t == "be-bound":
        _emit(args, {"interval_length": args.length, "rows": args.rows, "p": args.p,
                     "bound": theory.berry_esseen_bound(args.length, args.rows, args.p)})
    elif t == "expected-count":
        if args.hamming_delta is not None:
            if args.K is None:
                raise ParameterError("equidistant mode needs --K")
            _emit(args, theory.expected_tuple_count_general(
                args.n, args.rows, args.m, args.hamming_delta, args.K))
        else:
            if args.k is None or args.kappa is None:
                raise ParameterError("prefix mode needs --k and --kappa")
            value = theory.expected_xi_count(args.n, args.rows, args.k, args.m,
                                             args.kappa)
            _emit(args, {"n": args.n, "rows": args.rows, "k": args.k, "m": args.m,
                         "kappa": args.kappa, "expected_count": value})
    else:   # stable-constants
        _emit(args, theory.stable_constants(args.eta, args.L, args.m))


def _cmd_experiment(args):
    config = load_config(args.config)
    out_dir = args.out_dir or os.environ.get("DISCLAB_OUT_DIR")
    manifest = run_experiment(config, out_dir=out_dir)
    n_ok = sum(1 for t in manifest["tasks"] if t["status"] == "ok")
    sys.stdout.write(f"{n_ok}/{len(manifest['tasks'])} tasks ok; manifest written\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``disclab`` parser, built once per process on first use.

    Reuse is safe: parse_args returns a fresh namespace each call, and no
    action appends to or mutates a shared default.
    """
    ap = argparse.ArgumentParser(prog="disclab",
                                 description="discrepancy / perceptron laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    _add_instance_args(p)
    p.add_argument("--body", choices=("csv", "raw"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("disc", help="exact discrepancy of an instance")
    _add_instance_args(p)
    p.add_argument("--max-n", type=int, default=30)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("sbp", help="perceptron membership / solution count")
    _add_instance_args(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--sigma", help="check one sign vector, e.g. '+--+'")
    p.add_argument("--list", action="store_true", help="include the solutions")
    p.add_argument("--max-n", type=int, default=26)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sbp)

    p = sub.add_parser("online", help="run an online algorithm over a seed range")
    p.add_argument("--alg", choices=("greedy", "potential", "random"), required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--disorder", choices=("gaussian", "rademacher", "bernoulli"),
                   default="rademacher")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seeds", required=True, help="inclusive range A..B")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_online)

    p = sub.add_parser("landscape", help="solution-space geometry")
    modes = p.add_subparsers(dest="mode", required=True)

    q = modes.add_parser("histogram", help="pairwise-overlap histogram of a solution set")
    _add_instance_args(q)
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--bins", type=int, default=21)
    q.add_argument("--max-n", type=int, default=26)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_landscape)

    q = modes.add_parser("xi-sbp", help="prefix-locked satisfying tuple search")
    _add_instance_args(q)
    q.add_argument("--k", type=int, required=True, help="resampled column count")
    q.add_argument("--m", type=int, default=2, help="tuple size")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--max-n", type=int, default=22)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_landscape)

    q = modes.add_parser("xi-disc", help="prefix-locked low-discrepancy tuple search")
    _add_instance_args(q)
    q.add_argument("--k", type=int, default=None, help="resampled columns (default rows)")
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--cu", type=float, default=1.0 / 24.0,
                   help="threshold coefficient, bound is cu*sqrt(M)")
    q.add_argument("--max-n", type=int, default=22)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_landscape)

    q = modes.add_parser("ogp", help="overlap-window tuple search over an angle grid")
    q.add_argument("--rows", type=int, required=True)
    q.add_argument("--cols", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--K", type=float, required=True)
    q.add_argument("--grid", type=int, default=8, help="angle grid resolution Q")
    q.add_argument("--max-n", type=int, default=None)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_landscape)

    q = modes.add_parser("stability", help="output distance on correlated pairs")
    q.add_argument("--alg", choices=("greedy", "potential", "random"), default="greedy")
    q.add_argument("--lambda", dest="lam", type=float, default=None)
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--rows", type=int, required=True)
    q.add_argument("--cols", type=int, required=True)
    q.add_argument("--threshold", type=float, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("theory", help="closed-form exponents and bounds")
    topics = p.add_subparsers(dest="topic", required=True)

    q = topics.add_parser("alpha-c")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    q = topics.add_parser("psi-sbp")
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    q = topics.add_parser("psi-disc")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--c", type=float, required=True)
    q.add_argument("--n", type=float, required=True)
    q.add_argument("--rows", type=int, required=True, help="constraint count M")
    q.add_argument("--K", type=float, required=True)
    q.add_argument("--entropy-factor", choices=("m", "m-1"), default="m")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    q = topics.add_parser("ogp-params")
    q.add_argument("--C1", type=float, required=True)
    q.add_argument("--c2", type=float, required=True)
    q.add_argument("--K", type=float, default=1.0)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    q = topics.add_parser("cov")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--eta-vec", default=None, help="comma separated eta_ij values")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    q = topics.add_parser("box-bound")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--eta", type=float, default=0.0)
    q.add_argument("--K", type=float, required=True)
    q.add_argument("--n", type=float, required=True)
    q.add_argument("--samples", type=int, default=0,
                   help="attach a Monte Carlo estimate with this many samples")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    q = topics.add_parser("be-bound")
    q.add_argument("--length", type=float, required=True, help="interval length")
    q.add_argument("--rows", type=int, required=True, help="summand count M")
    q.add_argument("--p", type=float, default=None, help="Bernoulli mode")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    q = topics.add_parser("expected-count")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--rows", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--k", type=int, default=None, help="shared-suffix width")
    q.add_argument("--kappa", type=float, default=None)
    q.add_argument("--hamming-delta", type=int, default=None,
                   help="equidistant-tuple mode at this Hamming distance")
    q.add_argument("--K", type=float, default=None)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    q = topics.add_parser("stable-constants")
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--L", type=float, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_theory)

    p = sub.add_parser("experiment", help="run a declarative sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_experiment)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ParameterError, CapacityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
