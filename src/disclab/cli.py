"""Command line interface.

Subcommands: gen, disc, sbp, online, landscape, theory, experiment.
``--seed``, ``--samples``, and ``--out`` behave uniformly; when --out is
omitted, reports go to stdout.  The environment variable DISCLAB_OUT_DIR
supplies the default output directory for experiment sweeps.

The subparsers are the task table: each leaf sets its ``task`` with
``set_defaults``, and ``main`` emits what the task returns; a task that
returns None wrote its own output.  ``main`` prints a ``ParameterError``,
a ``CapacityError`` or an output path it cannot write as one ``error:``
line and returns 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import landscape, theory
from .discrepancy import enumerate_solutions, parse_sign_string, sbp_membership
from .errors import CapacityError, ParameterError
from .experiment import (count_payload, exact_payload, load_config, online_payload,
                         parse_seed_range, run_experiment)
from .instances import (DISORDERS, generate, load_instance, ogp_ensemble, save_instance,
                        suffix_ensemble)
from .online import ALGORITHMS, make_algorithm
from .reports import emit_report


def _add_instance_args(p):
    p.add_argument("--in", dest="infile", help="read the instance from a file")
    p.add_argument("--rows", type=int, help="row count M")
    p.add_argument("--cols", type=int, help="column count n")
    p.add_argument("--disorder", choices=DISORDERS, default="gaussian")
    p.add_argument("--p", type=float, default=None, help="bernoulli parameter")
    p.add_argument("--seed", type=int, default=0)


def _instance_from(args):
    if args.infile:
        return load_instance(args.infile)
    if args.rows is None or args.cols is None:
        raise ParameterError("need --in FILE or --rows and --cols")
    return generate(args.rows, args.cols, args.disorder, args.seed, args.p)


def _floats(text):
    try:
        return tuple(float(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated numbers, got {text!r}") from None


def _task_gen(args):
    save_instance(_instance_from(args), args.out, body=args.body)


def _task_sbp(args):
    inst = _instance_from(args)
    if not args.sigma:
        return count_payload(args, inst, listed=args.list)
    ok = sbp_membership(inst, parse_sign_string(args.sigma), args.kappa)
    return {"kappa": args.kappa, "sigma": args.sigma, "satisfies": ok}


def _task_online(args):
    results = []
    for seed in parse_seed_range(args.seeds):
        inst = generate(args.rows, args.cols, args.disorder, seed, args.p)
        results.append({"seed": seed, **online_payload(args, inst)})
    return {"alg": args.alg, "rows": args.rows, "cols": args.cols,
            "disorder": args.disorder, "results": results}


def _task_histogram(args):
    sols = enumerate_solutions(_instance_from(args), args.kappa, max_n=args.max_n)
    if sols.shape[0] < 2:
        raise ParameterError(f"only {sols.shape[0]} solutions at kappa={args.kappa}; "
                             "histogram needs at least 2")
    return landscape.overlap_histogram(sols, args.bins)


def _task_xi_sbp(args):
    members = suffix_ensemble(_instance_from(args), args.k, args.m, args.seed)
    cert = landscape.search_xi_sbp(members, args.k, args.kappa, max_n=args.max_n)
    return cert or {"found": False}


def _task_xi_disc(args):
    base = _instance_from(args)
    k = args.k if args.k is not None else base.rows
    cert = landscape.search_xi_disc(suffix_ensemble(base, k, args.m, args.seed), k, args.cu,
                                    max_n=args.max_n)
    return cert or {"found": False}


def _task_ogp(args):
    base, fresh = ogp_ensemble(args.rows, args.cols, args.m, args.seed)
    window = landscape.OgpWindow(beta=args.beta, eta=args.eta, bound=args.K, m=args.m)
    grid = landscape.default_angle_grid(args.grid)
    cert = landscape.search_ogp_tuples(base, fresh, grid,
                                       (*window.interval, window.bound, window.m),
                                       max_n=args.max_n)
    return cert or {"found": False}


def _task_stability(args):
    return landscape.stability_probe(make_algorithm(args.alg, args.lam), args.rho,
                                     args.trials, args.cols, args.rows, args.threshold,
                                     seed=args.seed)


def _task_box_bound(args):
    bound = theory.gaussian_box_bound(args.m, args.beta, args.eta, args.K, args.n)
    payload = {"m": args.m, "beta": args.beta, "eta": args.eta,
               "K": args.K, "n": args.n, "bound": bound}
    if args.samples:
        cov = theory.build_covariance(args.m, args.beta, args.eta)
        est = theory.mc_box_probability(cov, args.K / math.sqrt(args.n),
                                        args.samples, args.seed)
        payload["mc_estimate"] = est.estimate
        payload["mc_std_error"] = est.std_error
    return payload


def _task_expected_count(args):
    if args.hamming_delta is not None:
        if args.K is None:
            raise ParameterError("equidistant mode needs --K")
        return theory.expected_tuple_count_general(args.n, args.rows, args.m,
                                                   args.hamming_delta, args.K)
    if args.k is None or args.kappa is None:
        raise ParameterError("prefix mode needs --k and --kappa")
    value = theory.expected_xi_count(args.n, args.rows, args.k, args.m, args.kappa)
    return {"n": args.n, "rows": args.rows, "k": args.k, "m": args.m,
            "kappa": args.kappa, "expected_count": value}


def _task_experiment(args):
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
    p.set_defaults(task=_task_gen)

    p = sub.add_parser("disc", help="exact discrepancy of an instance")
    _add_instance_args(p)
    p.add_argument("--max-n", type=int)
    p.add_argument("--out")
    p.set_defaults(task=lambda a: exact_payload(a, _instance_from(a)))

    p = sub.add_parser("sbp", help="perceptron membership / solution count")
    _add_instance_args(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--sigma", help="check one sign vector, e.g. '+--+'")
    p.add_argument("--list", action="store_true", help="include the solutions")
    p.add_argument("--max-n", type=int)
    p.add_argument("--out")
    p.set_defaults(task=_task_sbp)

    p = sub.add_parser("online", help="run an online algorithm over a seed range")
    p.add_argument("--alg", choices=ALGORITHMS, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--disorder", choices=DISORDERS, default="rademacher")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seeds", required=True, help="inclusive range A..B")
    p.add_argument("--out")
    p.set_defaults(task=_task_online)

    p = sub.add_parser("landscape", help="solution-space geometry")
    modes = p.add_subparsers(dest="mode", required=True)

    q = modes.add_parser("histogram", help="pairwise-overlap histogram of a solution set")
    _add_instance_args(q)
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--bins", type=int, default=21)
    q.add_argument("--max-n", type=int)
    q.add_argument("--out")
    q.set_defaults(task=_task_histogram)

    q = modes.add_parser("xi-sbp", help="prefix-locked satisfying tuple search")
    _add_instance_args(q)
    q.add_argument("--k", type=int, required=True, help="resampled column count")
    q.add_argument("--m", type=int, default=2, help="tuple size")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--max-n", type=int)
    q.add_argument("--out")
    q.set_defaults(task=_task_xi_sbp)

    q = modes.add_parser("xi-disc", help="prefix-locked low-discrepancy tuple search")
    _add_instance_args(q)
    q.add_argument("--k", type=int, default=None, help="resampled columns (default rows)")
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--cu", type=float, default=1.0 / 24.0,
                   help="threshold coefficient, bound is cu*sqrt(M)")
    q.add_argument("--max-n", type=int)
    q.add_argument("--out")
    q.set_defaults(task=_task_xi_disc)

    q = modes.add_parser("ogp", help="overlap-window tuple search over an angle grid")
    q.add_argument("--rows", type=int, required=True)
    q.add_argument("--cols", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--K", type=float, required=True)
    q.add_argument("--grid", type=int, default=8, help="angle grid resolution Q")
    q.add_argument("--max-n", type=int)
    q.add_argument("--out")
    q.set_defaults(task=_task_ogp)

    q = modes.add_parser("stability", help="output distance on correlated pairs")
    q.add_argument("--alg", choices=ALGORITHMS, default="greedy")
    q.add_argument("--lambda", dest="lam", type=float, default=None)
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--rows", type=int, required=True)
    q.add_argument("--cols", type=int, required=True)
    q.add_argument("--threshold", type=float, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out")
    q.set_defaults(task=_task_stability)

    p = sub.add_parser("theory", help="closed-form exponents and bounds")
    topics = p.add_subparsers(dest="topic", required=True)

    q = topics.add_parser("alpha-c")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--out")
    q.set_defaults(task=lambda a: {"kappa": a.kappa, "alpha_c": theory.alpha_c(a.kappa)})

    q = topics.add_parser("psi-sbp")
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--out")
    q.set_defaults(task=lambda a: theory.psi_sbp(a.delta, a.m, a.alpha, a.kappa))

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
    q.set_defaults(task=lambda a: theory.psi_disc(
        a.m, a.beta, a.eta, a.c, a.n, a.rows, a.K, entropy_factor=a.entropy_factor))

    q = topics.add_parser("ogp-params")
    q.add_argument("--C1", type=float, required=True)
    q.add_argument("--c2", type=float, required=True)
    q.add_argument("--out")
    q.set_defaults(task=lambda a: theory.find_ogp_params(a.C1, a.c2))

    q = topics.add_parser("cov")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--eta-vec", type=_floats, default=(),
                   help="comma separated eta_ij values")
    q.add_argument("--out")
    q.set_defaults(task=lambda a: theory.covariance_analysis(
        theory.CovarianceSpec(a.m, a.beta, a.eta, a.eta_vec)))

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
    q.set_defaults(task=_task_box_bound)

    q = topics.add_parser("be-bound")
    q.add_argument("--length", type=float, required=True, help="interval length")
    q.add_argument("--rows", type=int, required=True, help="summand count M")
    q.add_argument("--p", type=float, default=None, help="Bernoulli mode")
    q.add_argument("--out")
    q.set_defaults(task=lambda a: {
        "interval_length": a.length, "rows": a.rows, "p": a.p,
        "bound": theory.berry_esseen_bound(a.length, a.rows, a.p)})

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
    q.set_defaults(task=_task_expected_count)

    q = topics.add_parser("stable-constants")
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--L", type=float, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(task=lambda a: theory.stable_constants(a.eta, a.L, a.m))

    p = sub.add_parser("experiment", help="run a declarative sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(task=_task_experiment)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.task(args)
        if result is not None:
            text = emit_report(result, args.out)
            if args.out is None:
                sys.stdout.write(text)
    except (ParameterError, CapacityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:      # a failed read is a ParameterError, so this is a write
        sys.stderr.write(f"error: cannot write {exc.filename or 'output'}: "
                         f"{exc.strerror or exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
