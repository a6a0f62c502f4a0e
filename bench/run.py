"""disclab benchmark: README commands run in-process, timed and checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {exact,online,landscape} --seed N \
        --seconds S --trace {0,1}

The run builds one round of the workload's commands from the seed (see
workloads.py), runs one untimed warm-up round, then repeats whole rounds
for S seconds, each command through ``disclab.cli.main(argv)``.  Set-up
probes (a fresh interpreter importing disclab and building the inputs)
are spread through those S seconds.  Afterwards every distinct output is
checked against reference.py, and every repeat of a command must write
the same bytes as its first run.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics.

With ``--trace 0`` the metrics are the end-to-end ones: setup_s,
tasks_per_s, task_p50_s, task_tail_s (the percentile in
workloads.TAIL_PERCENTILE) and peak_rss_mb.  With ``--trace 1`` rounds
alternate between traced and untraced, spans wrap disclab's layer
functions in the traced ones (see tracing.py), and the metrics are the
per-layer ones, the import times from ``python -X importtime`` and the
tracing overhead.  Layers the workload does not reach are then measured
on one traced round of the other two workloads.  The spans are also
written to .bench_out/trace-<workload>-s<seed>.json.

The command exits with code 2, printing no result, when the checkout
has no src/disclab to measure.
"""

import os

# BLAS with one thread, here and in every process started from here
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PROBES = 5               # set-up (or import-time) launches per run
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_s": "s",
                    "task_tail_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "import.disclab_s": "s", "import.scipy_s": "s",
    "philox.blocks_per_s": "1/s", "philox.calls": "count",
    "instances.entries_per_s": "1/s",
    "discrepancy.exact.candidates_per_s": "1/s",
    "discrepancy.enumerate.candidates_per_s": "1/s",
    "discrepancy.candidates": "count",
    "online.greedy.columns_per_s": "1/s", "online.potential.columns_per_s": "1/s",
    "online.random.columns_per_s": "1/s", "landscape.stability.trials_per_s": "1/s",
    "landscape.xi.search_s": "s", "landscape.ogp.self_s": "s",
    "landscape.histogram.pairs_per_s": "1/s", "theory.mc.samples_per_s": "1/s",
    "experiment.overhead_s": "s", "reports.bytes_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class Run:
    """Counters and outputs of one benchmark run."""

    def __init__(self, tasks, cli_main):
        self.tasks = tasks
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.first = {}          # task index -> output bytes of its first success
        self.errors = []

    def task(self, i):
        """Run task i once; return its wall time, or None if it failed."""
        task = self.tasks[i]
        for path in task.outputs:
            Path(path).unlink(missing_ok=True)
        sink = io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli_main(task.argv)
        except SystemExit as exc:          # argparse rejected the command line
            code = exc.code
        except Exception as exc:           # one failed command must not end the run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            print(f"task {task.label} failed: {code}", file=sys.stderr)
            return None
        try:
            blobs = [Path(p).read_bytes() for p in task.outputs]
        except OSError as exc:
            self.errors.append(f"{task.label}: output missing ({exc})")
            return elapsed
        if self.first.setdefault(i, blobs) != blobs:
            self.errors.append(f"{task.label}: output differs from its first run")
        return elapsed

    def round(self):
        """Run every task once; return [(label, seconds)] of the successes."""
        times = []
        for i, task in enumerate(self.tasks):
            elapsed = self.task(i)
            if elapsed is not None:
                times.append((task.label, elapsed))
        return times

    def check(self):
        for i, task in enumerate(self.tasks):
            if i in self.first:
                self.errors += checks.check(task, self.first[i])


def setup_probe(workload, seed, scratch):
    """Seconds from launching a fresh interpreter to disclab imported and
    the workload's inputs built."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                           str(seed), str(scratch / "probe")],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def import_probe():
    """(disclab, scipy) cumulative import seconds of one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import disclab"],
                          capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    return tracing.import_times(proc.stderr)


def timed_phase(run, seconds, min_tasks, probe, tracer=None):
    """Whole rounds for ``seconds`` (and at least ``min_tasks`` tasks),
    with PROBES probe launches spread evenly through them.  With a tracer,
    odd rounds are traced.  Returns (rounds, probe results); each round is
    (traced, [(label, seconds)])."""
    due = [seconds * (k + 0.5) / PROBES for k in range(PROBES)]
    rounds, probes = [], []
    timed = 0
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if due and elapsed >= due[0]:
            due.pop(0)
            probes.append(probe())
            continue
        if elapsed >= seconds and timed >= min_tasks:
            break
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.recording = not tracer.spans
            tracer.install()
        try:
            times = run.round()
        finally:
            if traced:
                tracer.uninstall()
                tracer.recording = False
        rounds.append((traced, times))
        timed += len(times)
    probes += [probe() for _ in due]
    return rounds, probes


def end_to_end(rounds, probes, tail):
    times = [t for _, rt in rounds for _, t in rt]
    return {
        "setup_s": statistics.median(probes),
        "tasks_per_s": len(times) / sum(times),
        "task_p50_s": statistics.median(times),
        "task_tail_s": statistics.quantiles(times, n=100, method="inclusive")[tail - 1],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds, probes, tracer):
    traced = [sum(t for _, t in rt) for tr, rt in rounds if tr]
    plain = [sum(t for _, t in rt) for tr, rt in rounds if not tr]
    values = tracing.layer_metrics(tracer, len(traced))
    disclab_s = [d for d, _ in probes if d is not None]
    values["import.disclab_s"] = statistics.median(disclab_s) if disclab_s else None
    values["import.scipy_s"] = statistics.median(s for _, s in probes)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return values


def fill_unreached(values, workload, seed, scratch, cli_main):
    """Measure the layers this workload's round does not reach on one
    traced round of the other workloads (after an untraced warm-up), so
    that every layer whose function exists has a value.  Returns the Run
    of those extra rounds, for its counts and checks."""
    others = [w for w in workloads.WORKLOADS if w != workload]
    run = Run([t for w in others
               for t in workloads.build_round(w, seed, str(scratch / w))], cli_main)
    run.round()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.round()
    finally:
        tracer.uninstall()
    for name, value in tracing.layer_metrics(tracer, 1).items():
        if values[name] is None:
            values[name] = value
    return run


def summary(rounds):
    by_label = {}
    for _, rt in rounds:
        for label, t in rt:
            by_label.setdefault(label, []).append(t)
    lines = [f"{len(rounds)} timed rounds, {sum(len(v) for v in by_label.values())} tasks"]
    for label, ts in by_label.items():
        lines.append(f"  {label:28s} n={len(ts):4d}  median {statistics.median(ts):.4f} s")
    return "\n".join(lines)


def write_trace(path, workload, seed, rounds, tracer):
    spans = tracer.spans
    t0 = spans[0][2] if spans else 0.0
    doc = {"workload": workload, "seed": seed,
           "traced_rounds": sum(1 for tr, _ in rounds if tr),
           "missing": tracer.missing,
           "stats": {k: v.as_dict() for k, v in sorted(tracer.stats.items())},
           "first_round_spans": [{"name": n, "parent": p, "start_s": a - t0, "end_s": b - t0}
                                 for n, p, a, b in spans]}
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "disclab" / "__init__.py").is_file():
        print(f"error: no disclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import disclab.cli

    if Path(disclab.cli.__file__).resolve().parent != SRC / "disclab":
        print(f"error: imported disclab from {disclab.cli.__file__}", file=sys.stderr)
        return 2

    scratch = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        run = Run(workloads.build_round(args.workload, args.seed, str(scratch / "round")),
                  disclab.cli.main)
        run.round()                                    # warm-up, untimed
        min_tasks = workloads.tail_min_tasks(args.workload)
        if args.trace:
            tracer = tracing.Tracer()
            rounds, probes = timed_phase(run, args.seconds, min_tasks,
                                         import_probe, tracer)
            values = per_layer(rounds, probes, tracer)
            units = LAYER_UNITS
            write_trace(OUT / f"trace-{args.workload}-s{args.seed}.json", args.workload,
                        args.seed, rounds, tracer)
            extra = fill_unreached(values, args.workload, args.seed, scratch,
                                   disclab.cli.main)
            extra.check()
            run.attempted += extra.attempted
            run.failed += extra.failed
            run.errors += extra.errors
        else:
            rounds, probes = timed_phase(
                run, args.seconds, min_tasks,
                lambda: setup_probe(args.workload, args.seed, scratch))
            values = end_to_end(rounds, probes, workloads.TAIL_PERCENTILE[args.workload])
            units = END_TO_END_UNITS
        run.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(summary(rounds))
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        if values[name] is None:
            metrics[name]["absent"] = True
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
