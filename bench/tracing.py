"""Spans around disclab's layer functions, for the traced run only.

``Tracer.install`` replaces each function named in ``TARGETS`` by a
timing wrapper, in its own module and in every loaded disclab module
that imported it by name, and ``uninstall`` puts the originals back.
Each call records its duration, its self time (the duration less the
time of the traced calls made inside it) and the work it did.  A name
that no longer exists is skipped, and the metrics built on it are
reported as absent.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np


def _blocks(args, kwargs, result):
    return int(np.broadcast(*args).size)


def _entries(args, kwargs, result):
    return int(result.entries.size)


def _resampled(args, kwargs, result):
    return sum(int(mem.entries.size) for mem in result[1:])


def _candidates(args, kwargs, result):
    return 1 << (args[0].cols - 1)


def _columns(args, kwargs, result):
    return int(args[1].cols)


def _trials(args, kwargs, result):
    return int(kwargs.get("trials", args[2] if len(args) > 2 else 0))


def _pairs(args, kwargs, result):
    s = len(args[0])
    return s * (s - 1) // 2


def _samples(args, kwargs, result):
    return int(kwargs.get("samples", args[2] if len(args) > 2 else 0))


def _seeds(args, kwargs, result):
    return len(result["tasks"])


def _bytes(args, kwargs, result):
    return len(result)


def _one(args, kwargs, result):
    return 1


def _online_key(args, kwargs):
    return f"online.{getattr(args[0], 'name', 'unknown')}"


# (module, function, span name or callable giving it, work per call)
TARGETS = [
    ("disclab.philox", "philox4x32", "philox", _blocks),
    ("disclab.instances", "generate", "instances", _entries),
    ("disclab.instances", "resample_suffix", "instances", _resampled),
    ("disclab.instances", "interpolate", "instances", _entries),
    ("disclab.discrepancy", "exact_discrepancy", "discrepancy.exact", _candidates),
    ("disclab.discrepancy", "enumerate_below", "discrepancy.enumerate", _candidates),
    ("disclab.online", "run_online", _online_key, _columns),
    ("disclab.landscape", "stability_probe", "landscape.stability", _trials),
    ("disclab.landscape", "search_xi_sbp", "landscape.xi", _one),
    ("disclab.landscape", "search_xi_disc", "landscape.xi", _one),
    ("disclab.landscape", "search_ogp_tuples", "landscape.ogp", _one),
    ("disclab.landscape", "overlap_histogram", "landscape.histogram", _pairs),
    ("disclab.theory", "mc_box_probability", "theory.mc", _samples),
    ("disclab.experiment", "run_experiment", "experiment", _seeds),
    ("disclab.reports", "emit_report", "reports", _bytes),
]


class Stat:
    __slots__ = ("calls", "time", "self_time", "work", "work_known")

    def __init__(self):
        self.calls, self.time, self.self_time, self.work = 0, 0.0, 0.0, 0
        self.work_known = True

    def as_dict(self):
        return {"calls": self.calls, "time_s": self.time, "self_s": self.self_time,
                "work": self.work if self.work_known else None}


class Tracer:
    """Per-span-name totals, and the raw spans of the first traced round."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.missing = []              # "module.function" names not found
        self.spans = []                # (name, parent, start, end) while recording
        self.recording = False
        self._stack = []               # [name, child time] of open spans
        self._patched = []             # (module, attribute, original)

    def _wrap(self, fn, name, work):
        tracer = self

        def traced(*args, **kwargs):
            key = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [key, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
            st = tracer.stats[key]
            st.calls += 1
            st.time += t1 - t0
            st.self_time += t1 - t0 - frame[1]
            try:
                st.work += work(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                st.work_known = False        # the function's signature changed
            if tracer.recording:
                tracer.spans.append((key, parent, t0, t1))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "disclab" or n.startswith("disclab."))]
        self.missing = []
        for mod_name, attr, name, work in TARGETS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, name, work)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched = []


def _rate(stat):
    if stat is None or not stat.work_known or stat.time <= 0:
        return None
    return stat.work / stat.time


def _mean(stat, attr):
    return getattr(stat, attr) / stat.calls if stat is not None else None


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metric values over ``rounds`` traced rounds.

    Counts are per round.  A value is None (absent) when no traced call
    reached the layer: its function no longer exists, or the workload
    does not use it.
    """
    get = tracer.stats.get
    philox = get("philox")
    exp = get("experiment")
    disc = [s for s in (get("discrepancy.exact"), get("discrepancy.enumerate")) if s]
    disc_known = disc and all(s.work_known for s in disc)
    return {
        "philox.blocks_per_s": _rate(philox),
        "philox.calls": philox.calls / rounds if philox else None,
        "instances.entries_per_s": _rate(get("instances")),
        "discrepancy.exact.candidates_per_s": _rate(get("discrepancy.exact")),
        "discrepancy.enumerate.candidates_per_s": _rate(get("discrepancy.enumerate")),
        "discrepancy.candidates": sum(s.work for s in disc) / rounds if disc_known else None,
        "online.greedy.columns_per_s": _rate(get("online.greedy")),
        "online.potential.columns_per_s": _rate(get("online.potential")),
        "online.random.columns_per_s": _rate(get("online.random")),
        "landscape.stability.trials_per_s": _rate(get("landscape.stability")),
        "landscape.xi.search_s": _mean(get("landscape.xi"), "time"),
        "landscape.ogp.self_s": _mean(get("landscape.ogp"), "self_time"),
        "landscape.histogram.pairs_per_s": _rate(get("landscape.histogram")),
        "theory.mc.samples_per_s": _rate(get("theory.mc")),
        "experiment.overhead_s": (exp.self_time / exp.work
                                  if exp and exp.work_known and exp.work else None),
        "reports.bytes_per_s": _rate(get("reports")),
    }


def import_times(stderr: str) -> tuple:
    """(disclab cumulative s, scipy part s) from ``-X importtime`` output.

    The scipy part is the cumulative time of every scipy module imported
    while no other scipy module was being imported.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, int(cum), name.strip()))
    total = next((c for d, c, n in entries if n == "disclab"), None)
    scipy = 0
    stack = []                         # pre-order walk: the log lists children first
    for depth, cum, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy += cum
        stack.append((depth, is_scipy))
    return (None if total is None else total / 1e6), scipy / 1e6
