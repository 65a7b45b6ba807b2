"""Shared pieces of the benchmark: inputs, timing, calibration, tracing, output.

Everything here is benchmark code.  It reaches the program under test only
through the public names of :mod:`repro` that each workload module imports.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
#: scratch space inside the checkout (trace files, saved KB files)
OUT = HERE.parent / ".bench_out"

# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def fact_line(fact) -> str:
    """A fact as ``P(a, b)`` text, formatted here rather than by the program."""
    return f"{fact.predicate.name}({', '.join(arg.name for arg in fact.args)})"


def facts_digest(facts: Iterable) -> str:
    """SHA-256 of the sorted fact lines: the reference digest format."""
    text = "\n".join(sorted(fact_line(fact) for fact in facts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def predicates_of(tgds) -> list:
    """The predicates of a set of TGDs, in name order."""
    seen = {}
    for tgd in tgds:
        for atom in tuple(tgd.body) + tuple(tgd.head):
            seen[(atom.predicate.name, atom.predicate.arity)] = atom.predicate
    return [seen[key] for key in sorted(seen)]


def random_facts(
    tgds,
    count: int,
    constants: Sequence[str],
    rng: random.Random,
    skew: float = 1.1,
) -> List:
    """``count`` distinct random base facts over the predicates of ``tgds``.

    Predicates are drawn with Zipf weights of exponent ``skew`` over a
    seeded shuffle (a few predicates carry most facts; ``skew=0`` draws
    them uniformly); arguments are drawn uniformly from ``constants``.
    """
    from repro import Atom, Constant

    predicates = predicates_of(tgds)
    rng.shuffle(predicates)
    weights = [1.0 / rank**skew for rank in range(1, len(predicates) + 1)]
    terms = [Constant(name) for name in constants]
    facts: Dict[object, None] = {}
    attempts = 0
    while len(facts) < count and attempts < count * 50:
        attempts += 1
        predicate = rng.choices(predicates, weights=weights)[0]
        args = tuple(rng.choice(terms) for _ in range(predicate.arity))
        facts.setdefault(Atom(predicate, args), None)
    return list(facts)


def check_instance(tgds, rng: random.Random) -> List:
    """The small base instance a compile op's rewriting is checked on."""
    return random_facts(tgds, 16, [f"k{index}" for index in range(8)], rng)


def knowledge_base_sigma():
    """The GTGDs of the serve and cold_answer knowledge base."""
    from repro import parse_tgds

    return parse_tgds((DATA / "kb_sigma.gtgd").read_text(encoding="utf-8"))


def parse_point_query(text: str) -> Tuple[str, Tuple[str, ...]]:
    """``"P(a, ?y)"`` -> ``("P", ("a", "?y"))`` for the one-atom queries."""
    name, _, rest = text.partition("(")
    return name.strip(), tuple(arg.strip() for arg in rest.rstrip(")").split(","))


def reference_answers(index: Dict[tuple, List[Tuple[str, ...]]], text: str) -> frozenset:
    """Answers of a one-atom query over reference facts from :func:`index_facts`.

    Answer tuples list the query's variables in order of first occurrence,
    as the program's conjunctive queries do.
    """
    name, args = parse_point_query(text)
    variables: List[str] = []
    for arg in args:
        if arg.startswith("?") and arg not in variables:
            variables.append(arg)
    first = args[0] if args and not args[0].startswith("?") else None
    answers = set()
    for row in index.get((name, first), ()):
        binding: Dict[str, str] = {}
        for arg, value in zip(args, row):
            if arg.startswith("?"):
                if binding.setdefault(arg, value) != value:
                    break
            elif arg != value:
                break
        else:
            answers.add(tuple(binding[variable] for variable in variables))
    return frozenset(answers)


def index_facts(facts: Iterable) -> Dict[tuple, List[Tuple[str, ...]]]:
    """Reference facts as rows keyed by predicate name, and by predicate
    name and first argument."""
    index: Dict[tuple, List[Tuple[str, ...]]] = {}
    for fact in facts:
        row = tuple(arg.name for arg in fact.args)
        index.setdefault((fact.predicate.name, None), []).append(row)
        if row:
            index.setdefault((fact.predicate.name, row[0]), []).append(row)
    return index


def answers_key(answers: Iterable) -> str:
    """Canonical text of an answer set (rows of terms or of term strings).

    A string, so keeping one per op adds nothing for the collector to scan
    while the program is being timed.  Every row is kept, the empty one
    too, so a true yes/no answer ``{()}`` and a false one ``{}`` differ.
    """
    return json.dumps(sorted([getattr(term, "name", term) for term in row] for row in answers))


# ----------------------------------------------------------------------
# host-drift calibration
# ----------------------------------------------------------------------

#: iterations of the calibration loop (a few milliseconds of CPU)
CALIBRATION_LOOPS = 40_000
#: thread-CPU seconds the loop took on the reference host (the 2-core
#: x86-64 container the benchmark was tuned on, median of many samples);
#: a host factor of 1.5 means the host currently runs 1.5x slower
REFERENCE_CALIBRATION_SECONDS = 0.0040


def calibrate() -> float:
    """Host slowness now, relative to the reference host.

    Times a fixed loop that touches nothing but one small dict, with the
    collector off, on the thread's CPU clock.  Run it only in quiescent
    gaps — between ops, or with no request in flight.
    """
    table: Dict[int, int] = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for index in range(CALIBRATION_LOOPS):
            key = index & 31
            table[key] = table.get(key, 0) + index
        elapsed = time.thread_time() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed / REFERENCE_CALIBRATION_SECONDS


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float], pct: float) -> Tuple[float, float]:
    """``(percentile, value)`` at the workload's tail percentile.

    Each workload fixes its tail percentile: the highest of p90 / p99 /
    p99.9 that leaves at least ten samples beyond it in its shortest
    expected run.  A fixed percentile means the same thing on every run;
    one chosen per run would move with throughput, so a faster program
    would be judged at a higher percentile.  A run too short for it falls
    back to the highest percentile that still has ten samples beyond.
    """
    count = len(values)
    while pct > 50.0 and count - math.ceil(pct / 100.0 * count) < 10:
        pct = {99.9: 99.0, 99.0: 90.0}.get(pct, 50.0)
    return pct, percentile(values, pct / 100.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Drift:
    """Host factors sampled in quiescent gaps, in time order.

    An op's factor is the mean of the samples just before and just after
    it.  The host's speed moves within a second, so wider windows (medians
    over several neighbouring samples) made the serve spreads worse.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> int:
        """Calibrate now; returns the sample's index."""
        self.samples.append(calibrate())
        return len(self.samples) - 1

    def factor(self, first: int, last: int) -> float:
        """The host factor for work done between samples ``first`` and ``last``."""
        return (self.samples[first] + self.samples[last]) / 2.0

    def summary(self) -> Dict[str, float]:
        return {
            "median": statistics.median(self.samples),
            "min": min(self.samples),
            "max": max(self.samples),
            "samples": len(self.samples),
        }


class Timings:
    """Per-op wall times, each with the calibration samples around it."""

    def __init__(self, drift: Drift) -> None:
        self.drift = drift
        self.raw: Dict[str, List[Tuple[float, int, int]]] = {}

    def add(self, kind: str, seconds: float, first: int, last: int) -> None:
        self.raw.setdefault(kind, []).append((seconds, first, last))

    def values(self, *kinds: str, normalized: bool = False) -> List[float]:
        out: List[float] = []
        for kind in kinds or tuple(self.raw):
            for seconds, first, last in self.raw.get(kind, ()):
                out.append(seconds / self.drift.factor(first, last) if normalized else seconds)
        return out


#: set-ups per run; setup_s is their median
SETUPS = 5


class SetupTimer:
    """Times repeated set-ups; reports the median (raw and host-normalized)."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.normalized: List[float] = []

    @contextmanager
    def measure(self):
        gc.collect()
        before = statistics.median(calibrate() for _ in range(3))
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        after = statistics.median(calibrate() for _ in range(3))
        factor = (before + after) / 2.0
        self.raw.append(elapsed)
        self.normalized.append(elapsed / factor)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


class Span:
    """One recorded span; ``child_wall`` and ``child_cpu`` sum its direct
    children, so its self time is its own time minus theirs."""

    __slots__ = (
        "name", "start", "end", "cpu", "parent", "request", "thread", "child_wall", "child_cpu"
    )

    def __init__(self, name, start, parent, request, thread) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.cpu = 0.0
        self.parent = parent
        self.request = request
        self.thread = thread
        self.child_wall = 0.0
        self.child_cpu = 0.0


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span has a name (its layer), start and end (``perf_counter``), its
    thread-CPU time, a parent span on the same thread, and a request id.
    Self time is a span's time minus its children's.  ``enabled`` toggles
    recording, so one run can interleave traced and untraced segments and
    measure the tracer's own overhead.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: object = None):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), parent, request, threading.get_ident())
        if request is None and parent is not None:
            record.request = parent.request
        cpu_start = time.thread_time()
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record.cpu = time.thread_time() - cpu_start
            record.end = time.perf_counter()
            if parent is not None:
                parent.child_wall += record.end - record.start
                parent.child_cpu += record.cpu
            with self._lock:
                self.spans.append(record)

    def record(self, name: str, start: float, end: float, request: object = None) -> None:
        """Add a finished root span measured by the caller (async code)."""
        if not self.enabled:
            return
        record = Span(name, start, None, request, threading.get_ident())
        record.end = end
        with self._lock:
            self.spans.append(record)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self wall seconds, self CPU seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "self_cpu_s": 0.0}
            )
            wall = span.end - span.start
            row["calls"] += 1
            row["wall_s"] += wall
            row["self_s"] += wall - span.child_wall
            row["self_cpu_s"] += span.cpu - span.child_cpu
        return table

    def mean_ms(self, name: str, self_time: bool = True) -> float:
        row = self.layers().get(name)
        if not row or not row["calls"]:
            return 0.0
        return 1000.0 * row["self_s" if self_time else "wall_s"] / row["calls"]

    def dump(self, path: Path) -> None:
        index = {id(span): number for number, span in enumerate(self.spans)}
        rows = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "cpu": span.cpu,
                "parent": index.get(id(span.parent)) if span.parent is not None else None,
                "request": span.request,
                "thread": span.thread,
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def account(result: Result, layers: dict, roots: Sequence[str]) -> None:
    """Self time of each layer under the root spans, plus the remainder."""
    root_wall = sum(layers[name]["wall_s"] for name in roots if name in layers)
    table = {
        name: round(row["self_s"], 6)
        for name, row in layers.items()
        if name not in roots
    }
    unattributed = sum(layers[name]["self_s"] for name in roots if name in layers)
    table["unattributed"] = round(unattributed, 6)
    result.report["account"] = {
        "unit": "s of wall time in traced root spans " + "+".join(roots),
        "root_wall_s": round(root_wall, 6),
        "layers_self_s": table,
        "sum_s": round(sum(table.values()), 6),
    }
    result.metric("unattributed.share", unattributed / root_wall if root_wall else 0.0, "ratio")


def trace_overhead(result: "Result", drift: Drift, paired, ops: Sequence[float]) -> None:
    """Tracing overhead from paired runs of one op: ``paired`` holds
    (traced minus untraced seconds, first sample, last sample).  Reports
    the median host-normalized difference, and that as a share of the
    median normalized op."""
    if not paired:
        return
    diff = statistics.median(seconds / drift.factor(a, b) for seconds, a, b in paired)
    base = statistics.median(ops)
    result.metric("trace.overhead_ms", 1000.0 * diff, "ms")
    result.metric("trace.overhead_share", diff / base if base else 0.0, "ratio")


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------


class Result:
    """Collects ops and metrics and prints the one-line JSON result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.report: Dict[str, object] = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def emit(self, trace: bool) -> None:
        """Print the report line, then the result line with exactly the
        metrics ``BENCHMARK.json`` lists for this mode.

        A traced run reports every per-layer metric, zero where the
        workload never enters that layer; an end-to-end metric a workload
        failed to measure is an error.
        """
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics: Dict[str, Dict[str, object]] = {}
        for entry in spec["per_layer" if trace else "end_to_end"]:
            name = entry["name"]
            if name in self.metrics:
                metrics[name] = self.metrics[name]
            elif trace:
                metrics[name] = {"value": 0.0, "unit": entry["unit"]}
            else:
                raise RuntimeError(f"end-to-end metric {name} was not measured")
        extra = sorted(set(self.metrics) - set(metrics))
        if extra:
            self.report["unlisted_metrics"] = {name: self.metrics[name]["value"] for name in extra}
        self.report["failures"] = self.failures
        print(json.dumps({"report": self.report}, sort_keys=True))
        correct = self.attempted > 0 and self.failed == 0
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": metrics,
                }
            )
        )


def end_to_end(
    result: Result,
    workload: str,
    ops: Timings,
    query: Timings,
    update: Timings,
    setup: SetupTimer,
    tail_pct: float,
    busy: Optional[Callable[[bool], float]] = None,
) -> None:
    """The end-to-end timing metrics, each raw or host-normalized.

    ``busy(normalized)`` is the time the ops kept the program busy (by
    default the sum of op times).  Both versions of every metric go to the
    report line; the result takes the one ``design.json`` chose for the
    workload (``normalized``), a choice made per metric from repeated
    runs: normalized only where that made the spread smaller.
    """
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    chosen = set(design["normalized"].get(workload, ()))
    if busy is None:
        busy = lambda normalized: sum(ops.values(normalized=normalized))  # noqa: E731
    versions = {}
    for normalized in (False, True):
        values = ops.values(normalized=normalized)
        pct, tail_value = tail(values, tail_pct)
        versions[normalized] = {
            "setup_s": (percentile(setup.normalized if normalized else setup.raw, 0.5), "s"),
            "ops_per_s": (len(values) / busy(normalized), "1/s"),
            "op_ms.p50": (1000.0 * percentile(values, 0.5), "ms"),
            "op_ms.tail": (1000.0 * tail_value, "ms"),
            "query_ms.p50": (1000.0 * percentile(query.values(normalized=normalized), 0.5), "ms"),
            "update_ms.p50": (1000.0 * percentile(update.values(normalized=normalized), 0.5), "ms"),
        }
    for name, (value, unit) in versions[False].items():
        if name in chosen:
            value = versions[True][name][0]
        result.metric(name, value, unit)
    result.report["op_ms.tail"] = {"percentile": pct, "samples": len(values)}
    result.report["raw"] = {name: value for name, (value, _) in versions[False].items()}
    result.report["normalized"] = {name: value for name, (value, _) in versions[True].items()}
    result.report["normalized_metrics"] = sorted(chosen & set(versions[False]))
