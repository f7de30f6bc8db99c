"""The workloads of the sasm benchmark and the metrics computed from them.

Every workload is a closed loop with one caller in one thread: the next
operation starts only after the previous one has been checked.  Two loops
keep one retained `Runtime` per round and push single-cell edit batches
through `Runtime.propagate`; the third runs the from-scratch check battery
and never calls `Runtime.propagate`.  Every operation's output is compared
with `Benchmark.oracle`, which recomputes the expected observable on the
host without any engine.

A run repeats a fixed round (retained workloads: builds, then a fixed number
of batches through one Runtime; scratch_check: one battery pass) until its
time is up, so a faster engine runs more rounds rather than different ones.
A traced run alternates untraced and traced rounds: the traced ones give the
per-layer figures, and the difference between the two kinds is the tracing
overhead.  Between timed operations a speed gauge (calibrate.py) probes the
machine, and the end-to-end metrics scale every sample by it; the per-layer
figures are unscaled.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

from sasm import ilast
from sasm.analyses import live_vars, region_no_update
from sasm.corpus import (OP, Benchmark, Edit, apply_edits, deref_result,
                         gen_array_max, gen_exptrees, gen_list, gen_sort,
                         random_tree)
from sasm.cost import check_dps_overhead, cost_vector, max_pop_arity
from sasm.dps import (dps_convert_program, dps_selective,
                      extensionally_preserved)
from sasm.errors import DEFAULT_FUEL
from sasm.fuzz import gen_edits
from sasm.parser import parse_program, tokenize
from sasm.printer import print_program
from sasm.refmachine import ref_run
from sasm.runtime import Runtime
from sasm.store import Store
from sasm.tracing import (canonicalize, non_garbage, propagation_machine,
                          run_from_scratch)
from sasm.wf import check_wf

from calibrate import Gauge
from spans import Spans

clock = time.perf_counter

SMALL_EDITS = 4        # cells a script edits at the self-tests' sizes
SMALL_CYCLES = 2       # script plays per round at the self-tests' sizes
CHECK_EDITS = 4        # seeded edits per check program; every pass does all

END_TO_END = {
    "setup_s": "s",
    "build_ms": "ms",
    "prop_ms_p50": "ms",
    "prop_ms_p90": "ms",
    "batches_per_s": "1/s",
    "pass_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "parser.ms": "ms",
    "parser.tokens_per_s": "1/s",
    "wf.ms": "ms",
    "analyses.ms": "ms",
    "dps.ms": "ms",
    "dps.size_ratio": "ratio",
    "refmachine.ms": "ms",
    "refmachine.steps": "count",
    "refmachine.us_per_step": "us",
    "cost.ms": "ms",
    "tracing.scratch_ms": "ms",
    "tracing.prop_ms": "ms",
    "tracing.prop_steps": "count",
    "tracing.prop_realized": "count",
    "tracing.canon_ms": "ms",
    "runtime.build_ms": "ms",
    "runtime.propagate_ms_p50": "ms",
    "runtime.materialize_ms_p50": "ms",
    "runtime.core_ms_p50": "ms",
    "runtime.observe_ms_p50": "ms",
    "runtime.us_per_realized_step": "us",
    "runtime.useful_ratio": "ratio",
    "runtime.om_relabels": "count",
    "runtime.realized_per_batch": "count",
    "runtime.eval_steps_per_batch": "count",
    "runtime.undo_steps_per_batch": "count",
    "runtime.reevaluated_per_batch": "count",
    "runtime.skipped_per_batch": "count",
    "runtime.matches_per_batch": "count",
    "runtime.trace_nodes": "count",
    "runtime.state_growth_per_batch": "count",
    "store.garbage_ids": "count",
    "gc.pause_ms": "ms",
    "gc.collections": "count",
    "tracing_overhead.prop_ms_p50": "ms",
    "tracing_overhead.pass_ms_p50": "ms",
}


# -- calls into sasm ----------------------------------------------------------

# Every sasm entry point the workloads call, by attribute name, with the span
# name it gets in a traced round.  The prefix before the first dot is the
# layer: a module of src/sasm.
CALLS: dict[str, tuple[str, Callable]] = {
    "parse_program": ("parser.parse_program", parse_program),
    "check_wf": ("wf.check_wf", check_wf),
    "live_vars": ("analyses.live_vars", live_vars),
    "region_no_update": ("analyses.region_no_update", region_no_update),
    "dps_convert_program": ("dps.dps_convert_program", dps_convert_program),
    "dps_selective": ("dps.dps_selective", dps_selective),
    "extensionally_preserved": ("dps.extensionally_preserved",
                                extensionally_preserved),
    "ref_run": ("refmachine.ref_run", ref_run),
    "cost_vector": ("cost.cost_vector", cost_vector),
    "max_pop_arity": ("cost.max_pop_arity", max_pop_arity),
    "check_dps_overhead": ("cost.check_dps_overhead", check_dps_overhead),
    "run_from_scratch": ("tracing.run_from_scratch", run_from_scratch),
    "propagation_machine": ("tracing.propagation_machine",
                            propagation_machine),
    "machine_run": ("tracing.TracingMachine.run", lambda m: m.run(DEFAULT_FUEL)),
    "canonicalize": ("tracing.canonicalize", canonicalize),
    "non_garbage": ("tracing.non_garbage", non_garbage),
    "Runtime": ("runtime.Runtime", Runtime),
    "propagate": ("runtime.Runtime.propagate",
                  lambda rt, edits: rt.propagate(edits)),
    "copy": ("store.Store.copy", Store.copy),
    "generate": ("corpus.generate", lambda make: make()),
    "deref_result": ("corpus.deref_result", deref_result),
    "observe": ("corpus.Benchmark.observe",
                lambda bench, values, store, labels:
                bench.observe(values, store, labels)),
    "oracle": ("corpus.Benchmark.oracle",
               lambda bench, store, labels: bench.oracle(store, labels)),
    "gen_edits": ("fuzz.gen_edits", gen_edits),
}

# Runtime methods wrapped on the class during traced rounds, so their spans
# nest under Runtime.propagate and show how much of it is materialization.
MATERIALIZERS = ("result", "flat_trace", "build_store", "build_trace")


class Api:
    """The calls in CALLS, each recording a span when a Spans log is given."""

    def __init__(self, spans: Spans | None = None):
        for attr, (name, fn) in CALLS.items():
            setattr(self, attr, spans.wrap(name, fn) if spans else fn)


@contextmanager
def materialization_spans(spans: Spans):
    saved = {name: getattr(Runtime, name) for name in MATERIALIZERS}
    for name, fn in saved.items():
        setattr(Runtime, name, spans.wrap(f"runtime.Runtime.{name}", fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(Runtime, name, fn)


class GcWatch:
    """Collector pauses and collections while active, via gc.callbacks."""

    def __init__(self):
        self.pause = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = clock()
        else:
            self.pause += clock() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


# -- what a run records ---------------------------------------------------------


@dataclass
class Samples:
    """Wall-time samples from untraced or from traced rounds, keyed by the
    operation they time.  A sample is a tuple of segments (start, seconds);
    most samples are one segment, and a scratch_check pass has one per
    program.  Rounds repeat their operations identically, so a key's
    samples time the same work: once scaled to the reference speed, their
    lower quartile is that work's cost with little interference from the
    machine."""

    build: dict = field(default_factory=dict)   # program -> builds
    batch: dict = field(default_factory=dict)   # edit batch -> batches
    pass_: dict = field(default_factory=dict)   # loop iteration -> passes

    @staticmethod
    def add(into: dict, key, *segments: tuple[float, float]) -> None:
        into.setdefault(key, []).append(segments)


@dataclass
class Report:
    """Everything one run measured."""

    setup_s: list[tuple[float, float]] = field(default_factory=list)
    plain: Samples = field(default_factory=Samples)
    traced: Samples = field(default_factory=Samples)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    census: list[dict] = field(default_factory=list)
    spans: Spans | None = None
    gc_pause: float = 0.0
    gc_collections: int = 0
    traced_passes: int = 0
    size_ratio: float = 0.0
    gauge: Gauge = field(default_factory=Gauge)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _keep_going(done: int, start: float, seconds: float,
                min_rounds: int) -> bool:
    return done < min_rounds or clock() - start < seconds


def _maybe_span(spans: Spans | None, name: str):
    return spans.span(name) if spans is not None else nullcontext()


def stratum(slots: list, i: int, strata: int) -> list:
    """Stratum i % strata of the slots, cut into equal consecutive parts (a
    stratum repeats when there are fewer slots than strata)."""
    strata = min(strata, len(slots))
    k = i % strata
    return slots[k * len(slots) // strata:(k + 1) * len(slots) // strata]


def edit_script(api: Api, seed: int, store: Store, labels: dict,
                slots: list, cells: int) -> list:
    """`cells` batches of one single-cell edit each, then one batch per cell
    writing its original value back, in the same order.  Batch i's cell is
    drawn by fuzz.gen_edits from stratum i of the slots, so every script
    spreads its edits evenly over the input whatever the seed: on list_map
    the cost of an edit falls with its position.  A script leaves the input
    as it found it, so it can be played again and again over one Runtime,
    and every batch of every play changes its cell."""
    rng = random.Random(seed)
    forward = [api.gen_edits(rng.randrange(1 << 30), store, labels,
                             stratum(slots, i, cells), 1)
               for i in range(cells)]
    back = [[Edit(e.label, e.offset, store.peek(labels[e.label], e.offset))
             for e in edits] for edits in forward]
    return forward + back


# -- retained workloads -----------------------------------------------------------


@dataclass
class RetainedSpec:
    make: Callable[[int], Benchmark]
    n: int
    small_n: int
    cells: int   # cells the edit script edits; it has 2 * cells batches
    cycles: int  # plays of the script over the one Runtime of a round


# A round's Runtime sees cycles * 2 * cells batches: on list_map that is long
# enough for the retained state's growth (385-400 census entries a batch)
# to show in peak_rss_mb.
RETAINED = {
    "array_max_retained": RetainedSpec(lambda n: gen_array_max(n, "b"),
                                       1024, 64, 32, 2),
    "list_map_retained": RetainedSpec(lambda n: gen_list("map", n, 3),
                                      256, 32, 8, 3),
}


@dataclass
class RetainedCase:
    bench: Benchmark
    store: Store
    labels: dict
    inputs: dict
    script: list
    cycles: int


def setup_retained(api: Api, spec: RetainedSpec, n: int, seed: int,
                   cells: int, cycles: int) -> RetainedCase:
    bench = api.generate(lambda: spec.make(n))
    store, labels, inputs = bench.build()
    script = edit_script(api, seed, store, labels, bench.edit_slots, cells)
    return RetainedCase(bench, store, labels, inputs, script, cycles)


def census(rt: Runtime) -> dict[str, int]:
    """The retained state that can grow with the number of edits seen."""
    c = {
        "histories": len(rt.histories),
        "enclosing": len(rt.enclosing),
        "memo_entries": sum(len(v) for v in rt.memo_index.values()),
        "entry_removals": len(rt.entry_removals),
        "garbage": len(rt.base.garbage),
    }
    c["total"] = sum(c.values())
    return c


def trace_nodes(rt: Runtime) -> int:
    n, node = 0, rt.head.next
    while node is not rt.tail:
        n += 1
        node = node.next
    return n


def _build(api: Api, case: RetainedCase, samples: Samples,
           gauge: Gauge) -> Runtime:
    store = case.store.copy()
    gauge.tick()
    t0 = clock()
    rt = api.Runtime(case.bench.program, store, inputs=case.inputs)
    samples.add(samples.build, 0, (t0, clock() - t0))
    return rt


def _retained_round(api: Api, case: RetainedCase, rep: Report,
                    samples: Samples, spans: Spans | None) -> int:
    """Build, then play the edit script `cycles` times through one Runtime;
    returns the number of batches done."""
    first = not rep.census
    rt = _build(api, case, samples, rep.gauge)
    host = case.store.copy()
    start = census(rt)
    relabels = rt.om.relabels
    done = 0
    res = None
    for i, edits in enumerate(case.script * case.cycles):
        if i and i % len(case.script) == 0:
            # One more build sample before each later play, so the samples
            # spread over the round; this Runtime is dropped.
            _build(api, case, samples, rep.gauge)
        i %= len(case.script)
        rep.gauge.tick()
        t_pass = clock()
        with _maybe_span(spans, "pass"):
            apply_edits(host, case.labels, edits)
            changes = [e.resolve(case.labels) for e in edits]
            try:
                t0 = clock()
                res = api.propagate(rt, changes)
                got = api.observe(case.bench, res.values, res.store,
                                  case.labels)
                t1 = clock()
                want = api.oracle(case.bench, host, case.labels)
            except Exception as exc:  # a failed batch ends the round
                rep.attempted += 1
                rep.fail(f"batch {done}: {_error(exc)}")
                break
            rep.attempted += 1
            if got != want:
                rep.fail(f"batch {done}: observed {got!r}, oracle {want!r}")
        samples.add(samples.batch, i, (t0, t1 - t0))
        samples.add(samples.pass_, i, (t_pass, clock() - t_pass))
        done += 1
        rep.count("batches", 1)
        rep.count("realized", res.realized)
        rep.count("eval_steps", res.eval_steps)
        rep.count("undo_steps", res.undo_steps)
        rep.count("reevaluated", len(res.reevaluated))
        rep.count("skipped", res.skipped)
        rep.count("matches", res.matches)
    end = census(rt)
    rep.census.append({"start": start, "end": end, "batches": done})
    if done:
        rep.counts["state_growth_per_batch"] = (
            (end["total"] - start["total"]) / done)
        rep.counts["om_relabels_per_batch"] = (rt.om.relabels - relabels) / done
    rep.counts["trace_nodes"] = trace_nodes(rt)
    rep.counts["garbage_ids"] = len(rt.base.garbage)
    if first and res is not None and done == len(case.script) * case.cycles:
        # The retained result after all the batches equals a fresh run on
        # the same input, up to allocation renaming.
        try:
            fresh = api.run_from_scratch(case.bench.program,
                                         api.non_garbage(host.copy()),
                                         inputs=case.inputs)
            rep.check(api.canonicalize(res.values, res.trace, res.store, host)
                      == api.canonicalize(fresh.values, fresh.trace,
                                          fresh.store, host),
                      "retained result differs from a fresh run")
        except Exception as exc:
            rep.attempted += 1
            rep.fail(f"fresh-run check: {_error(exc)}")
    return done


# -- scratch_check ----------------------------------------------------------------


@dataclass
class CheckItem:
    """One program of the check set, with its generated inputs."""

    bench: Benchmark
    text: str
    builder_text: str
    tokens: int
    store: Store
    labels: dict
    inputs: dict
    edited: list[Store]  # the input under each of its CHECK_EDITS edits


def check_set(small: bool) -> list[tuple[Callable[[], Benchmark], list]]:
    """The programs of scratch_check, each with the slots its one edit may
    hit (None: the benchmark's own edit slots).  The tree's only labelled
    node is its root, so its edit rewrites the root's operator."""
    arr, lst, odd, srt, depth = (16, 16, 15, 8, 4) if small else (
        128, 128, 127, 32, 8)
    return [
        (lambda: gen_array_max(arr, "a"), None),
        (lambda: gen_array_max(arr, "b"), None),
        (lambda: gen_array_max(arr, "c"), None),
        (lambda: gen_list("sum", lst, 1), None),
        (lambda: gen_list("minimum", lst, 2), None),
        (lambda: gen_list("map", odd, 3), None),
        (lambda: gen_list("filter", odd, 4), None),
        (lambda: gen_list("reverse", odd, 5), None),
        (lambda: gen_sort("quicksort", srt, 6), None),
        (lambda: gen_sort("mergesort", srt, 7), None),
        (lambda: gen_exptrees(random_tree(random.Random(11), depth)),
         [("root", OP)]),
    ]


def setup_check(api: Api, seed: int, small: bool) -> list[CheckItem]:
    rng = random.Random(seed)
    items = []
    for make, slots in check_set(small):
        bench = api.generate(make)
        text = print_program(bench.program)
        builder_text = print_program(bench.builder)
        tokens = len(tokenize(text)) + len(tokenize(builder_text))
        store, labels, inputs = bench.build()
        slots = bench.edit_slots if slots is None else slots
        edited = []
        for i in range(CHECK_EDITS):
            edits = api.gen_edits(rng.randrange(1 << 30), store, labels,
                                  stratum(slots, i, CHECK_EDITS), 1)
            edited.append(store.copy())
            apply_edits(edited[-1], labels, edits)
        items.append(CheckItem(bench, text, builder_text, tokens, store,
                               labels, inputs, edited))
    return items


@dataclass
class BatteryResult:
    failed: list[str]
    batches: list[tuple[float, float]]  # (start, seconds), one per edit
    build: tuple[float, float]
    collect_s: float  # the collection before the build, not part of it
    ref_steps: int
    prop_steps: int
    prop_realized: int
    program: ilast.Program
    converted: ilast.Program


def _observable(api: Api, it: CheckItem, converted: bool, values, store):
    if converted:  # a converted run returns its destination location
        values = api.deref_result(values, store, it.bench.program.arity)
    return api.observe(it.bench, values, store, it.labels)


def battery(api: Api, it: CheckItem, gauge: Gauge) -> BatteryResult:
    """The `sasm check` battery on one program, plus the oracle, propagating
    each of the program's edits in turn.  The gauge probes before each
    timed step, so that every one has probes close by."""
    failed: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failed.append(what)

    prog = api.parse_program(it.text)
    api.parse_program(it.builder_text)
    check(not api.check_wf(prog), "well-formed")
    api.live_vars(prog)
    api.region_no_update(prog)
    conv = api.dps_convert_program(prog)
    api.dps_selective(prog)
    r = api.ref_run(prog, api.copy(it.store), inputs=it.inputs)
    rd = api.ref_run(conv, api.copy(it.store), inputs=it.inputs)
    cv_ref = api.cost_vector(r.log)
    api.cost_vector(rd.log)
    api.check_dps_overhead(r.log, rd.log, api.max_pop_arity(prog))
    check(api.extensionally_preserved(r, rd, prog.arity, it.store),
          "dps-extensional")
    check(_observable(api, it, False, r.values, r.store)
          == api.oracle(it.bench, it.store, it.labels), "oracle-reference")
    t = api.run_from_scratch(prog, api.copy(it.store), inputs=it.inputs)
    cv_t = api.cost_vector(t.log)
    check((cv_ref.steps, cv_ref.store, cv_ref.stack)
          == (cv_t.steps, cv_t.store, cv_t.stack), "cost-equivalence")
    check(api.canonicalize(r.values, None, r.store, it.store)
          == api.canonicalize(t.values, None, t.store, it.store),
          "reference-vs-tracing")
    # Propagation consistency is theorem-backed for CSA programs, so the
    # others propagate their DPS conversion, as `sasm check` does.
    target = prog if it.bench.native_csa else conv
    base = t if target is prog else api.run_from_scratch(
        conv, api.copy(it.store), inputs=it.inputs)
    batches = []
    prop_steps = prop_realized = 0
    for e, edited in enumerate(it.edited):
        store = api.copy(edited)
        gauge.tick()
        t0 = clock()
        m = api.propagation_machine(target, base.trace, store)
        t2 = api.machine_run(m)
        got = _observable(api, it, target is conv, t2.values, t2.store)
        batches.append((t0, clock() - t0))
        fresh = api.run_from_scratch(target,
                                     api.non_garbage(api.copy(edited)),
                                     inputs=it.inputs)
        check(api.canonicalize(t2.values, t2.trace, t2.store, edited)
              == api.canonicalize(fresh.values, fresh.trace, fresh.store,
                                  edited), f"propagation-vs-fresh edit {e}")
        check(got == api.oracle(it.bench, edited, it.labels),
              f"oracle-propagation edit {e}")
        prop_steps += len(t2.log)
        prop_realized += sum(1 for tag in t2.log if tag[0] in "EU")
    store = api.copy(it.store)
    # The build starts from the same collector state whatever the seed's
    # edits left behind, so its pauses fall at the same places every time.
    t0 = clock()
    gc.collect()
    collect_s = clock() - t0
    gauge.tick()
    t0 = clock()
    api.Runtime(target, store, inputs=it.inputs)
    build = (t0, clock() - t0)
    return BatteryResult(failed, batches, build, collect_s,
                         r.steps + rd.steps, prop_steps, prop_realized, prog,
                         conv)


def _check_pass(api: Api, items: list[CheckItem], rep: Report,
                samples: Samples, spans: Spans | None) -> int:
    """One battery pass over the check set; returns 1, the passes done.
    The pass is timed in one segment per program, its battery without the
    gauge's probes and the collection before the build, so that its time
    is the sum of each battery's."""
    segments = []
    last = []
    with _maybe_span(spans, "pass"):
        for k, it in enumerate(items):
            rep.gauge.tick()
            probing = rep.gauge.spent
            t0 = clock()
            try:
                res = battery(api, it, rep.gauge)
            except Exception as exc:
                rep.attempted += 1
                rep.fail(f"{it.bench.name}: {_error(exc)}")
                continue
            segments.append((t0, clock() - t0 - res.collect_s
                             - (rep.gauge.spent - probing)))
            rep.check(not res.failed, f"{it.bench.name}: {res.failed}")
            for e, batch in enumerate(res.batches):
                samples.add(samples.batch, (k, e), batch)
            samples.add(samples.build, k, res.build)
            rep.count("ref_steps", res.ref_steps)
            rep.count("prop_steps", res.prop_steps)
            rep.count("prop_realized", res.prop_realized)
            last.append((res.program, res.converted))
    samples.add(samples.pass_, 0, *segments)
    rep.count("passes", 1)
    rep.count("tokens", sum(it.tokens for it in items))
    if not rep.size_ratio and last:
        nodes = sum(sum(1 for _ in ilast.walk_program(p)) for p, _ in last)
        conv = sum(sum(1 for _ in ilast.walk_program(c)) for _, c in last)
        rep.size_ratio = conv / nodes
    return 1


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> Report:
    """Repeat set-up plus one round until `seconds` have passed.  Setting up
    before every round spreads the set-up samples over the run.  In a traced
    run every second round is traced."""
    if workload == "scratch_check":
        def setup(api):
            return setup_check(api, seed, small)
        play = _check_pass
    else:
        spec = RETAINED[workload]
        n = spec.small_n if small else spec.n
        cells = SMALL_EDITS if small else spec.cells
        cycles = SMALL_CYCLES if small else spec.cycles

        def setup(api):
            return setup_retained(api, spec, n, seed, cells, cycles)
        play = _retained_round
    rep = Report()
    spans = Spans() if trace else None
    plain = Api()
    start = clock()
    done = 0
    while _keep_going(done, start, seconds, 2 if trace else 1):
        traced = spans is not None and done % 2 == 1
        api = Api(spans) if traced else plain
        # Full collections outside any timing: set-up does not pay for the
        # last round's cyclic garbage, and every round starts from the same
        # collector state, so a round's pauses recur at the same batches.
        gc.collect()
        rep.gauge.tick()
        with _maybe_span(spans if traced else None, "setup"):
            t0 = clock()
            case = setup(api)
            rep.setup_s.append((t0, clock() - t0))
        gc.collect()
        if traced:
            with materialization_spans(spans), GcWatch() as watch:
                rep.traced_passes += play(api, case, rep, rep.traced, spans)
            rep.gc_pause += watch.pause
            rep.gc_collections += watch.collections
        else:
            play(api, case, rep, rep.plain, None)
        del case
        done += 1
    rep.spans = spans
    return rep


# -- metrics -----------------------------------------------------------------------


def quantile(xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; 0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _unscaled(start: float, seconds: float) -> float:
    return 1.0


def end_to_end(rep: Report, samples: Samples | None = None,
               scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics.  Each segment is first scaled to the
    reference speed by the run's gauge (unless `scaled` is false).  Each
    distinct operation, and each segment of it, then takes the lower
    quartile of its scaled times; setup_s is the median over set-ups."""
    s = samples if samples is not None else rep.plain
    scale = rep.gauge.scale if scaled else _unscaled

    def cost(timed: dict) -> list[float]:
        return [sum(quantile([sec * scale(t, sec) for t, sec in segment],
                             0.25)
                    for segment in zip(*v))
                for v in timed.values()]

    batches = cost(s.batch)
    return {
        "setup_s": _median([sec * scale(t, sec)
                            for t, sec in rep.setup_s]),
        "build_ms": sum(cost(s.build)) * 1e3,
        "prop_ms_p50": _median(batches) * 1e3,
        "prop_ms_p90": quantile(batches, 0.9) * 1e3,
        "batches_per_s": len(batches) / sum(batches) if batches else 0.0,
        "pass_ms_p50": _median(cost(s.pass_)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(rep: Report) -> dict[str, float]:
    """The per-layer metrics of a traced run: time per pass in each layer,
    from the spans under traced passes; medians of the Runtime spans; the
    exact counts; and the tracing overhead."""
    spans = rep.spans
    assert spans is not None, "per-layer metrics need a traced run"
    recs = spans.records
    roots = spans.roots()
    passes = sum(1 for r in recs if r[0] == "pass")
    layer_s: dict[str, float] = {}
    name_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    materialize = [0.0] * len(recs)
    for i, (name, start, end, parent) in enumerate(recs):
        dur = end - start
        durations.setdefault(name, []).append(dur)
        if name == "runtime.Runtime.result" and parent >= 0:
            materialize[parent] += dur
        if recs[roots[i]][0] != "pass":
            continue
        name_s[name] = name_s.get(name, 0.0) + dur
        layer = name.split(".", 1)[0]
        if parent < 0 or recs[parent][0].split(".", 1)[0] != layer:
            layer_s[layer] = layer_s.get(layer, 0.0) + dur

    def per_pass_ms(seconds: float) -> float:
        return _ratio(seconds, passes) * 1e3

    def names_ms(*names: str) -> float:
        return per_pass_ms(sum(name_s.get(n, 0.0) for n in names))

    c = rep.counts
    batches = c.get("batches", 0)
    n_passes = c.get("passes", 0)
    propagate = durations.get("runtime.Runtime.propagate", [])
    core = [end - start - materialize[i] for i, (name, start, end, _)
            in enumerate(recs) if name == "runtime.Runtime.propagate"]
    ref_ms = per_pass_ms(layer_s.get("refmachine", 0.0))
    ref_steps = _ratio(c.get("ref_steps", 0), n_passes)
    parser_ms = per_pass_ms(layer_s.get("parser", 0.0))
    reeval, skipped = c.get("reevaluated", 0), c.get("skipped", 0)
    plain = end_to_end(rep, rep.plain, scaled=False)
    traced = end_to_end(rep, rep.traced, scaled=False)
    return {
        "parser.ms": parser_ms,
        "parser.tokens_per_s": _ratio(_ratio(c.get("tokens", 0), n_passes),
                                      parser_ms / 1e3),
        "wf.ms": per_pass_ms(layer_s.get("wf", 0.0)),
        "analyses.ms": per_pass_ms(layer_s.get("analyses", 0.0)),
        "dps.ms": per_pass_ms(layer_s.get("dps", 0.0)),
        "dps.size_ratio": rep.size_ratio,
        "refmachine.ms": ref_ms,
        "refmachine.steps": ref_steps,
        "refmachine.us_per_step": _ratio(ref_ms * 1e3, ref_steps),
        "cost.ms": per_pass_ms(layer_s.get("cost", 0.0)),
        "tracing.scratch_ms": names_ms("tracing.run_from_scratch"),
        "tracing.prop_ms": names_ms("tracing.propagation_machine",
                                    "tracing.TracingMachine.run"),
        "tracing.prop_steps": _ratio(c.get("prop_steps", 0), n_passes),
        "tracing.prop_realized": _ratio(c.get("prop_realized", 0), n_passes),
        "tracing.canon_ms": names_ms("tracing.canonicalize"),
        "runtime.build_ms": traced["build_ms"],
        "runtime.propagate_ms_p50": _median(propagate) * 1e3,
        "runtime.materialize_ms_p50": (
            _median(durations.get("runtime.Runtime.result", [])) * 1e3),
        "runtime.core_ms_p50": _median(core) * 1e3,
        "runtime.observe_ms_p50": (
            _median(durations.get("corpus.Benchmark.observe", [])) * 1e3
            if propagate else 0.0),
        "runtime.us_per_realized_step": _ratio(
            sum(propagate) * 1e6,
            _ratio(c.get("realized", 0), batches) * len(propagate)),
        "runtime.useful_ratio": _ratio(reeval, reeval + skipped),
        "runtime.om_relabels": c.get("om_relabels_per_batch", 0),
        "runtime.realized_per_batch": _ratio(c.get("realized", 0), batches),
        "runtime.eval_steps_per_batch": _ratio(c.get("eval_steps", 0), batches),
        "runtime.undo_steps_per_batch": _ratio(c.get("undo_steps", 0), batches),
        "runtime.reevaluated_per_batch": _ratio(reeval, batches),
        "runtime.skipped_per_batch": _ratio(skipped, batches),
        "runtime.matches_per_batch": _ratio(c.get("matches", 0), batches),
        "runtime.trace_nodes": c.get("trace_nodes", 0),
        "runtime.state_growth_per_batch": c.get("state_growth_per_batch", 0),
        "store.garbage_ids": c.get("garbage_ids", 0),
        "gc.pause_ms": _ratio(rep.gc_pause * 1e3, rep.traced_passes),
        "gc.collections": _ratio(rep.gc_collections, rep.traced_passes),
        "tracing_overhead.prop_ms_p50": (traced["prop_ms_p50"]
                                         - plain["prop_ms_p50"]),
        "tracing_overhead.pass_ms_p50": (traced["pass_ms_p50"]
                                         - plain["pass_ms_p50"]),
    }
