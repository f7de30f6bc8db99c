"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Every tolerance and time budget is pinned here.
"""

import random
import time

from sasm.corpus import (Edit, apply_edits, corpus_benchmarks, deref_result,
                         exptrees_fixture, gen_array_max, gen_list)
from sasm.cost import check_dps_overhead, cost_vector, max_pop_arity
from sasm.dps import dps_convert_program, extensionally_preserved
from sasm.fuzz import gen_edits, gen_program
from sasm.refmachine import ref_run
from sasm.runtime import OrderMaintenance, Runtime
from sasm.store import Loc
from sasm.trace import (Blocked, PUSH_MARK, PropMark, TPop, TPush, TRead,
                        TWrite, TraceZipper, UndoMark, from_list,
                        last_action, rewind_step, to_list)
from sasm.tracing import (canonical_result, canonicalize,
                          check_garbage_unreachable, non_garbage,
                          propagate, propagation_machine, run_from_scratch)

from machine_checks import checked_run, scratch_machine
from om_oracle import NaiveOrder, key_order
from trace_checks import check_okay

FUZZ_FUEL = 400_000


def _report(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"PASS criterion {num}: {label} ({elapsed:.1f}s)")
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_1_golden_values():
    t0 = time.time()
    bench = exptrees_fixture()
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    assert t1.values == (6,)
    dp = dps_convert_program(bench.program)
    d1 = run_from_scratch(dp, store.copy(), inputs=inputs)
    assert deref_result(d1.values, d1.store, 1) == (6,)
    s2 = store.copy()
    apply_edits(s2, labels, bench.fixture_edits["lower"])
    d2 = propagate(dp, d1.trace, s2.copy())
    assert deref_result(d2.values, d2.store, 1) == (11,)

    am = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    astore, alabels, ainputs = am.build()
    a1 = run_from_scratch(am.program, astore.copy(), inputs=ainputs)
    assert am.observe(a1.values, a1.store, alabels) == 9
    a2s = astore.copy()
    apply_edits(a2s, alabels, [Edit("arr", 2, 0)])
    a2 = propagate(am.program, a1.trace, a2s.copy())
    assert am.observe(a2.values, a2.store, alabels) == 7
    _report(1, "exptrees 6 / propagated 11; array_max 9 / edited 7",
            t0, budget=4.0)


def test_criterion_2_from_scratch_consistency():
    t0 = time.time()
    checked = 0
    for bench in corpus_benchmarks():
        store, labels, inputs = bench.build()
        r = ref_run(bench.program, store.copy(), inputs=inputs)
        t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        assert canonicalize(r.values, None, r.store, store) == \
            canonicalize(t.values, None, t.store, store), bench.name
        checked += 1
    for seed in range(1000):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        r = ref_run(case.program, store.copy(), inputs=inputs, fuel=FUZZ_FUEL)
        t = run_from_scratch(case.program, store.copy(), inputs=inputs,
                             fuel=FUZZ_FUEL)
        assert canonicalize(r.values, None, r.store, store) == \
            canonicalize(t.values, None, t.store, store), seed
        checked += 1
    _report(2, f"tracing == reference from scratch on {checked} programs",
            t0, budget=60.0)


def test_criterion_3_general_consistency():
    t0 = time.time()
    checked = 0
    for bench in corpus_benchmarks():
        prog = dps_convert_program(bench.program)
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
        s2 = store.copy()
        if bench.edit_slots:
            apply_edits(s2, labels,
                        gen_edits(101, s2, labels, bench.edit_slots, 2))
        elif bench.fixture_edits:
            apply_edits(s2, labels, bench.fixture_edits["lower"])
        t2 = propagate(prog, t1.trace, s2.copy())
        fresh = run_from_scratch(prog, non_garbage(s2.copy()), inputs=inputs)
        assert canonical_result(t2, s2) == canonical_result(fresh, s2), \
            bench.name
        assert check_garbage_unreachable(t2), bench.name
        checked += 1
    for seed in range(200):
        case = gen_program(seed)
        prog = dps_convert_program(case.program)
        store, labels, inputs = case.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs,
                              fuel=FUZZ_FUEL)
        s2 = store.copy()
        apply_edits(s2, labels,
                    gen_edits(seed + 999, s2, labels, case.edit_slots, 2))
        t2 = propagate(prog, t1.trace, s2.copy(), fuel=FUZZ_FUEL)
        fresh = run_from_scratch(prog, non_garbage(s2.copy()), inputs=inputs,
                                 fuel=FUZZ_FUEL)
        assert canonical_result(t2, s2) == canonical_result(fresh, s2), seed
        assert check_garbage_unreachable(t2), seed
        checked += 1
    _report(3, f"propagate == fresh run (values, store, trace) on {checked} "
               f"pairs, garbage unreachable", t0, budget=120.0)


def test_criterion_4_dps_extensional_preservation():
    t0 = time.time()
    checked = 0
    for bench in corpus_benchmarks():
        store, labels, inputs = bench.build()
        r1 = ref_run(bench.program, store.copy(), inputs=inputs)
        dp = dps_convert_program(bench.program)
        r2 = ref_run(dp, store.copy(), inputs=inputs)
        assert extensionally_preserved(r1, r2, bench.program.arity, store), \
            bench.name
        checked += 1
    for seed in range(400):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        r1 = ref_run(case.program, store.copy(), inputs=inputs,
                     fuel=FUZZ_FUEL)
        dp = dps_convert_program(case.program)
        r2 = ref_run(dp, store.copy(), inputs=inputs, fuel=FUZZ_FUEL)
        assert extensionally_preserved(r1, r2, case.program.arity, store), \
            seed
        checked += 1
    _report(4, f"converted runs return destinations holding the original "
               f"values on {checked} programs", t0, budget=60.0)


def test_criterion_5_cost_theorems():
    t0 = time.time()
    checked = 0
    for bench in corpus_benchmarks():
        store, labels, inputs = bench.build()
        r = ref_run(bench.program, store.copy(), inputs=inputs)
        t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        cv_r, cv_t = cost_vector(r.log), cost_vector(t.log)
        assert (cv_r.steps, cv_r.store, cv_r.stack) == \
            (cv_t.steps, cv_t.store, cv_t.stack), bench.name
        dp = dps_convert_program(bench.program)
        rd = ref_run(dp, store.copy(), inputs=inputs)
        rep = check_dps_overhead(r.log, rd.log, max_pop_arity(bench.program))
        assert rep.alloc_delta == rep.pushes, bench.name
        checked += 1
    for seed in range(1000):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        r = ref_run(case.program, store.copy(), inputs=inputs, fuel=FUZZ_FUEL)
        t = run_from_scratch(case.program, store.copy(), inputs=inputs,
                             fuel=FUZZ_FUEL)
        cv_r, cv_t = cost_vector(r.log), cost_vector(t.log)
        assert (cv_r.steps, cv_r.store, cv_r.stack) == \
            (cv_t.steps, cv_t.store, cv_t.stack), seed
        dp = dps_convert_program(case.program)
        rd = ref_run(dp, store.copy(), inputs=inputs, fuel=FUZZ_FUEL)
        rep = check_dps_overhead(r.log, rd.log, max_pop_arity(case.program))
        assert rep.alloc_delta == rep.pushes, seed
        checked += 1
    _report(5, f"M_s/M_sigma/M_kappa equal between machines and DPS bounds "
               f"hold on {checked} programs", t0, budget=120.0)


def test_criterion_6_speedup_property():
    t0 = time.time()
    realizedium = {}
    scratch_steps = {}
    for n in (64, 256, 1024):
        bench = gen_array_max(n, "b")
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        scratch_steps[n] = t1.steps
        s2 = store.copy()
        cur = s2.read(labels["arr"], 3)
        apply_edits(s2, labels, [Edit("arr", 3, cur + 1000)])
        t2 = propagate(bench.program, t1.trace, s2.copy())
        assert bench.observe(t2.values, t2.store, labels) == \
            bench.oracle(s2, labels)
        realized = cost_vector(t2.log).realized
        realizedium[n] = realized
    assert realizedium[256] <= 2.5 * realizedium[64]
    assert realizedium[1024] <= 2.5 * realizedium[256]
    assert scratch_steps[256] >= 3 * scratch_steps[64]
    assert scratch_steps[1024] >= 3 * scratch_steps[256]

    bench = gen_list("sum", 1024, seed=9)
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    s2 = store.copy()
    cur = s2.read(labels["c511"], 1)
    apply_edits(s2, labels, [Edit("c511", 1, cur + 17)])
    t2 = propagate(bench.program, t1.trace, s2.copy())
    assert bench.observe(t2.values, t2.store, labels) == \
        bench.oracle(s2, labels)
    realized = cost_vector(t2.log).realized
    assert realized <= 0.10 * t1.steps, (realized, t1.steps)
    _report(6, f"array_max realized {realizedium} vs M_s {scratch_steps}; "
               f"list-sum realized {realized} <= 10% of {t1.steps}",
            t0, budget=30.0)


def test_criterion_7_fast_engine_equivalence():
    t0 = time.time()
    checked = 0

    def compare(prog, store, labels, inputs, edits, key):
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs,
                              fuel=FUZZ_FUEL)
        rt = Runtime(prog, store.copy(), inputs=inputs, fuel=FUZZ_FUEL)
        assert canonicalize(t1.values, t1.trace, t1.store, store) == \
            canonicalize(rt.final_values(), rt.build_trace(),
                         rt.build_store(), store), key
        s2 = store.copy()
        apply_edits(s2, labels, edits)
        m = propagation_machine(prog, t1.trace, s2.copy())
        t2 = m.run(FUZZ_FUEL)
        fast = rt.propagate([e.resolve(labels) for e in edits],
                            fuel=FUZZ_FUEL)
        assert canonicalize(t2.values, t2.trace, t2.store, s2) == \
            canonicalize(fast.values, fast.trace, fast.store, s2), key
        cv = cost_vector(t2.log)
        assert cv.tracing == (fast.eval_steps, fast.prop_equivalent,
                              fast.undo_steps), key
        assert t2.log.count("P.E") == len(fast.reevaluated), key

    for bench in corpus_benchmarks():
        store, labels, inputs = bench.build()
        edits = (gen_edits(5, store, labels, bench.edit_slots, 2)
                 if bench.edit_slots else
                 bench.fixture_edits.get("lower", []))
        prog = (bench.program if bench.native_csa
                else dps_convert_program(bench.program))
        compare(prog, store, labels, inputs, edits, bench.name)
        checked += 1
    for seed in range(200):
        case = gen_program(seed)
        prog = dps_convert_program(case.program)
        store, labels, inputs = case.build()
        edits = gen_edits(seed + 31, store, labels, case.edit_slots, 2)
        compare(prog, store, labels, inputs, edits, seed)
        checked += 1

    om = OrderMaintenance()
    rng = random.Random(7)
    oracle = NaiveOrder(om.origin())
    for _ in range(100_000):
        h = rng.choice(oracle)
        new = om.insert_after(h)
        oracle.insert_after(h, new)
    for _ in range(5000):
        a, b = rng.choice(oracle), rng.choice(oracle)
        want = (oracle.index(a) > oracle.index(b)) - (
            oracle.index(a) < oracle.index(b))
        assert key_order(om, a, b) == want
    order = oracle.order()
    for a, b in zip(order, order[1:]):
        assert key_order(om, a, b) == -1
    _report(7, f"fast engine == faithful machine on {checked} pairs "
               f"(observables, step classes, dirty sets); order maintenance "
               f"agrees with the naive oracle over 1e5 ops", t0, budget=120.0)


def test_criterion_8_rewinding_and_zipper_suite():
    t0 = time.time()
    L = Loc(1)
    READ, WRITE, POP = TRead(7, L, 1), TWrite(3, L, 2), TPop((5,))

    # The three rewinding cases.
    z, g = rewind_step(TraceZipper((READ, None), None), None)
    assert z.ctx is None and to_list(g) == [READ]
    saved = from_list([WRITE])
    z, g = rewind_step(TraceZipper((UndoMark(saved), None), None), None)
    assert z.focus is saved and g is None
    z, g = rewind_step(
        TraceZipper((UndoMark(saved), None), from_list([READ])), None)
    assert isinstance(z.focus[0], TPush) and z.focus[1] is saved

    # Blocking at the push and propagation marks and the empty context.
    assert rewind_step(TraceZipper((PUSH_MARK, None), None), None) == \
        Blocked("push")
    assert rewind_step(TraceZipper((PropMark(None), None), None), None) == \
        Blocked("prop")
    assert rewind_step(TraceZipper(None, None), None) == Blocked("none")

    # Okay-preservation under rewinding, on a genuine trace.
    bench = exptrees_fixture()
    store, labels, inputs = bench.build()
    t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    suffixes = set()

    def collect(tr):
        while tr is not None:
            suffixes.add(id(tr))
            head, tr = tr
            if isinstance(head, TPush):
                collect(head.sub)

    collect(t.trace)
    oracle = lambda tr: tr is None or id(tr) in suffixes
    chain = t.trace
    while not isinstance(chain[0], TPush):
        chain = chain[1]
    z = TraceZipper((UndoMark(chain[1]), None), chain[0].sub)
    assert check_okay(z, oracle)
    g = None
    while True:
        r = rewind_step(z, g)
        if isinstance(r, Blocked):
            break
        z, g = r
        assert check_okay(z, oracle)

    # Stack parametricity, instrumented through a propagation run.
    am = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "c")
    astore, alabels, ainputs = am.build()
    a1 = checked_run(scratch_machine(am.program, astore.copy(), ainputs))
    s2 = astore.copy()
    apply_edits(s2, alabels, [Edit("arr", 2, 0)])
    m = propagation_machine(am.program, a1.result.trace, s2)
    assert not checked_run(m).marks

    # last(T) = result vector over every generated trace.
    count = 0
    for bench in corpus_benchmarks():
        bstore, blabels, binputs = bench.build()
        tb = run_from_scratch(bench.program, bstore, inputs=binputs)
        assert last_action(tb.trace) == TPop(tb.values), bench.name
        count += 1
    for seed in range(300):
        case = gen_program(seed)
        fstore, flabels, finputs = case.build()
        tf = run_from_scratch(case.program, fstore, inputs=finputs,
                              fuel=FUZZ_FUEL)
        assert last_action(tf.trace) == TPop(tf.values), seed
        count += 1
    _report(8, f"rewind cases, blocking, okay-preservation, stack "
               f"parametricity, last(T)=values over {count} traces",
            t0, budget=30.0)
