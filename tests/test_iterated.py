"""Iterated propagation: traces produced by propagation are reusable, on
both engines, and stay consistent with fresh runs."""

import pytest

from sasm.corpus import Edit, apply_edits, gen_array_max, gen_list
from sasm.cost import cost_vector
from sasm.errors import Stuck
from sasm.fuzz import gen_edits, gen_program
from sasm.dps import dps_convert_program
from sasm.runtime import Runtime
from sasm.tracing import (canonical_result, canonicalize, non_garbage,
                          propagate, propagation_machine, run_from_scratch)


def test_propagate_twice_array_max():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)

    s_a = store.copy()
    apply_edits(s_a, labels, [Edit("arr", 2, 0)])
    t2 = propagate(bench.program, t1.trace, s_a.copy())
    assert bench.observe(t2.values, t2.store, labels) == 7

    # Second round: reuse the propagated trace over fresh cumulative edits.
    s_b = store.copy()
    apply_edits(s_b, labels, [Edit("arr", 2, 0), Edit("arr", 7, 99)])
    t3 = propagate(bench.program, t2.trace, s_b.copy())
    assert bench.observe(t3.values, t3.store, labels) == 99
    fresh = run_from_scratch(bench.program, non_garbage(s_b.copy()),
                             inputs=inputs)
    assert canonical_result(t3, s_b) == canonical_result(fresh, s_b)


def test_runtime_repeated_edit_batches_match_faithful_chain():
    bench = gen_list("sum", 16, seed=4)
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store.copy(), inputs=inputs)
    t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    trace = t.trace
    cumulative = store.copy()
    for round_no, edits in enumerate([
            [Edit("c1", 1, 100)],
            [Edit("c9", 1, -3), Edit("c2", 1, 0)],
            [Edit("c1", 1, 7)]]):
        apply_edits(cumulative, labels, edits)
        m = propagation_machine(bench.program, trace, cumulative.copy())
        t2 = m.run()
        fast = rt.propagate([e.resolve(labels) for e in edits])
        assert canonicalize(t2.values, t2.trace, t2.store, cumulative) == \
            canonicalize(fast.values, fast.trace, fast.store, cumulative), \
            round_no
        cv = cost_vector(t2.log)
        assert cv.tracing == (fast.eval_steps, fast.prop_equivalent,
                              fast.undo_steps), round_no
        trace = t2.trace
        assert bench.observe(t2.values, t2.store, labels) == \
            bench.oracle(cumulative, labels)


def _retained_cases():
    """array_max_b n=16 and fuzz seeds 0..39, each native and converted."""
    bench = gen_array_max(16, "b")
    cases = [("array_max_b", bench.program, bench.build(), bench.edit_slots)]
    for seed in range(40):
        case = gen_program(seed)
        cases.append((seed, case.program, case.build(), case.edit_slots))
    for name, prog, built, slots in cases:
        yield (name, "native"), prog, built, slots
        yield (name, "dps"), dps_convert_program(prog), built, slots


def test_retained_runtime_follows_the_faithful_chain_over_many_batches():
    fuel = 400000
    matches = 0
    for name, prog, (store, labels, inputs), slots in _retained_cases():
        rt = Runtime(prog, store.copy(), inputs=inputs, fuel=fuel)
        trace = run_from_scratch(prog, store.copy(), inputs=inputs,
                                 fuel=fuel).trace
        cumulative = store.copy()
        for batch in range(8):
            where = (name, batch)
            edits = gen_edits(batch, cumulative, labels, slots, 1)
            apply_edits(cumulative, labels, edits)
            changes = [e.resolve(labels) for e in edits]
            m = propagation_machine(prog, trace, cumulative.copy())
            try:
                t2 = m.run(fuel)
            except Stuck as exc:
                with pytest.raises(Stuck) as fast_exc:
                    rt.propagate(changes)
                assert type(fast_exc.value) is type(exc), where
                assert fast_exc.value.family == exc.family, where
                break
            fast = rt.propagate(changes)
            assert canonicalize(t2.values, t2.trace, t2.store, cumulative) \
                == canonicalize(fast.values, fast.trace, fast.store,
                                cumulative), where
            assert cost_vector(t2.log).tracing == (
                fast.eval_steps, fast.prop_equivalent, fast.undo_steps), where
            assert t2.log.count("P.E") == len(fast.reevaluated), where
            assert t2.log.count("E.P") == fast.matches, where
            matches += fast.matches
            trace = t2.trace
    assert matches  # the chain went through memo matches


def test_fuzzed_iterated_propagation_consistency():
    for seed in range(40):
        case = gen_program(seed)
        prog = dps_convert_program(case.program)
        store, labels, inputs = case.build()
        t = run_from_scratch(prog, store.copy(), inputs=inputs, fuel=400000)
        cumulative = store.copy()
        trace = t.trace
        for round_no in range(2):
            edits = gen_edits(seed * 10 + round_no, cumulative, labels,
                              case.edit_slots, 1)
            apply_edits(cumulative, labels, edits)
            t2 = propagate(prog, trace, cumulative.copy(), fuel=400000)
            fresh = run_from_scratch(prog, non_garbage(cumulative.copy()),
                                     inputs=inputs, fuel=400000)
            assert canonical_result(t2, cumulative) == \
                canonical_result(fresh, cumulative), (seed, round_no)
            trace = t2.trace
