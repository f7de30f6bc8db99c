"""Cost models: folds, machine equivalences, conversion overhead bounds."""

import random

import pytest

from sasm.corpus import apply_edits, exptrees_fixture, gen_list
from sasm.cost import (ALL_TAGS, BoundViolated, CostVector, UnknownTag,
                       check_dps_overhead, cost_vector, max_pop_arity)
from sasm.dps import dps_convert_program
from sasm.fuzz import gen_edits, gen_program
from sasm.parser import parse_program
from sasm.refmachine import ref_run
from sasm.tracing import propagate, run_from_scratch

from cost_folds import (M_STACK, M_STEPS, M_STORE, M_TRACING, cost_apply,
                        cost_of_run)


def test_stack_model_push_from_zero():
    assert cost_apply(M_STACK, "R.9", (0, 0, 0, 0)) == (1, 0, 1, 1)
    assert cost_apply(M_STACK, "E.6", (2, 1, 1, 3)) == (3, 1, 2, 3)


def test_stack_model_pop_charged_at_frame_application():
    assert cost_apply(M_STACK, "R.11", (1, 0, 1, 1)) == (1, 1, 0, 1)
    # The pop expression itself does not touch the stack.
    assert cost_apply(M_STACK, "R.10", (1, 0, 1, 1)) == (1, 0, 1, 1)
    assert cost_apply(M_STACK, "E.7", (1, 0, 1, 1)) == (1, 0, 1, 1)


def test_store_model_nostore_on_memo():
    assert cost_apply(M_STORE, "R.7", (2, 3, 4)) == (2, 3, 4)


def test_tracing_model_undo():
    assert cost_apply(M_TRACING, "U.2", (5, 3, 0)) == (5, 3, 1)


def test_unknown_tag_rejected():
    with pytest.raises(UnknownTag):
        cost_apply(M_STEPS, "Q.1", 0)


def test_empty_log_is_zero():
    cv = cost_vector([])
    assert (cv.steps, cv.store, cv.stack, cv.tracing) == (
        0, (0, 0, 0), (0, 0, 0, 0), (0, 0, 0))
    assert cv.realized == 0


def test_from_scratch_cost_equivalence_corpus(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        r = ref_run(bench.program, store.copy(), inputs=inputs)
        t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        cv_r, cv_t = cost_vector(r.log), cost_vector(t.log)
        assert cv_r.steps == cv_t.steps, bench.name
        assert cv_r.store == cv_t.store, bench.name
        assert cv_r.stack == cv_t.stack, bench.name


def test_from_scratch_cost_equivalence_fuzz():
    for seed in range(150):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        r = ref_run(case.program, store.copy(), inputs=inputs, fuel=200000)
        t = run_from_scratch(case.program, store.copy(), inputs=inputs,
                             fuel=200000)
        cv_r, cv_t = cost_vector(r.log), cost_vector(t.log)
        assert (cv_r.steps, cv_r.store, cv_r.stack) == (
            cv_t.steps, cv_t.store, cv_t.stack), seed


def test_alloc_delta_is_exactly_pushes(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        r1 = ref_run(bench.program, store.copy(), inputs=inputs)
        dp = dps_convert_program(bench.program)
        r2 = ref_run(dp, store.copy(), inputs=inputs)
        u = cost_vector(r1.log).stack[0]
        delta = cost_vector(r2.log).store[0] - cost_vector(r1.log).store[0]
        assert delta - 1 == u, bench.name  # minus the entry wrapper alloc


def test_dps_overhead_bounds_corpus(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        r1 = ref_run(bench.program, store.copy(), inputs=inputs)
        dp = dps_convert_program(bench.program)
        r2 = ref_run(dp, store.copy(), inputs=inputs)
        rep = check_dps_overhead(r1.log, r2.log, max_pop_arity(bench.program))
        assert rep.stack_equal and rep.alloc_delta == rep.pushes


def test_dps_overhead_arity_zero_single_push():
    p = parse_program("""
let fun k() =
  pop()
push k do
  pop()
arity 0
""")
    r1 = ref_run(p)
    dp = dps_convert_program(p)
    r2 = ref_run(dp)
    rep = check_dps_overhead(r1.log, r2.log, 0)
    assert rep.read_delta <= 0 and rep.write_delta <= 0
    assert rep.step_delta <= 5
    assert rep.pushes == 1


def test_dps_overhead_bound_violation_detected():
    bench = exptrees_fixture()
    store, labels, inputs = bench.build()
    r1 = ref_run(bench.program, store.copy(), inputs=inputs)
    dp = dps_convert_program(bench.program)
    r2 = ref_run(dp, store.copy(), inputs=inputs)
    with pytest.raises(BoundViolated):
        # Understating the arity makes the read bound fail.
        check_dps_overhead(r1.log, r2.log, 0)


def test_clean_propagate_realized_zero(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        t2 = propagate(bench.program, t1.trace, store.copy())
        assert cost_vector(t2.log).realized == 0, bench.name


def test_max_pop_arity():
    assert max_pop_arity(exptrees_fixture().program) == 1
    assert max_pop_arity(gen_list("sum", 8, 1).program) == 0


def _folds(log):
    return CostVector(cost_of_run(log, M_STEPS), cost_of_run(log, M_STORE),
                      cost_of_run(log, M_STACK), cost_of_run(log, M_TRACING))


def test_cost_vector_equals_the_folds(corpus):
    """cost_vector counts each log once; the four folds define it.  Checked
    on the corpus's reference, from-scratch and propagation logs and on 500
    random tag sequences, among them the empty log and logs whose stack
    height goes negative."""
    logs = []
    for bench in corpus:
        store, labels, inputs = bench.build()
        edited = store.copy()
        if bench.edit_slots:
            apply_edits(edited, labels,
                        gen_edits(5, edited, labels, bench.edit_slots, 2))
        dp = dps_convert_program(bench.program)
        for prog, s2 in ((bench.program, store), (dp, edited)):
            r = ref_run(prog, store.copy(), inputs=inputs)
            t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
            t2 = propagate(prog, t1.trace, s2.copy())
            logs += [r.log, t1.log, t2.log]
    assert any(t[0] == "U" for log in logs for t in log)

    tags = sorted(ALL_TAGS) + ["R.9", "R.11", "E.6", "E.8"] * 4
    negative = 0
    for seed in range(500):
        rng = random.Random(seed)
        log = rng.choices(tags, k=rng.randrange(40) if seed else 0)
        logs.append(log)
        negative += _folds(log).stack[2] < 0
    assert negative > 0

    for log in logs:
        assert cost_vector(log) == _folds(log)
        assert cost_vector(iter(log)) == _folds(log)


def test_cost_vector_names_the_first_unknown_tag():
    with pytest.raises(UnknownTag) as exc:
        cost_vector(["E.1", "Q.1", "R.9", "Z.2"])
    assert exc.value.args == ("Q.1",)
