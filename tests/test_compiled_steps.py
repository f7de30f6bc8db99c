"""The compiled steps' life cycle: compiled once per program and shared by
every engine and run, dropped by renumbering, never carried into a copy, and
freed with their program by reference counting."""

import gc
import weakref
from copy import deepcopy

from sasm import ilast as A
from sasm.corpus import gen_array_max
from sasm.dps import dps_convert_program
from sasm.errors import FuelExhausted, Stuck
from sasm.fuzz import _apply_shrink, _shrink_candidates, gen_program
from sasm.parser import parse_program
from sasm.printer import print_program
from sasm.refmachine import ref_run
from sasm.runtime import Runtime
from sasm.tracing import propagate, run_from_scratch


def _steps(prog):
    return [(e, e.rstep, e.tstep) for e in A.walk_program(prog)]


def _run_all(prog, store, inputs):
    """What every engine makes of the program, each stuck run as its
    message."""
    out, fuel = [], 20_000
    for run in (ref_run, run_from_scratch,
                lambda *a, **k: Runtime(*a, **k).result()):
        try:
            r = run(prog, store.copy(), inputs=inputs, fuel=fuel)
            log = r.log if hasattr(r, "log") else r.eval_steps
            out.append((log, r.values, r.store.dump_lines()))
        except (Stuck, FuelExhausted) as exc:
            out.append(str(exc))
    return out


def test_each_engine_and_run_reuses_the_steps_compiled_once():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    prog = bench.program
    store, labels, inputs = bench.build()
    assert all(r is None and t is None for _, r, t in _steps(prog))
    ref_run(prog, store.copy(), inputs=inputs)
    t = run_from_scratch(prog, store.copy(), inputs=inputs)
    compiled = _steps(prog)
    for e, r, t_step in compiled:
        # A push stays with each machine; top-level definitions are bound
        # before the run starts.
        if type(e) is not A.Push and not any(e is d for d in prog.defs):
            assert r is not None and t_step is not None, e
    edited = store.copy()
    edited.write(labels["arr"], 2, 0)
    propagate(prog, t.trace, edited)
    rt = Runtime(prog, store.copy(), inputs=inputs)
    rt.propagate([(labels["arr"], 3, 1)])
    ref_run(prog, store.copy(), inputs=inputs)
    run_from_scratch(prog, store.copy(), inputs=inputs)
    for (e, r, t_step), (e2, r2, t2) in zip(compiled, _steps(prog)):
        assert e is e2 and r is r2 and t_step is t2


def test_renumbering_drops_the_steps():
    bench = gen_array_max([2, 9, 3, 5], "b")
    store, labels, inputs = bench.build()
    run_from_scratch(bench.program, store.copy(), inputs=inputs)
    ref_run(bench.program, store.copy(), inputs=inputs)
    assert any(r is not None for _, r, _ in _steps(bench.program))
    A.number_exprs(bench.program)
    assert all(r is None and t is None for _, r, t in _steps(bench.program))


def test_a_copy_or_a_conversion_runs_its_own_steps():
    """A program every engine has run is copied and edited as the fuzz
    shrinker does, or DPS-converted; each result runs as a fresh parse of
    its printed text does."""
    checked = 0
    for seed in range(12):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        prog = case.program
        _run_all(prog, store, inputs)
        assert all(r is None and t is None
                   for _, r, t in _steps(deepcopy(prog)))
        made = [dps_convert_program(prog)]
        for cand in list(_shrink_candidates(prog))[:6]:
            shrunk = _apply_shrink(prog, cand)
            if shrunk is not None:
                made.append(shrunk)
        for p in made:
            fresh = parse_program(print_program(p))
            assert _run_all(p, store, inputs) == _run_all(fresh, store,
                                                          inputs)
            checked += 1
    assert checked > 50


def test_a_program_every_engine_ran_is_freed_by_reference_counting():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        bench = gen_array_max([2, 9, 3, 5], "b")
        store, labels, inputs = bench.build()
        prog = bench.program
        ref_run(prog, store.copy(), inputs=inputs)
        t = run_from_scratch(prog, store.copy(), inputs=inputs)
        propagate(prog, t.trace, store.copy())
        rt = Runtime(prog, store.copy(), inputs=inputs)
        refs = [weakref.ref(x) for x in (prog, prog.entry, *prog.defs)]
        del t, rt, prog, bench
        assert all(r() is None for r in refs)
    finally:
        if was_enabled:
            gc.enable()
