"""Live-variable and update-reachability analyses."""

import pytest

from sasm import analyses
from sasm import ilast as A
from sasm.analyses import LiveSet, live_vars, region_no_update, step_data
from sasm.cli import battery
from sasm.corpus import (exptrees_fixture, gen_array_max, apply_edits, Edit,
                         corpus_benchmarks)
from sasm.dps import dps_convert_program, dps_selective
from sasm.errors import DEFAULT_FUEL
from sasm.fuzz import _apply_shrink, _shrink_candidates, gen_program, gen_edits
from sasm.ilast import Memo, Push, Update, walk_program
from sasm.parser import parse_program
from sasm.refmachine import RULES, ref_run
from sasm.runtime import Runtime
from sasm.store import Store
from sasm.trace import TMemo, TUpdate, iter_chain
from sasm.tracing import propagation_machine, run_from_scratch

from machine_checks import scratch_machine


def test_pop_live_set_is_its_variables():
    p = parse_program("input x\npop(x)\narity 1")
    live = live_vars(p)
    assert live.vars_at(p.entry.eid) == {"x"}


def test_if_live_set_hand_computed():
    src = """
input c
input a
input b
let fun f(v) =
  pop(v)
if c then f(a) else pop(b)
arity 1
"""
    p = parse_program(src)
    live = live_vars(p)
    assert live.vars_at(p.entry.eid) == {"c", "a", "b"}
    assert "f" in live.at(p.entry.eid)


def test_call_pulls_callee_needs_transitively():
    src = """
input y
input z
let fun g() =
  pop(z)
let fun f() =
  let s = prim add(y, 1) in
  g()
f()
arity 1
"""
    p = parse_program(src)
    live = live_vars(p)
    # Calling f needs y (its body) and z (g's body), through the call graph.
    assert live.vars_at(p.entry.eid) == {"y", "z"}


def test_exptrees_memo_live_is_root_only():
    bench = exptrees_fixture()
    live = live_vars(bench.program)
    memo = next(e for e in walk_program(bench.program) if isinstance(e, Memo))
    assert live.vars_at(memo.eid) == {"t"}  # l, r are dead there


def test_memo_update_envs_never_miss_a_needed_name(corpus):
    """Dynamic soundness: propagation re-evaluates every update point from
    its live-restricted environment; an under-approximate live set would
    fail a lookup."""
    for bench in corpus:
        prog = dps_convert_program(bench.program)
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
        s2 = store.copy()
        if bench.edit_slots:
            apply_edits(s2, labels,
                        gen_edits(3, s2, labels, bench.edit_slots, 2))
        m = propagation_machine(prog, t1.trace, s2)
        m.window_dirty = lambda tail: True  # re-evaluate every update point
        m.run()


@pytest.mark.parametrize("point", ["memo", "update"])
def test_a_saved_env_leaves_out_a_live_name_that_is_unbound(point):
    """ρ|live keeps only the live names ρ binds: `x` is live at the point
    but unbound (check_wf rejects the program), and the branch taken never
    reads it, so every engine returns what the reference machine does."""
    prog = parse_program(f"let c = prim add(0, 0) in\n{point}\n"
                         "if c then pop(x) else pop(1)\narity 1")
    assert "x" in live_vars(prog).saved[prog.entry.cont.eid][0]
    assert ref_run(prog, Store()).values == (1,)
    scratch = run_from_scratch(prog, Store())
    rt = Runtime(prog, Store())
    assert scratch.values == rt.result().values == (1,)
    for trace in (scratch.trace, rt.result().trace):
        saved = next(a for a in iter_chain(trace)
                     if type(a) in (TMemo, TUpdate))
        assert saved.env == (("c", 0),)


def test_dynamic_soundness_over_fuzz():
    for seed in range(60):
        case = gen_program(seed)
        prog = dps_convert_program(case.program)
        store, labels, inputs = case.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs, fuel=400000)
        s2 = store.copy()
        apply_edits(s2, labels, gen_edits(seed, s2, labels,
                                          case.edit_slots, 1))
        m = propagation_machine(prog, t1.trace, s2)
        m.window_dirty = lambda tail: True
        m.run(fuel=800000)


def test_region_no_update_pure_region_is_true():
    src = """
let fun k() =
  pop()
push k do
  let w = alloc(1) in
  let q = write(w, 1, 5) in
  pop()
arity 0
"""
    p = parse_program(src)
    info = region_no_update(p)
    push = next(e for e in walk_program(p) if isinstance(e, Push))
    assert info.region_no_update(push.eid)


def test_region_calling_updater_is_false():
    src = """
input c
let fun upd() =
  update
    let x = read(c, 1) in
    pop()
let fun k() =
  pop()
push k do
  upd()
arity 0
"""
    p = parse_program(src)
    info = region_no_update(p)
    push = next(e for e in walk_program(p) if isinstance(e, Push))
    assert not info.region_no_update(push.eid)


def test_mutually_recursive_update_reachability():
    src = """
input c
let fun a(n) =
  b(n)
let fun b(n) =
  let z = prim leq(n, 0) in
  if z then
    update
      let x = read(c, 1) in
      pop()
  else
    let m = prim sub(n, 1) in
    a(m)
let fun k() =
  pop()
push k do
  a(3)
arity 0
"""
    p = parse_program(src)
    info = region_no_update(p)
    assert info.fn_reaches["a"] and info.fn_reaches["b"]
    push = next(e for e in walk_program(p) if isinstance(e, Push))
    assert not info.region_no_update(push.eid)


def test_monotone_memo_matching_live_vs_full(corpus, monkeypatch):
    """Restricting saved environments to live names never loses a match:
    match counts under the live policy are at least those under full envs."""

    def saving_all(compile_point):
        """A memo or update compiler whose point saves every bound variable
        and function name, not only the live ones."""
        def compile_full(e, live):
            def step(store, env):
                full = LiveSet({}, live.fn_names, {e.eid: (
                    tuple(sorted(env.keys() - live.fn_names)),
                    frozenset(env) & live.fn_names)})
                return compile_point(e, full)(store, env)
            return step
        return compile_full

    def matches(full_env: bool) -> int:
        # A fresh program each time: its steps are compiled on first run.
        bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
        store, labels, inputs = bench.build()
        with monkeypatch.context() as m:
            if full_env:
                for t in (Memo, Update):
                    m.setitem(RULES, t, saving_all(RULES[t]))
            t1 = scratch_machine(bench.program, store.copy(), inputs).run()
            s2 = store.copy()
            apply_edits(s2, labels, [Edit("arr", 2, 0)])
            m2 = propagation_machine(bench.program, t1.trace, s2)
            return m2.run().log.count("E.P")

    assert matches(full_env=False) >= matches(full_env=True)


def test_saved_names_are_the_sorted_live_variables():
    """The per-program saved names equal what the engines once sorted at
    every memo and update step: the live variables by name, and the live
    function names."""
    progs = [b.program for b in corpus_benchmarks()]
    progs += [gen_program(seed).program for seed in range(100)]
    checked = 0
    for prog in progs + [dps_convert_program(p) for p in progs]:
        live = live_vars(prog)
        points = [e.eid for e in walk_program(prog)
                  if isinstance(e, (Memo, Update))]
        assert sorted(live.saved) == sorted(points)
        for eid in points:
            names = live.at(eid)
            assert live.saved[eid] == (
                tuple(sorted(x for x in names if x not in live.fn_names)),
                frozenset(names & live.fn_names))
            checked += 1
    assert checked > 1000


# The recursive definitions that `live_vars` and `expr_reaches_update`
# replaced, kept as references for the loop-based ones.  The reference
# spells out each instruction's operands itself, so it does not share
# `ilast.operands` with the analysis it checks.
def _vals_vars(vs):
    return {v for v in vs if isinstance(v, str)}


def _inst_vars(inst):
    if isinstance(inst, A.Alloc):
        return _vals_vars((inst.size,))
    if isinstance(inst, A.Read):
        return _vals_vars((inst.loc, inst.off))
    return _vals_vars((inst.loc, inst.off, inst.val))


def _live_vars_recursive(prog):
    funs = prog.fun_index()
    fns = frozenset(funs)
    needs = {f: frozenset() for f in funs}
    saved = {}

    def live_of(e, record):
        if isinstance(e, A.FunDef):
            out = live_of(e.cont, record) - {e.fname}
        elif isinstance(e, A.PrimOp):
            out = frozenset(_vals_vars(e.args)) | (live_of(e.cont, record) - {e.var})
        elif isinstance(e, A.If):
            out = {e.cond} | live_of(e.then, record) | live_of(e.els, record)
            out = frozenset(out)
        elif isinstance(e, A.App):
            out = (frozenset({e.fname}) | frozenset(_vals_vars(e.args))
                   | needs.get(e.fname, frozenset()))
        elif isinstance(e, A.Inst):
            out = frozenset(_inst_vars(e.inst)) | (live_of(e.cont, record) - {e.var})
        elif isinstance(e, (A.Memo, A.Update)):
            out = live_of(e.body, record)
            if record is not None:
                saved[e.eid] = (tuple(sorted(out - fns)), out & fns)
        elif isinstance(e, A.Push):
            out = (frozenset({e.fname}) | needs.get(e.fname, frozenset())
                   | live_of(e.body, record))
        elif isinstance(e, A.Pop):
            out = frozenset(_vals_vars(e.vals))
        else:
            raise TypeError(f"not an expression: {e!r}")
        if record is not None:
            record[e.eid] = out
        return out

    changed = True
    while changed:
        changed = False
        for name, fdef in funs.items():
            n = live_of(fdef.body, None) - set(fdef.params)
            if n != needs[name]:
                needs[name] = n
                changed = True

    record = {}
    for fdef in funs.values():
        live_of(fdef.body, record)
        record[fdef.eid] = needs[fdef.fname]
    live_of(prog.entry, record)
    return LiveSet(record, fns, saved)


def _reaches_update_recursive(e, fn_reaches):
    if isinstance(e, A.Update):
        return True
    if isinstance(e, (A.FunDef, A.PrimOp, A.Inst)):
        return _reaches_update_recursive(e.cont, fn_reaches)
    if isinstance(e, A.If):
        return (_reaches_update_recursive(e.then, fn_reaches)
                or _reaches_update_recursive(e.els, fn_reaches))
    if isinstance(e, A.App):
        return fn_reaches.get(e.fname, False)
    if isinstance(e, A.Memo):
        return _reaches_update_recursive(e.body, fn_reaches)
    if isinstance(e, A.Push):
        return (_reaches_update_recursive(e.body, fn_reaches)
                or fn_reaches.get(e.fname, False))
    if isinstance(e, A.Pop):
        return False
    raise TypeError(f"not an expression: {e!r}")


def test_long_straight_line_programs_analyse_without_recursion(monkeypatch):
    """The array builder at n=1024 is one let chain of over 1,024 links,
    past Python's recursion limit; the analyses and a tracing run handle
    it, and on the corpus and fuzz seeds 0..199 both analyses equal their
    recursive definitions."""
    bench = gen_array_max(1024, "b")
    assert len(live_vars(bench.builder).live) > 1024
    t = run_from_scratch(bench.builder, Store())
    assert t.values == ref_run(bench.builder, Store()).values

    progs = []
    for b in corpus_benchmarks():
        progs += [b.program, b.builder, dps_convert_program(b.program)]
    for seed in range(200):
        case = gen_program(seed)
        progs += [case.program, dps_convert_program(case.program)]
    infos = [(live_vars(p), region_no_update(p)) for p in progs]
    monkeypatch.setattr(analyses, "expr_reaches_update",
                        _reaches_update_recursive)
    for p, (live, info) in zip(progs, infos):
        assert live == _live_vars_recursive(p)
        assert info == region_no_update(p)


# -- step data stored on the program ---------------------------------------------


def _snapshot(data):
    """A copy of (fun_index, LiveSet) that shares no mutable part with it."""
    funs, live = data
    return dict(funs), analyses.LiveSet(dict(live.live), live.fn_names,
                                        dict(live.saved))


def test_stored_step_data_equals_a_fresh_analysis(corpus):
    progs = []
    for b in corpus:
        progs += [b.program, dps_convert_program(b.program),
                  dps_selective(b.program)]
    progs += [gen_program(seed).program for seed in range(200)]
    for p in progs:
        data = step_data(p)
        assert p.step_data is data and step_data(p) is data
        assert data == (p.fun_index(), live_vars(p))


def test_every_engine_reads_the_stored_step_data():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    prog = bench.program
    store, labels, inputs = bench.build()
    t = run_from_scratch(prog, store.copy(), inputs=inputs)
    funs, live = prog.step_data
    m = propagation_machine(prog, t.trace, store.copy())
    rt = Runtime(prog, store.copy(), inputs=inputs)
    assert m.fun_index is rt.fun_index is funs
    assert m.live is rt.live is live
    assert prog.step_data == (funs, live)


def test_renumbering_or_shrinking_drops_the_stored_step_data():
    prog = gen_program(3).program
    data = step_data(prog)
    cand = next(_shrink_candidates(prog))
    shrunk = _apply_shrink(prog, cand)
    assert shrunk.step_data is None
    assert prog.step_data is data
    A.number_exprs(prog)
    assert prog.step_data is None
    assert step_data(prog) == data


def test_the_check_battery_never_mutates_the_stored_step_data(corpus):
    """Every battery engine runs the program itself (`native`), so each
    reads its stored step data."""
    cases = []
    for b in corpus:
        if b.edit_slots:
            store, labels, inputs = b.build()
            cases.append((b.program, store, labels, inputs,
                          gen_edits(5, store, labels, b.edit_slots, 2)))
    for seed in range(20):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        cases.append((case.program, store, labels, inputs,
                      gen_edits(seed + 1, store, labels, case.edit_slots, 2)))
    reached_the_runtime = 0
    for prog, store, labels, inputs, edits in cases:
        before = _snapshot(step_data(prog))
        checks = list(battery(prog, store, labels, inputs, edits,
                              DEFAULT_FUEL, native=True))
        reached_the_runtime += checks[-1][0] == "fast-vs-faithful"
        assert prog.step_data == before
        assert prog.step_data == (prog.fun_index(), live_vars(prog))
    assert reached_the_runtime > len(cases) // 2
