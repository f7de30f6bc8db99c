"""The tracing machine: stepping, memo seeking, propagation, consistency."""

import pytest

from sasm.corpus import (Edit, apply_edits, corpus_benchmarks, deref_result,
                         exptrees_fixture, gen_array_max)
from sasm.cost import EVAL_TAGS
from sasm.dps import dps_convert_program
from sasm.errors import Stuck
from sasm.fuzz import gen_edits, gen_program
from sasm.ilast import Program
from sasm.parser import parse_program
from sasm.refmachine import Values, ref_run
from sasm.store import Loc, Store, UNINIT
from sasm.trace import (PUSH_MARK, TAlloc, TMemo, TPop, TPush, TRead,
                        TUpdate, TWrite, from_list, iter_chain, last_action,
                        to_list)
from sasm.tracing import (PROP, TracingMachine, canonical_result,
                          canonicalize, check_garbage_unreachable,
                          non_garbage, propagate, propagation_machine,
                          run_from_scratch)
from sasm.analyses import live_vars

from machine_checks import (BoundExceeded, checked_run, enumerate_schedules,
                            scratch_machine)


def machine_for(prog, store=None, reuse=None, command=None, env=None):
    store = store if store is not None else Store()
    live = live_vars(prog)
    return TracingMachine(
        store, env if env is not None else {d.fname: d for d in prog.defs},
        command if command is not None else prog.entry, reuse,
        fun_index=prog.fun_index(), live=live)


def test_push_gains_mark_and_frame():
    p = parse_program("let fun f(v) =\n pop(v)\npush f do pop(3)\narity 1")
    m = machine_for(p)
    assert m.step() == "E.6"  # top-level defs are pre-bound in the env
    assert m.ctx[0] is PUSH_MARK
    assert len(m.stack) == 1 and m.stack[0].fname == "f"


def test_undo_alloc_marks_garbage_and_drops_action():
    p = parse_program("pop()\narity 0")
    store = Store()
    loc = store.alloc(1)
    reuse = from_list([TAlloc(loc, 1), TPop(())])
    m = machine_for(p, store=store, reuse=reuse)
    m._undo_one()
    assert m.log == ["U.1"]
    assert loc.id in m.store.garbage
    assert to_list(m.focus) == [TPop(())]


def test_p7_on_pop_singleton_yields_values():
    reuse = from_list([TPop((4, 2))])
    p = parse_program("pop()\narity 0")
    m = machine_for(p, reuse=reuse, command=PROP, env={})
    assert m.step() == "P.7"
    assert isinstance(m.command, Values) and m.command.vals == (4, 2)


def test_memo_seek_immediate_head_match_zero_undos():
    src = "input x\nmemo pop(x)\narity 1"
    p = parse_program(src)
    t1 = run_from_scratch(p, inputs={"x": 5})
    store2 = Store()
    m = propagation_machine(p, t1.trace, store2)
    # Drive manually: the first prop step is P.4 (no dirty updates exist and
    # memo actions just replay).  Instead run an evaluation with the reuse
    # trace in focus and the same env: the head must match with zero undos.
    m2 = machine_for(p, reuse=t1.trace, env={"x": 5})
    tag = m2.step()
    assert tag == "E.P"
    assert "U.2" not in m2.log and "U.1" not in m2.log


def test_memo_seek_drops_stale_prefix_then_matches():
    src = "input x\nlet w = alloc(1) in let q = write(w, 1, x) in memo pop(x)\narity 1"
    p = parse_program(src)
    t1 = run_from_scratch(p, inputs={"x": 5})
    # Reuse trace: [Alloc, Write, Memo, Pop]; start the machine directly at
    # the memo expression with the full trace focused: the seek must undo
    # the alloc and write, then switch.
    memo_expr = t1.trace  # find the memo node in the program
    prog_memo = p.entry.cont.cont  # Inst -> Inst -> Memo
    store = Store()
    m = machine_for(p, store=store, reuse=t1.trace, command=prog_memo,
                    env={"x": 5})
    tags = [m.step(), m.step(), m.step()]
    assert tags == ["U.1", "U.2", "E.P"]
    assert m.store.garbage  # the undone alloc became garbage


def test_memo_seek_not_found_takes_e4():
    p = parse_program("input x\nmemo pop(x)\narity 1")
    t1 = run_from_scratch(p, inputs={"x": 5})
    m = machine_for(p, reuse=t1.trace, env={"x": 6})  # env differs: no match
    assert m.step() == "E.4"
    assert m.focus is t1.trace  # no undo performed


def test_from_scratch_trivial_pop_trace():
    p = parse_program("pop()\narity 0")
    t = run_from_scratch(p)
    assert to_list(t.trace) == [TPop(())]


def test_from_scratch_only_eval_tags(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        t = checked_run(scratch_machine(bench.program, store, inputs)).result
        assert all(tag in EVAL_TAGS - {"E.P"} for tag in t.log)


def test_last_action_is_result_vector(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        t = run_from_scratch(bench.program, store, inputs=inputs)
        assert last_action(t.trace) == TPop(t.values)


def test_exptrees_trace_one_push_per_recursive_call():
    bench = exptrees_fixture()
    store, labels, inputs = bench.build()
    t = run_from_scratch(bench.program, store, inputs=inputs)
    # Four binop nodes in the upper tree, two pushes each (right subtree
    # evaluation and the operator application).
    def count_pushes(tr):
        n = 0
        for a in iter_chain(tr):
            if isinstance(a, TPush):
                n += 1 + count_pushes(a.sub)
        return n
    assert count_pushes(t.trace) == 8
    assert t.values == (6,)


def test_clean_propagate_is_pure_replay(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        t2 = propagate(bench.program, t1.trace, store.copy())
        assert all(tag.startswith("P") for tag in t2.log), bench.name
        assert t2.values == t1.values
        assert canonicalize(t2.values, t2.trace, t2.store, store) == \
            canonicalize(t1.values, t1.trace, t1.store, store)


def test_exptrees_lower_tree_propagates_to_eleven():
    bench = exptrees_fixture()
    prog = dps_convert_program(bench.program)
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    assert deref_result(t1.values, t1.store, 1) == (6,)
    s2 = store.copy()
    apply_edits(s2, labels, bench.fixture_edits["lower"])
    t2 = propagate(prog, t1.trace, s2.copy())
    assert deref_result(t2.values, t2.store, 1) == (11,)
    assert check_garbage_unreachable(t2)


def test_array_max_edit_propagates_to_seven():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    assert bench.observe(t1.values, t1.store, labels) == 9
    s2 = store.copy()
    apply_edits(s2, labels, [Edit("arr", 2, 0)])
    t2 = propagate(bench.program, t1.trace, s2.copy())
    assert bench.observe(t2.values, t2.store, labels) == 7


def test_non_garbage_restriction():
    store = Store()
    a = store.alloc(2)
    b = store.alloc(1)
    store.write(a, 1, 5)
    assert store.non_garbage() == store
    store.mark_garbage(b)
    live = non_garbage(store)
    assert b.id not in live.sizes and b.id not in live.garbage
    assert (a.id, 1) in live.cells
    assert len(live.sizes) == len(store.sizes)


def test_propagate_undoes_orphaned_alloc(corpus):
    bench = exptrees_fixture()
    prog = dps_convert_program(bench.program)
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    s2 = store.copy()
    apply_edits(s2, labels, bench.fixture_edits["lower"])
    t2 = propagate(prog, t1.trace, s2.copy())
    assert t2.store.garbage  # old destination cells were abandoned
    assert len(non_garbage(t2.store).sizes) == len(t2.store.sizes)


def test_garbage_unreachable_negative_hand_violated():
    bench = exptrees_fixture()
    prog = dps_convert_program(bench.program)
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    s2 = store.copy()
    apply_edits(s2, labels, bench.fixture_edits["lower"])
    t2 = propagate(prog, t1.trace, s2.copy())
    assert check_garbage_unreachable(t2)
    garbage_id = next(iter(t2.store.garbage))
    live_loc = next(Loc(lid) for lid in t2.store.sizes)
    t2.store.cells[(live_loc.id, 1)] = Loc(garbage_id)
    assert not check_garbage_unreachable(t2)


# -- consistency properties ---------------------------------------------------


def test_from_scratch_consistency_corpus(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        r = ref_run(bench.program, store.copy(), inputs=inputs)
        t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        assert canonicalize(r.values, None, r.store, store) == \
            canonicalize(t.values, None, t.store, store), bench.name


def test_general_consistency_dps_corpus(corpus):
    for bench in corpus:
        prog = dps_convert_program(bench.program)
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
        s2 = store.copy()
        edits = gen_edits(17, s2, labels, bench.edit_slots, k=2) \
            if bench.edit_slots else []
        apply_edits(s2, labels, edits)
        t2 = propagate(prog, t1.trace, s2.copy())
        fresh = run_from_scratch(prog, non_garbage(s2.copy()), inputs=inputs)
        assert canonical_result(t2, s2) == canonical_result(fresh, s2), \
            bench.name
        assert check_garbage_unreachable(t2), bench.name


# -- instrumented invariants -----------------------------------------------------


def test_stack_parametricity_instrumentation():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    first = checked_run(scratch_machine(bench.program, store.copy(), inputs))
    s2 = store.copy()
    apply_edits(s2, labels, [Edit("arr", 2, 0)])
    m = propagation_machine(bench.program, first.result.trace, s2)
    # checked_run asserts at each E.8/P.8 that the rewind matches its mark.
    assert not checked_run(m).marks  # every mark was consumed symmetrically


REF_TO_TRACE = {"R.1": "E.0", "R.2": "E.0", "R.3": "E.0", "R.4": "E.0",
                "R.5": "E.0", "R.6/S.1": "E.1", "R.6/S.2": "E.2",
                "R.6/S.3": "E.3", "R.7": "E.4", "R.8": "E.5", "R.9": "E.6",
                "R.10": "E.7", "R.11": "E.8"}


def test_traced_to_untraced_projection_from_scratch(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        r = ref_run(bench.program, store.copy(), inputs=inputs)
        t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        assert [REF_TO_TRACE[tag] for tag in r.log] == t.log, bench.name


def test_traced_to_untraced_projection_segments():
    """Each re-evaluation segment's evaluation step tags are a prefix of a
    reference-machine replay from the segment's start configuration."""
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    s2 = store.copy()
    apply_edits(s2, labels, [Edit("arr", 2, 0)])
    m = propagation_machine(bench.program, t1.trace, s2)
    segments = checked_run(m).segments
    assert segments
    for seg in segments:
        etags = [t for t in seg["tags"] if t.startswith("E") and t != "E.P"]
        r = ref_run(Program(entry=seg["expr"]), seg["store"].copy(),
                    inputs=seg["env"])
        ref_tags = [REF_TO_TRACE[tag] for tag in r.log[:len(etags)]]
        assert ref_tags == etags[:len(ref_tags)]
        assert len(ref_tags) >= min(1, len(etags))


# -- schedule enumeration -------------------------------------------------------


def test_enumerate_no_choice_points_is_singleton():
    p = parse_program("let y = prim add(1, 2) in pop(y)\narity 1")
    outcomes, explored = enumerate_schedules(p, Store())
    assert len(outcomes) == 1
    assert explored == 1


def test_enumerate_dps_exptree_consistent_singleton():
    # A two-leaf tree, converted; one dirty leaf; every schedule agrees.
    src = """
input a
input b
let fun addup() =
  update
    let x = read(a, 1) in
    let y = read(b, 1) in
    let s = prim add(x, y) in
    pop(s)
addup()
arity 1
"""
    p = parse_program(src)
    dp = dps_convert_program(p)
    store = Store()
    la, lb = store.alloc(1), store.alloc(1)
    store.write(la, 1, 3)
    store.write(lb, 1, 4)
    inputs = {"a": la, "b": lb}
    t1 = run_from_scratch(dp, store.copy(), inputs=inputs)
    s2 = store.copy()
    s2.write(la, 1, 10)
    outcomes, explored = enumerate_schedules(dp, s2, reuse=t1.trace)
    assert len(outcomes) == 1
    assert explored == 3  # one update point: re-evaluate or skip


def test_enumerate_non_csa_program_detected():
    # The push body's pop value reads the store, so the program is not store
    # agnostic: the region's new pop value is discarded at the propagation
    # boundary while the continuation replays its stale captured value.  The
    # detection: no schedule reproduces a fresh run on the edited store.
    src = """
input c
input out
let fun k(v) =
  let w = write(out, 1, v) in
  pop()
push k do
  update
    let x = read(c, 1) in
    pop(x)
arity 0
"""
    p = parse_program(src)
    store = Store()
    lc, lout = store.alloc(1), store.alloc(1)
    store.write(lc, 1, 5)
    store.write(lout, 1, 0)
    inputs = {"c": lc, "out": lout}
    t1 = run_from_scratch(p, store.copy(), inputs=inputs)
    s2 = store.copy()
    s2.write(lc, 1, 9)
    outcomes, explored = enumerate_schedules(p, s2, reuse=t1.trace)
    assert explored == 3
    fresh = run_from_scratch(p, s2.copy(), inputs=inputs)
    cv, _, items = canonicalize(fresh.values, None, fresh.store, s2)
    assert outcomes  # some schedule completes
    assert (len(outcomes) > 1) or ((cv, items) not in outcomes)
    # The completing schedules kept the stale continuation write.
    assert fresh.store.read(lout, 1) == 9


def test_enumerate_bound_exceeded():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    with pytest.raises(BoundExceeded):
        enumerate_schedules(bench.program, store, bound=10, inputs=inputs)


# -- negative / stuck behavior -----------------------------------------------------


def test_unguarded_dirty_read_sticks_at_p2():
    src = """
input c
let x = read(c, 1) in
pop(x)
arity 1
"""
    p = parse_program(src)
    store = Store()
    lc = store.alloc(1)
    store.write(lc, 1, 5)
    t1 = run_from_scratch(p, store.copy(), inputs={"c": lc})
    s2 = store.copy()
    s2.write(lc, 1, 6)
    with pytest.raises(Stuck) as exc:
        propagate(p, t1.trace, s2)
    assert exc.value.family == "P.2"


# -- canonical comparison ---------------------------------------------------


def _canonicalize_reference(values, trace, store, initial_store=None):
    """The recursive definition the flat `canonicalize` replaced: nested
    tuples per push, store items sorted by repr."""
    fixed = set()
    if initial_store is not None:
        fixed = set(initial_store.sizes) | set(initial_store.garbage)
    mapping = {}

    def canon_loc(loc):
        if loc.id in fixed:
            return ("i", loc.id)
        if loc.id not in mapping:
            mapping[loc.id] = ("c", len(mapping))
        return mapping[loc.id]

    def canon_val(v):
        return canon_loc(v) if isinstance(v, Loc) else v

    def canon_action(a):
        if isinstance(a, TAlloc):
            return ("A", canon_loc(a.loc), a.size)
        if isinstance(a, TRead):
            return ("R", canon_val(a.val), canon_loc(a.loc), a.off)
        if isinstance(a, TWrite):
            return ("W", canon_val(a.val), canon_loc(a.loc), a.off)
        if isinstance(a, TMemo):
            return ("M", a.eid, tuple((k, canon_val(v)) for k, v in a.env))
        if isinstance(a, TUpdate):
            return ("U", a.eid, tuple((k, canon_val(v)) for k, v in a.env))
        if isinstance(a, TPop):
            return ("P", tuple(canon_val(v) for v in a.vals))
        raise TypeError(f"not an atomic action: {a!r}")

    def canon_trace(t):
        out = []
        for a in iter_chain(t):
            if isinstance(a, TPush):
                out.append(("(",) + canon_trace(a.sub) + (")",))
            else:
                out.append(canon_action(a))
        return tuple(out)

    ct = canon_trace(trace)
    cv = tuple(canon_val(v) for v in values)
    items = []
    for (lid, off), v in store.non_garbage().entries():
        items.append((canon_loc(Loc(lid)), off,
                      "⊥" if v is UNINIT else canon_val(v)))
    items.sort(key=repr)
    return (cv, ct, tuple(items))


class _BothCanonical:
    """A result canonicalized both ways; comparing two of them checks that
    both definitions give the same verdict and records it."""

    verdicts: list = []

    def __init__(self, values, trace, store, initial_store=None):
        args = (values, trace, store, initial_store)
        self.new = canonicalize(*args)
        self.ref = _canonicalize_reference(*args)

    def __eq__(self, other):
        verdict = self.new == other.new
        assert verdict == (self.ref == other.ref)
        self.verdicts.append(verdict)
        return verdict


def test_canonicalize_agrees_with_its_reference_on_the_battery(monkeypatch):
    """Every pair `cli.battery` compares gets the same verdict from the flat
    and the recursive canonical forms, on the corpus and fuzz seeds 0..199."""
    from sasm import cli
    monkeypatch.setattr(cli, "canonicalize", _BothCanonical)
    monkeypatch.setattr(cli, "canonical_result", lambda r, initial: (
        _BothCanonical(r.values, r.trace, r.store, initial)))
    monkeypatch.setattr(_BothCanonical, "verdicts", [])
    cases = []
    for bench in corpus_benchmarks():
        store, labels, inputs = bench.build()
        edits = (gen_edits(3, store, labels, bench.edit_slots, 2)
                 if bench.edit_slots else bench.fixture_edits.get("lower", []))
        cases.append((bench.program, store, labels, inputs, edits))
    for seed in range(200):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        edits = gen_edits(seed + 1, store, labels, case.edit_slots, 2)
        cases.append((case.program, store, labels, inputs, edits))
    for prog, store, labels, inputs, edits in cases:
        for name, ok, detail in cli.battery(prog, store, labels, inputs,
                                            edits, 400_000):
            assert ok, (name, detail)
    assert len(_BothCanonical.verdicts) == 3 * len(cases)


def _relocated(t, f):
    """The trace `t` with every location mapped through `f`."""
    def val(v):
        return f(v) if isinstance(v, Loc) else v

    def action(a):
        if isinstance(a, TPush):
            return TPush(_relocated(a.sub, f))
        if isinstance(a, TAlloc):
            return TAlloc(f(a.loc), a.size)
        if isinstance(a, (TRead, TWrite)):
            return type(a)(val(a.val), f(a.loc), a.off)
        if isinstance(a, TMemo):
            return TMemo(a.eid, tuple((k, val(v)) for k, v in a.env))
        if isinstance(a, TUpdate):
            return TUpdate(a.eid, tuple((k, val(v)) for k, v in a.env),
                           a.expr, a.fnames)
        return TPop(tuple(val(v) for v in a.vals))
    return from_list([action(a) for a in iter_chain(t)])


def test_canonicalize_mutants_compare_unequal():
    """Mutants of a propagated result compare unequal to it under both
    definitions, and a renaming of its minted locations compares equal."""
    bench = exptrees_fixture()
    prog = dps_convert_program(bench.program)
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    s2 = store.copy()
    apply_edits(s2, labels, bench.fixture_edits["lower"])
    r = propagate(prog, t1.trace, s2.copy())
    base = (r.values, r.trace, r.store)

    minted = sorted(lid for lid in r.store.sizes if lid not in s2.sizes)
    fixed = next(lid for lid in s2.sizes
                 if any(isinstance(a, TRead) and a.loc.id == lid
                        for a in iter_chain(r.trace)))
    assert len(minted) >= 2
    top = max(r.store.sizes) + 1

    cell = next(k for k, v in r.store.cells.items() if type(v) is int)
    changed_store = r.store.copy()
    changed_store.cells[cell] += 1
    changed_value = tuple(v + 1 if type(v) is int else Loc(top)
                          for v in r.values)
    actions = to_list(r.trace)
    k = next(i for i in range(len(actions) - 1)
             if isinstance(actions[i + 1], TPush)
             and not isinstance(actions[i], TPush))
    moved = from_list(actions[:k] + [TPush((actions[k], actions[k + 1].sub))]
                      + actions[k + 2:])

    def merged(loc):
        return Loc(minted[0]) if loc.id == minted[1] else loc

    def unfixed(loc):
        return Loc(top) if loc.id == fixed else loc

    mutants = {
        "store cell": (r.values, r.trace, changed_store),
        "value": (changed_value, r.trace, r.store),
        "across a push": (r.values, moved, r.store),
        "minted merged": (r.values, _relocated(r.trace, merged), r.store),
        "fixed to minted": (r.values, _relocated(r.trace, unfixed), r.store),
    }
    for name, mutant in mutants.items():
        assert canonicalize(*base, s2) != canonicalize(*mutant, s2), name
        assert _canonicalize_reference(*base, s2) != \
            _canonicalize_reference(*mutant, s2), name

    # Renaming the minted locations, in reverse order, changes nothing.
    renamed = {lid: Loc(top + i) for i, lid in enumerate(reversed(minted))}

    def rename(v):
        return renamed.get(v.id, v) if isinstance(v, Loc) else v

    store_renamed = Store()
    store_renamed.cells = {(rename(Loc(lid)).id, off): rename(v)
                           for (lid, off), v in r.store.cells.items()}
    same = (tuple(rename(v) for v in r.values),
            _relocated(r.trace, rename), store_renamed)
    assert canonicalize(*base, s2) == canonicalize(*same, s2)
    assert _canonicalize_reference(*base, s2) == \
        _canonicalize_reference(*same, s2)
