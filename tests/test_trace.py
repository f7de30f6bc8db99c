"""The zipper: rewinding cases, blocking, bookkeeping, the okay invariant."""

import pytest

from sasm import tracing
from sasm.corpus import corpus_benchmarks
from sasm.dps import dps_convert_program
from sasm.errors import Stuck
from sasm.fuzz import gen_edits, gen_program
from sasm.parser import parse_program
from sasm.store import Loc, Store
from sasm.trace import (Blocked, PUSH_MARK, PropMark, TAlloc, TPop, TPush,
                        TRead, TWrite, TraceZipper, UndoMark, dump,
                        dump_lines, flatten, from_flat, from_list,
                        last_action, rewind_step, rewind_to_mark, to_list)
from sasm.tracing import propagate, propagation_machine, run_from_scratch

from trace_checks import action_count, check_okay, ctx_action_count


L = Loc(1)
READ = TRead(7, L, 1)
WRITE = TWrite(3, L, 2)
POP = TPop((5,))


def zipper(ctx_entries, focus_actions):
    ctx = None
    for entry in ctx_entries:  # entries listed oldest-first
        ctx = (entry, ctx)
    return TraceZipper(ctx, from_list(focus_actions))


def test_rewind_case_one_moves_action_to_gathered():
    z = zipper([READ], [])
    z2, gathered = rewind_step(z, None)
    assert z2.ctx is None and z2.focus is None
    assert to_list(gathered) == [READ]


def test_rewind_case_two_restores_undo_mark_tail():
    saved = from_list([WRITE, POP])
    z = zipper([UndoMark(saved)], [])
    z2, gathered = rewind_step(z, None)
    assert z2.focus is saved and gathered is None


def test_rewind_case_three_rewraps_leftover_focus_as_push():
    saved = from_list([POP])
    z = zipper([UndoMark(saved)], [READ, WRITE])
    z2, gathered = rewind_step(z, None)
    head = z2.focus[0]
    assert isinstance(head, TPush)
    assert to_list(head.sub) == [READ, WRITE]
    assert z2.focus[1] is saved
    assert gathered is None


def test_rewind_blocks_at_push_mark_prop_mark_and_empty_context():
    assert rewind_step(zipper([PUSH_MARK], []), None) == Blocked("push")
    assert rewind_step(zipper([PropMark(None)], []), None) == Blocked("prop")
    assert rewind_step(zipper([], []), None) == Blocked("none")


def test_rewind_to_mark_gathers_push_body():
    # Evaluate `push f do pop(x)` and inspect the context before E.8 fires.
    src = """
input x
let fun f(v) =
  pop(v)
push f do
  pop(x)
arity 1
"""
    p = parse_program(src)
    t = run_from_scratch(p, inputs={"x": 9})
    assert to_list(t.trace)[0] == TPush(from_list([TPop((9,))]))
    assert last_action(t.trace) == TPop((9,))


def test_rewind_to_mark_across_undo_marks():
    # Context (oldest first): push-mark, action, undo-mark(T2), action.
    t2 = from_list([WRITE])
    z = zipper([PUSH_MARK, READ, UndoMark(t2), POP], [])
    r = rewind_to_mark(z)
    assert r.mark == "push"
    # Hand-applied rules: POP gathers, the undo mark restores T2 into focus,
    # READ gathers; the restored T2 stays in focus.
    assert to_list(r.gathered) == [READ, POP]
    assert to_list(r.focus) == [WRITE]
    assert r.ctx is None


def test_rewind_to_mark_empty_context_signals_completion():
    r = rewind_to_mark(zipper([READ, WRITE], []))
    assert r.mark == "none"
    assert to_list(r.gathered) == [READ, WRITE]


def test_rewind_step_conserves_action_count():
    t2 = from_list([WRITE, POP])
    z = zipper([PUSH_MARK, READ, UndoMark(t2), POP], [READ])
    gathered = None
    total = (ctx_action_count(z.ctx) + action_count(z.focus)
             + action_count(gathered))
    while True:
        r = rewind_step(z, gathered)
        if isinstance(r, Blocked):
            break
        z, gathered = r
        assert (ctx_action_count(z.ctx) + action_count(z.focus)
                + action_count(gathered)) == total


def test_rewind_only_shortens_context_and_preserves_marks():
    t2 = from_list([WRITE])
    z = zipper([PUSH_MARK, READ, UndoMark(t2), POP], [])
    entries = []
    ctx = z.ctx
    while ctx is not None:
        entries.append(ctx[0])
        ctx = ctx[1]

    def marks(c):
        out = []
        while c is not None:
            if c[0] is PUSH_MARK or isinstance(c[0], PropMark):
                out.append(c[0])
            c = c[1]
        return out

    gathered = None
    prev_ctx = z.ctx
    while True:
        r = rewind_step(z, gathered)
        if isinstance(r, Blocked):
            break
        z, gathered = r
        # The new context is a suffix chain (prefix in trace order) of the
        # previous one after dropping undo-mark entries.
        c = prev_ctx
        found = False
        while c is not None:
            if c is z.ctx:
                found = True
                break
            c = c[1]
        assert found or z.ctx is None
        assert marks(z.ctx) == marks(prev_ctx)
        prev_ctx = z.ctx


def same_chain(a, b) -> bool:
    """Structural equality of two traces, walked without recursion (`==` on
    cons chains recurses once per action)."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        while a is not b:
            if a is None or b is None:
                return False
            (x, a), (y, b) = a, b
            if type(x) is TPush and type(y) is TPush:
                todo.append((x.sub, y.sub))
            elif x != y:
                return False
    return True


def assert_rewinds_agree(z):
    """rewind_to_mark(z) is rewind_step iterated from z until Blocked."""
    r = rewind_to_mark(z)
    gathered = None
    while not isinstance(step := rewind_step(z, gathered), Blocked):
        z, gathered = step
    assert r.mark == step.mark
    assert r.ctx is (None if z.ctx is None else z.ctx[1])
    assert r.prop_tail is (z.ctx[0].sub if step.mark == "prop" else None)
    assert same_chain(r.gathered, gathered)
    assert same_chain(r.focus, z.focus)


def test_rewind_to_mark_is_rewind_step_iterated_on_hand_built_contexts():
    t2 = from_list([WRITE, POP])
    for ctx_entries, focus in [
            ([READ], []), ([UndoMark(t2)], []), ([UndoMark(t2)], [READ]),
            ([PUSH_MARK], []), ([PropMark(t2)], []), ([], []),
            ([PUSH_MARK, READ, UndoMark(from_list([WRITE])), POP], []),
            ([PUSH_MARK, READ, UndoMark(t2), POP], [READ]),
            ([PropMark(t2), UndoMark(t2), READ, UndoMark(None), WRITE],
             [POP]),
            ([READ, UndoMark(t2), UndoMark(from_list([READ]))], [WRITE])]:
        assert_rewinds_agree(zipper(ctx_entries, focus))


def test_rewind_to_mark_is_rewind_step_iterated_on_real_runs(monkeypatch):
    """Every zipper the tracing machine rewinds, from scratch and in one
    faithful propagation, over the corpus and fuzz seeds 0..199.  Real runs
    do not rewind across undo marks; the hand-built contexts above do."""
    seen = []

    def recording(z):
        seen.append(z)
        return rewind_to_mark(z)

    monkeypatch.setattr(tracing, "rewind_to_mark", recording)

    def run(prog, store, labels, inputs, edits, native):
        t = run_from_scratch(prog, store.copy(), inputs=inputs)
        if not native:
            prog = dps_convert_program(prog)
            t = run_from_scratch(prog, store.copy(), inputs=inputs)
        edited = store.copy()
        for e in edits:
            edited.write(*e.resolve(labels))
        try:
            propagate(prog, t.trace, edited)
        except Stuck:
            pass

    for b in corpus_benchmarks():
        store, labels, inputs = b.build()
        edits = next(iter(b.fixture_edits.values()), None)
        if edits is None:
            edits = gen_edits(1, store, labels, b.edit_slots, 2)
        run(b.program, store, labels, inputs, edits, b.native_csa)
    corpus_rewinds = len(seen)
    for seed in range(200):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        run(case.program, store, labels, inputs,
            gen_edits(seed + 1, store, labels, case.edit_slots, 2), False)
    assert 0 < corpus_rewinds < len(seen)
    for z in seen:
        assert_rewinds_agree(z)
    assert {rewind_to_mark(z).mark for z in seen} == {"push", "prop", "none"}


def test_propagation_reserves_ids_of_allocations_at_every_depth():
    prog = parse_program("pop(1)\narity 1\n")
    alloc = lambda i: TAlloc(Loc(i), 1)
    innermost = from_list([alloc(40), POP])
    middle = from_list([alloc(20), TPush(innermost), POP])
    reuse = from_list([alloc(10), TPush(middle), alloc(5), POP])
    store = Store()
    propagation_machine(prog, reuse, store)
    assert store.alloc(1).id > 40


# -- the okay invariant ------------------------------------------------------


def region_suffixes(trace):
    """All suffixes of all region sequences of a from-scratch trace: the
    structurally from-scratch-consistent subtraces per the decomposition."""
    out = set()

    def walk(t):
        while t is not None:
            out.add(id(t))
            head, t = t
            if isinstance(head, TPush):
                walk(head.sub)

    walk(trace)
    return out


def fsc_oracle_for(trace):
    suffixes = region_suffixes(trace)
    return lambda t: t is None or id(t) in suffixes


def test_okay_empty_everything():
    assert check_okay(TraceZipper(None, None), lambda t: False)


def test_okay_walks_a_trace_nested_3000_pushes_deep():
    # Past Python's recursion limit, in the focus and under an undo mark.
    t = None
    for _ in range(3000):
        t = (TPush(t), None)
    assert check_okay(TraceZipper(None, t), lambda s: False)
    assert check_okay(TraceZipper((UndoMark(t), None), t), lambda s: False)
    bad = (TPush((TPop(()), None)), None)
    for _ in range(3000):
        bad = (TPush(bad), None)
    assert not check_okay(TraceZipper(None, bad), lambda s: False)


def test_okay_from_scratch_trace_via_fsc(corpus):
    bench = corpus[0]
    store, labels, inputs = bench.build()
    t = run_from_scratch(bench.program, store, inputs=inputs)
    oracle = fsc_oracle_for(t.trace)
    assert check_okay(TraceZipper(None, t.trace), oracle)


def test_okay_rejects_corrupted_pop(corpus):
    bench = corpus[0]
    store, labels, inputs = bench.build()
    t = run_from_scratch(bench.program, store, inputs=inputs)
    oracle = fsc_oracle_for(t.trace)
    actions = to_list(t.trace)
    k = next(i for i, a in enumerate(actions) if isinstance(a, TPush))
    sub = to_list(actions[k].sub)
    for i, a in enumerate(sub):
        if isinstance(a, TPop):
            sub[i] = TPop(tuple(v if not isinstance(v, int) else v + 1
                                for v in a.vals) or (99,))
    actions[k] = TPush(from_list(sub))
    corrupted = from_list(actions)
    assert not check_okay(TraceZipper((PropMark(corrupted), None), None),
                          oracle)
    # The corrupted trace itself is not okay either (its head is not a push).
    assert not check_okay(TraceZipper(None, from_list(sub)), oracle)


def test_rewinding_preserves_okay(corpus):
    bench = corpus[0]
    store, labels, inputs = bench.build()
    t = run_from_scratch(bench.program, store, inputs=inputs)
    oracle = fsc_oracle_for(t.trace)
    # Simulate a partially undone push: context holds an undo mark with the
    # original tail chain, focus holds the push body (identity matters: the
    # fsc oracle recognizes original chain nodes).
    chain = t.trace
    while not isinstance(chain[0], TPush):
        chain = chain[1]
    push, tail = chain[0], chain[1]
    z = TraceZipper((UndoMark(tail), None), push.sub)
    assert check_okay(z, oracle)
    gathered = None
    while True:
        r = rewind_step(z, gathered)
        if isinstance(r, Blocked):
            break
        z, gathered = r
        assert check_okay(z, oracle)


def test_dump_format_shape(corpus):
    bench = corpus[0]
    store, labels, inputs = bench.build()
    t = run_from_scratch(bench.program, store, inputs=inputs)
    text = dump(t.trace)
    lines = text.splitlines()
    assert any(line.startswith("M #") for line in lines)
    assert any(line.startswith("U #") for line in lines)
    assert any(line.startswith("R ") for line in lines)
    assert "(" in text and ")" in text
    assert lines[-1].startswith("P ⟨")
    # Indentation: two spaces per push depth.
    depth = 0
    for line in lines:
        stripped = line.lstrip()
        if stripped == ")":
            depth -= 1
        assert line == "  " * depth + stripped, line
        if stripped == "(":
            depth += 1


def test_deep_traces_walk_without_recursion():
    """A trace nested 3,000 pushes deep (past Python's recursion limit) is
    counted, dumped, canonicalized and scanned for garbage."""
    depth = 3000
    store = Store()
    live, dead = store.alloc(1), store.alloc(1)
    store.write(live, 1, 0)
    store.mark_garbage(dead)

    def nested(innermost):
        t = from_list([innermost, TPop((live,))])
        for i in range(depth):
            t = from_list([TWrite(i, live, 1), TPush(t), TPop(())])
        return t

    t = nested(TRead(0, live, 1))
    atomic = 2 + 2 * depth
    assert action_count(t) == atomic
    assert ctx_action_count((UndoMark(t), (TPush(t), None))) == 2 * atomic

    lines = dump_lines(t)
    assert len(lines) == atomic + 2 * depth
    assert lines[:3] == [f"W {depth - 1} ℓ1 1", "(", f"  W {depth - 2} ℓ1 1"]
    assert lines[depth * 2] == "  " * depth + "R 0 ℓ1 1"
    assert lines[-2:] == [")", "P ⟨⟩"]

    cv, ct, items = tracing.canonicalize((live,), t, store, store)
    assert cv == (("i", live.id),)
    assert len(ct) == atomic + 2 * depth
    assert ct[depth * 2] == ("R", 0, ("i", live.id), 1)
    assert items == ((("i", live.id), 1, 0),)

    result = tracing.BalancedResult((live,), store, t, [])
    assert tracing.check_garbage_unreachable(result)
    result.trace = nested(TRead(dead, live, 1))
    assert not tracing.check_garbage_unreachable(result)

    assert_flat_round_trip((live,), t, store)


def assert_flat_round_trip(values, t, store):
    """`from_flat` inverts `flatten`: the rebuilt trace flattens and
    canonicalizes as `t` does."""
    flat = flatten(t)
    back = from_flat(flat)
    assert flatten(back) == flat
    assert tracing.canonicalize(values, back, store) == \
        tracing.canonicalize(values, t, store)


def test_from_flat_inverts_flatten():
    """On from-scratch traces of the corpus and fuzz seeds 0..199."""
    cases = [*corpus_benchmarks(), *map(gen_program, range(200))]
    for case in cases:
        store, labels, inputs = case.build()
        r = run_from_scratch(case.program, store, inputs=inputs)
        assert_flat_round_trip(r.values, r.trace, r.store)


def test_from_flat_rejects_unbalanced_brackets():
    for flat in (["("], [")"], [POP, ")", "("]):
        with pytest.raises(ValueError, match="unbalanced"):
            from_flat(flat)
