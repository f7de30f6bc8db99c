"""The efficient runtime: order maintenance, node packing and guards, entry
histories, dirtying, and full equivalence against the faithful machine."""

import random

import pytest

from sasm.corpus import (Edit, apply_edits, exptrees_fixture,
                         gen_array_max, gen_list)
from sasm.cost import cost_vector
from sasm.dps import dps_convert_program
from sasm.errors import (FuelExhausted, StaleResult, Stuck, StuckRead,
                         StuckWrite)
from sasm.fuzz import gen_edits, gen_program
from sasm.parser import parse_program
from sasm.refmachine import ref_run
from sasm.runtime import (EntryHistory, OrderMaintenance, Runtime, TraceNode,
                          UseAfterDelete)
from sasm.store import Store
from sasm.trace import TMemo, TPop, TRead, TUpdate, TWrite
from sasm.tracing import (canonicalize, non_garbage, propagation_machine,
                          run_from_scratch)
from sasm.wf import check_wf

from om_oracle import NaiveOrder, Tail


def test_om_insert_after_orders():
    om = OrderMaintenance()
    a = om.origin()
    b = om.insert_after(a)
    assert om.compare(a, b) == -1
    assert om.compare(b, a) == 1
    assert om.compare(a, a) == 0


def test_om_chain_inserts_at_same_point_reverse_order():
    om = OrderMaintenance()
    a = om.origin()
    handles = [om.insert_after(a) for _ in range(100_000)]
    # Inserting repeatedly after the same handle stacks in reverse order.
    positions = list(reversed(handles))
    rng = random.Random(1)
    for _ in range(2000):
        i, j = rng.randrange(len(positions)), rng.randrange(len(positions))
        want = (i > j) - (i < j)
        assert om.compare(positions[i], positions[j]) == want


def test_om_delete_then_compare_raises():
    om = OrderMaintenance()
    a = om.origin()
    b = om.insert_after(a)
    om.delete(b)
    with pytest.raises(UseAfterDelete):
        om.compare(a, b)
    with pytest.raises(UseAfterDelete):
        om.insert_after(b)
    with pytest.raises(UseAfterDelete):
        om.delete(b)


def test_om_randomized_against_naive_list_oracle():
    om = OrderMaintenance()
    rng = random.Random(42)
    oracle = NaiveOrder(om.origin())
    handles = [om.origin()]
    for _ in range(100_000):
        op = rng.random()
        if op < 0.8 or len(oracle) < 3:
            h = rng.choice(oracle)
            new = om.insert_after(h)
            oracle.insert_after(h, new)
            handles.append(new)
        else:
            victim = rng.choice(Tail(oracle))
            om.delete(victim)
            oracle.remove(victim)
    for _ in range(5000):
        a, b = rng.choice(oracle), rng.choice(oracle)
        want = (oracle.index(a) > oracle.index(b)) - (
            oracle.index(a) < oracle.index(b))
        assert om.compare(a, b) == want
    order = oracle.order()
    for a, b in zip(order, order[1:]):
        assert om.compare(a, b) == -1


def test_om_inserts_before_a_sentinel():
    # The Runtime builds a trace this way: each node after the last one,
    # before the fixed tail.
    om = OrderMaintenance()
    prev = om.origin()
    sentinel = om.insert_after(prev)
    handles = [prev]
    for _ in range(100_000):
        prev = om.insert_after(prev)
        handles.append(prev)
    handles.append(sentinel)
    for a, b in zip(handles, handles[1:]):
        assert om.compare(a, b) == -1
    assert om.relabels <= 100_000 // 32


def test_naive_order_matches_a_plain_list():
    # Phases that grow and then shrink the order, with a small chunk cap, so
    # chunks split and emptied chunks are dropped many times.
    rng = random.Random(5)
    order, plain = NaiveOrder(0, cap=4), [0]
    most_chunks = dropped = 0
    for step in range(1, 2001):
        grow = (step // 100) % 2 == 0
        if rng.random() < (0.8 if grow else 0.2) or len(plain) < 2:
            h = rng.choice(order)
            order.insert_after(h, step)
            plain.insert(plain.index(h) + 1, step)
        else:
            victim = rng.choice(Tail(order))
            chunks = len(order._chunks)
            order.remove(victim)
            plain.remove(victim)
            dropped += len(order._chunks) < chunks
        most_chunks = max(most_chunks, len(order._chunks))
        assert len(order) == len(plain)
        assert order.order() == plain
        assert [order[k] for k in range(len(order))] == plain
        assert [order.index(h) for h in plain] == list(range(len(plain)))
        tail = Tail(order)
        assert [tail[k] for k in range(len(tail))] == plain[1:]
    assert most_chunks > 10 and dropped > 10


def test_entry_history_against_a_sorted_list_oracle():
    # Nodes are inserted often right after the first few, so labels run out
    # and successors are spread: the events are looked up across relabels.
    rng = random.Random(3)
    om = OrderMaintenance(origin=TraceNode("head"))
    head = om.origin()
    order = [head]  # the true node order, as a plain list
    rank = {head: 0}
    h = EntryHistory()
    events = []  # the oracle: (node, idx, kind, value) in any order

    def pos(node, idx):
        return (rank[node], idx)

    def key(node, idx):
        return (om.key(node), idx)

    for _ in range(1200):
        r = rng.random()
        if r < 0.4 or len(order) < 2:
            after = rng.choice(order[:3] if rng.random() < 0.5 else order)
            node = TraceNode("run")
            om.insert_after(after, node)
            order.insert(order.index(after) + 1, node)
            rank = {n: k for k, n in enumerate(order)}
        elif r < 0.85 or not events:
            node, idx = rng.choice(order[1:]), rng.randrange(4)
            if any(ev[0] is node and ev[1] == idx for ev in events):
                continue
            ev = (node, idx, rng.choice("RW"), rng.randrange(5))
            h.insert(om, *ev)
            events.append(ev)
        else:
            node, idx, _, _ = events.pop(rng.randrange(len(events)))
            assert h.remove(om, node, idx)
        want = sorted(events, key=lambda ev: pos(ev[0], ev[1]))
        assert [tuple(ev) for ev in h.events] == want
        writes = [ev[3] for ev in want if ev[2] == "W"]
        assert h.last_write("base") == (writes[-1] if writes else "base")
        probes = [(head, -1)] + [(n, i) for n in rng.sample(order, 2)
                                 for i in (-1, 0, 4)]
        probes += [ev[:2] for ev in rng.sample(events, min(3, len(events)))]
        for node, idx in probes:
            p = pos(node, idx)
            writes = [ev[3] for ev in want
                      if ev[2] == "W" and pos(ev[0], ev[1]) < p]
            assert h.value_at(om, key(node, idx), "base") == (
                writes[-1] if writes else "base")
            readers = []
            for ev in want:
                if pos(ev[0], ev[1]) <= p:
                    continue
                if ev[2] == "W":
                    break
                readers.append((ev[0], ev[1], ev[3]))
            assert h.readers_after(om, key(node, idx)) == readers
    assert om.relabels > 3


def _run_shapes(body):
    """The action types of each trace node the Runtime builds for `body`,
    a program over one-cell inputs c = 1, d = 2 and out = 0."""
    prog = parse_program("input c\ninput d\ninput out\n\n" + body +
                         "\narity 1\n")
    store = Store()
    c, d, out = store.alloc(1), store.alloc(1), store.alloc(1)
    for loc, v in ((c, 1), (d, 2), (out, 0)):
        store.write(loc, 1, v)
    rt = Runtime(prog, store, inputs={"c": c, "d": d, "out": out})
    shapes, n = [], rt.head.next
    while n is not rt.tail:
        shapes.append([type(a) for a in n.actions] if n.kind == "run"
                      else n.kind)
        n = n.next
    return shapes


def test_pack_straight_line_with_leading_memo_is_one_node():
    assert _run_shapes("""
memo
  let x = read(c, 1) in
  let w = write(out, 1, x) in
  pop(x)""") == [[TMemo, TRead, TWrite, TPop]]


def test_pack_memo_must_be_first():
    assert _run_shapes("""
let x = read(c, 1) in
memo
  pop(x)""") == [[TRead], [TMemo, TPop]]


def test_pack_update_ends_its_run():
    assert _run_shapes("""
let x = read(c, 1) in
update
  let y = read(d, 1) in
  pop(y)""") == [[TRead, TUpdate], [TRead, TPop]]


def _guards_by_walk(rt):
    """Each live run node's guard, found by walking the trace from the head:
    the nearest earlier run node that ends in an update, unless a bracket
    comes between them."""
    guards, guard = {}, None
    n = rt.head.next
    while n is not rt.tail:
        if n.kind == "run":
            guards[n] = guard
            if isinstance(n.actions[-1], TUpdate):
                guard = n
        else:
            guard = None
        n = n.next
    return guards


def _check_run_nodes(rt, where):
    n = rt.head.next
    while n is not rt.tail:
        if n.kind == "run":
            assert not any(isinstance(a, TMemo)
                           for a in n.actions[1:]), where
            assert not any(isinstance(a, (TUpdate, TPop))
                           for a in n.actions[:-1]), where
            # Maximal packing: only a memo point starts a run node that
            # follows another run node without an update or pop between.
            if n.next.kind == "run" and \
                    not isinstance(n.actions[-1], (TUpdate, TPop)):
                assert isinstance(n.next.actions[0], TMemo), where
        n = n.next
    # One guard per live run node, the one the trace order determines.
    assert rt.enclosing == _guards_by_walk(rt), where
    # The trace is its own order-maintenance list: live, linked both ways,
    # labels increasing.
    n = rt.head
    while n is not rt.tail:
        assert n.alive and n.next.prev is n, where
        assert n.label < n.next.label, where
        n = n.next
    assert n.alive, where


def test_run_nodes_are_packed_maximally_and_guarded_by_trace_order(corpus):
    cases = [(b.name, b.program if b.native_csa
              else dps_convert_program(b.program), b.build(), b.edit_slots)
             for b in corpus]
    for seed in range(40):
        case = gen_program(seed)
        cases.append((seed, dps_convert_program(case.program), case.build(),
                      case.edit_slots))
    for name, prog, (store, labels, inputs), slots in cases:
        rt = Runtime(prog, store.copy(), inputs=inputs, fuel=400000)
        _check_run_nodes(rt, (name, "build"))
        if not slots:
            continue
        host = store.copy()
        for batch in range(6):
            edits = gen_edits(1000 + batch, host, labels, slots, 2)
            apply_edits(host, labels, edits)
            rt.propagate([e.resolve(labels) for e in edits])
            _check_run_nodes(rt, (name, batch))


_NESTED_MEMO = """
input c
input d
input out

update
  let x = read(c, 1) in
  let w = write(out, 1, x) in
  update
    memo
      memo
        let z = read(d, 1) in
        pop(z)
arity 1
"""


def _nested_memo_case():
    """_NESTED_MEMO with its inputs c = 1, d = 2 and out = 0."""
    prog = parse_program(_NESTED_MEMO)
    store = Store()
    c, d, out = store.alloc(1), store.alloc(1), store.alloc(1)
    for loc, v in ((c, 1), (d, 2), (out, 0)):
        store.write(loc, 1, v)
    return prog, store, {"c": c, "d": d, "out": out}


def test_a_memo_match_repairs_guards_up_to_the_next_update():
    # Editing c re-evaluates the outer update and retires the inner one,
    # which guarded both the matched memo node [M1] and the node
    # [M2, R d, pop] after it; both must take the new inner update.
    prog, store, inputs = _nested_memo_case()
    c = inputs["c"]
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    rt = Runtime(prog, store.copy(), inputs=inputs)
    fast = rt.propagate([(c, 1, 5)])
    assert fast.matches == 1
    _check_run_nodes(rt, "after the match")
    s2 = store.copy()
    s2.write(c, 1, 5)
    t2 = propagation_machine(prog, t1.trace, s2.copy()).run()
    assert canonicalize(t2.values, t2.trace, t2.store, s2) == \
        canonicalize(fast.values, fast.trace, fast.store, s2)


@pytest.mark.parametrize("edits", [{"d": 7}, {"c": 5, "d": 7}],
                         ids=["d", "c-and-d"])
def test_a_read_after_a_memo_match_is_checked_before_the_next_update(edits):
    # The update guarding read(d, 1) re-evaluates straight into a memo
    # match, so the read is replayed, not re-run: both engines get stuck
    # on its new value.
    prog, store, inputs = _nested_memo_case()
    edits = [(inputs[name], 1, v) for name, v in edits.items()]
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    s2 = store.copy()
    for loc, off, v in edits:
        s2.write(loc, off, v)
    with pytest.raises(Stuck) as faithful:
        propagation_machine(prog, t1.trace, s2).run()
    rt = Runtime(prog, store.copy(), inputs=inputs)
    with pytest.raises(Stuck) as fast:
        rt.propagate(edits)
    assert faithful.value.family == fast.value.family == "P.2"


def test_mark_dirty_untouched_entry_enqueues_nothing():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    # maxcell is written, never read before its final write; editing an
    # unread cell enqueues nothing.  arr[8] is read by round one, so use a
    # fresh location instead: the maxcell is only read by nothing.
    out = rt.mark_dirty(labels["maxcell"], 1, 123)
    assert out == set()


def test_mark_dirty_enqueues_first_round_update():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    out = rt.mark_dirty(labels["arr"], 1, 99)
    assert len(out) == 1  # exactly the round-one pair update for (arr1, arr2)


def test_edit_then_edit_back_skips_at_dequeue():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    original = store.read(labels["arr"], 2)
    fast = rt.propagate([(labels["arr"], 2, 0),
                         (labels["arr"], 2, original)])
    assert fast.eval_steps == 0 and fast.undo_steps == 0
    assert fast.skipped >= 1  # re-verified clean at dequeue


def test_clean_propagate_fast_zero_reevaluations(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        rt = Runtime(bench.program, store, inputs=inputs)
        before = rt.final_values()
        fast = rt.propagate([])
        assert fast.realized == 0 and not fast.reevaluated
        assert fast.values == before


def test_exptrees_dps_rebuild_exact_update_set():
    bench = exptrees_fixture()
    prog = dps_convert_program(bench.program)
    store, labels, inputs = bench.build()
    # Faithful machine first, to learn the exact P.E set.
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    s2 = store.copy()
    apply_edits(s2, labels, bench.fixture_edits["lower"])
    m = propagation_machine(prog, t1.trace, s2.copy())
    t2 = m.run()
    rt = Runtime(prog, store.copy(), inputs=inputs)
    fast = rt.propagate([e.resolve(labels)
                          for e in bench.fixture_edits["lower"]])
    assert len(fast.reevaluated) == t2.log.count("P.E") == 2


def test_fast_equivalence_corpus(corpus):
    for bench in corpus:
        prog = (bench.program if bench.native_csa
                else dps_convert_program(bench.program))
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
        rt = Runtime(prog, store.copy(), inputs=inputs)
        assert canonicalize(t1.values, t1.trace, t1.store, store) == \
            canonicalize(rt.final_values(), rt.build_trace(),
                         rt.build_store(), store), bench.name
        if not bench.edit_slots:
            continue
        edits = gen_edits(5, store, labels, bench.edit_slots, 2)
        s2 = store.copy()
        apply_edits(s2, labels, edits)
        m = propagation_machine(prog, t1.trace, s2.copy())
        t2 = m.run()
        fast = rt.propagate([e.resolve(labels) for e in edits])
        assert canonicalize(t2.values, t2.trace, t2.store, s2) == \
            canonicalize(fast.values, fast.trace, fast.store, s2), bench.name
        cv = cost_vector(t2.log)
        assert cv.tracing == (fast.eval_steps, fast.prop_equivalent,
                              fast.undo_steps), bench.name
        assert t2.log.count("P.E") == len(fast.reevaluated), bench.name


def test_fast_equivalence_fuzz_batch():
    for seed in range(120):
        case = gen_program(seed)
        prog = dps_convert_program(case.program)
        store, labels, inputs = case.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs, fuel=400000)
        rt = Runtime(prog, store.copy(), inputs=inputs, fuel=400000)
        edits = gen_edits(seed + 31, store, labels, case.edit_slots, 2)
        s2 = store.copy()
        apply_edits(s2, labels, edits)
        m = propagation_machine(prog, t1.trace, s2.copy())
        t2 = m.run(400000)
        fast = rt.propagate([e.resolve(labels) for e in edits], fuel=400000)
        assert canonicalize(t2.values, t2.trace, t2.store, s2) == \
            canonicalize(fast.values, fast.trace, fast.store, s2), seed
        cv = cost_vector(t2.log)
        assert cv.tracing == (fast.eval_steps, fast.prop_equivalent,
                              fast.undo_steps), seed
        assert t2.log.count("P.E") == len(fast.reevaluated), seed


def test_list_sum_fast_realized_not_worse_than_faithful():
    bench = gen_list("sum", 1024, seed=9)
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    rt = Runtime(bench.program, store.copy(), inputs=inputs)
    edits = [Edit("c17", 1, 999)]
    s2 = store.copy()
    apply_edits(s2, labels, edits)
    m = propagation_machine(bench.program, t1.trace, s2.copy())
    t2 = m.run()
    faithful_realized = cost_vector(t2.log).realized
    fast = rt.propagate([e.resolve(labels) for e in edits])
    assert fast.realized <= faithful_realized
    assert fast.values == t2.values


def test_garbage_retirement_bounded_removals():
    bench = exptrees_fixture()
    prog = dps_convert_program(bench.program)
    store, labels, inputs = bench.build()
    edits = bench.fixture_edits["lower"]
    rt = Runtime(prog, store.copy(), inputs=inputs)
    fast = rt.propagate([e.resolve(labels) for e in edits])
    assert rt.entry_removals  # allocations were retired
    assert all(n <= 2 for n in rt.entry_removals.values())
    # No entry of a retired location keeps a history.
    assert not {lid for lid, _ in rt.histories} & rt.base.garbage
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    s2 = store.copy()
    apply_edits(s2, labels, edits)
    t2 = propagation_machine(prog, t1.trace, s2.copy()).run()
    assert canonicalize(t2.values, t2.trace, t2.store, s2) == \
        canonicalize(fast.values, fast.trace, fast.store, s2)


def test_soak_list_map_keeps_updates_last_and_no_garbage_histories():
    bench = gen_list("map", 32, seed=4)
    store, labels, inputs = bench.build()
    host = store.copy()
    rt = Runtime(bench.program, store.copy(), inputs=inputs)
    for batch in range(1, 41):
        edits = gen_edits(100 + batch, host, labels, bench.edit_slots, 1)
        apply_edits(host, labels, edits)
        fast = rt.propagate([e.resolve(labels) for e in edits])
        assert not {lid for lid, _ in rt.histories} & rt.base.garbage, batch
        assert rt.live_entries == len(rt.flat_trace()), batch
        n = rt.head.next
        while n is not rt.tail:
            if n.kind == "run":
                assert not any(isinstance(a, TUpdate)
                               for a in n.actions[:-1]), batch
            n = n.next
        if batch % 10 == 0:
            fresh = run_from_scratch(bench.program, non_garbage(host.copy()),
                                     inputs=inputs)
            assert canonicalize(fast.values, fast.trace, fast.store, host) == \
                canonicalize(fresh.values, fresh.trace, fresh.store, host), \
                batch


def _store_state(s):
    return s.cells, s.sizes, s.garbage, s.next_id


def test_propagate_never_walks_the_whole_trace(monkeypatch):
    def forbidden(name):
        def walk(self):
            raise AssertionError(f"propagate called Runtime.{name}")
        return walk

    for bench in (gen_array_max(256, "b"), gen_list("map", 32, seed=4)):
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        rt = Runtime(bench.program, store.copy(), inputs=inputs)
        edits = gen_edits(7, store, labels, bench.edit_slots, 1)
        s2 = store.copy()
        apply_edits(s2, labels, edits)
        t2 = propagation_machine(bench.program, t1.trace, s2.copy()).run()
        with monkeypatch.context() as m:
            for name in ("flat_trace", "build_trace", "build_store"):
                m.setattr(Runtime, name, forbidden(name))
            fast = rt.propagate([e.resolve(labels) for e in edits])
            seen = (fast.values, fast.realized, fast.prop_equivalent)
        cv = cost_vector(t2.log)
        assert seen == (t2.values, cv.realized, cv.tracing[1]), bench.name
        assert canonicalize(t2.values, t2.trace, t2.store, s2) == \
            canonicalize(fast.values, fast.trace, fast.store, s2), bench.name


def test_a_result_goes_stale_at_the_next_batch():
    bench = gen_array_max(64, "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    first = rt.propagate([(labels["arr"], 1, 999)])
    assert _store_state(first.store) == _store_state(rt.build_store())
    assert first.trace == rt.build_trace()
    counts = (first.values, first.realized, first.prop_equivalent)
    second = rt.propagate([(labels["arr"], 2, -5)])
    for name in ("store", "trace"):  # read before, and cached
        with pytest.raises(StaleResult):
            getattr(first, name)
    # The values and counts stay readable.
    assert (first.values, first.realized, first.prop_equivalent) == counts
    rt.mark_dirty(labels["arr"], 3, 7)
    for name in ("store", "trace"):  # never read before
        with pytest.raises(StaleResult):
            getattr(second, name)
    third = rt.propagate([])
    assert _store_state(third.store) == _store_state(rt.build_store())
    assert third.trace == rt.build_trace()


def test_trace_node_sharing_reduces_node_count():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    nodes = 0
    actions = 0
    n = rt.head.next
    while n is not rt.tail:
        if n.kind == "run":
            nodes += 1
            actions += len(n.actions)
        n = n.next
    assert actions > nodes  # runs actually share nodes


def test_arity_mismatch_is_stuck_on_every_engine():
    # check_wf reports the mismatch; an engine run without it must still
    # get stuck.
    p = parse_program("let fun f(x, y) =\n  pop(x)\nf(1)\narity 1")
    diags = check_wf(p)
    assert len(diags) == 1 and "'f'" in diags[0].message
    with pytest.raises(Stuck):
        ref_run(p, Store())
    with pytest.raises(Stuck):
        run_from_scratch(p, Store())
    with pytest.raises(Stuck):
        Runtime(p, Store())


def test_store_faults_raise_the_same_error_on_every_engine():
    read = parse_program(
        "let x = alloc(1) in let y = read(x, 1) in pop(y)\narity 1")
    write = parse_program(
        "let x = alloc(1) in let y = write(x, 2, 5) in pop(y)\narity 1")
    for prog, error in ((read, StuckRead), (write, StuckWrite)):
        with pytest.raises(error):
            ref_run(prog, Store())
        with pytest.raises(error):
            run_from_scratch(prog, Store())
        with pytest.raises(error):
            Runtime(prog, Store())


def test_propagate_reports_the_fuel_it_was_given():
    bench = gen_array_max(64, "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    with pytest.raises(FuelExhausted) as exc:
        rt.propagate([(labels["arr"], 1, 999)], fuel=3)
    assert exc.value.fuel == 3


_UNGUARDED_READS = {
    "top-level": """input inp
let x = read(inp, 1) in update let y = read(inp, 1) in pop(y)
arity 1
""",
    "after-end": """input inp
let fun g(c) = let v = read(inp, 1) in pop(v)
push g do update let x = read(inp, 1) in pop(x)
arity 1
""",
    "retired-location": """input inp
let fun g(c) = let v = read(c, 1) in pop(v)
push g do update let x = read(inp, 1) in let c = alloc(1) in
  let w = write(c, 1, x) in pop(c)
arity 1
""",
}


@pytest.mark.parametrize("name, error, family", [
    ("top-level", Stuck, "P.2"),
    ("after-end", Stuck, "P.2"),
    ("retired-location", StuckRead, "S.2"),
])
def test_an_unguarded_dirty_read_sticks_the_same_on_both_engines(
        name, error, family):
    # A dirty read with no enclosing update is replayed, not re-run, so
    # both engines get stuck on it: P.2 on a new value, S.2 when its
    # location was retired by the re-evaluation before it.
    prog = parse_program(_UNGUARDED_READS[name])
    store = Store()
    inp = store.alloc(1)
    store.write(inp, 1, 5)
    t1 = run_from_scratch(prog, store.copy(), inputs={"inp": inp})
    s2 = store.copy()
    s2.write(inp, 1, 7)
    with pytest.raises(Stuck) as faithful:
        propagation_machine(prog, t1.trace, s2).run()
    rt = Runtime(prog, store.copy(), inputs={"inp": inp})
    with pytest.raises(Stuck) as fast:
        rt.propagate([(inp, 1, 7)])
    assert type(faithful.value) is type(fast.value) is error
    assert faithful.value.family == fast.value.family == family
