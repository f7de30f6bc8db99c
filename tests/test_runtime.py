"""The efficient runtime: order maintenance, node packing and guards, entry
histories, dirtying, and full equivalence against the faithful machine."""

import gc
import random
from collections import Counter

import pytest

from sasm.corpus import (Edit, apply_edits, exptrees_fixture,
                         gen_array_max, gen_list)
from sasm.cost import cost_vector
from sasm.dps import dps_convert_program
from sasm.errors import (BrokenRuntime, FuelExhausted, StaleResult, Stuck,
                         StuckRead, StuckWrite)
from sasm.fuzz import gen_edits, gen_program
from sasm.ilast import FunDef, number_exprs, walk_program
from sasm.parser import parse_program
from sasm.refmachine import ref_run
from sasm.runtime import (EntryHistory, OrderMaintenance, Runtime, TraceNode,
                          UseAfterDelete)
from sasm.store import Loc, Store
from sasm.trace import TMemo, TPop, TRead, TUpdate, TWrite, flatten
from sasm.tracing import (canonicalize, non_garbage, propagation_machine,
                          run_from_scratch)
from sasm.wf import check_wf

from om_oracle import NaiveOrder, Tail, key_order


def test_om_insert_after_orders():
    om = OrderMaintenance()
    a = om.origin()
    b = om.insert_after(a)
    assert key_order(om, a, b) == -1
    assert key_order(om, b, a) == 1
    assert key_order(om, a, a) == 0


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
        assert key_order(om, positions[i], positions[j]) == want


def test_om_delete_then_compare_raises():
    om = OrderMaintenance()
    a = om.origin()
    b = om.insert_after(a)
    om.delete(b)
    with pytest.raises(UseAfterDelete):
        key_order(om, a, b)
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
        assert key_order(om, a, b) == want
    order = oracle.order()
    for a, b in zip(order, order[1:]):
        assert key_order(om, a, b) == -1


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
        assert key_order(om, a, b) == -1
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


def _readers_from(h, k):
    """(node, read) of the reads from position k of `h` up to the entry's
    next write."""
    out = []
    while k < len(h.actions) and type(h.actions[k]) is TRead:
        out.append((h.nodes[k], h.actions[k]))
        k += 1
    return out


def _ids(pairs):
    """(node, action) pairs compared by the actions' identity, not value."""
    return [(node, id(a)) for node, a in pairs]


def _insert(h, om, node, a):
    """Index `a`, the last action of `node` so far, as a Runtime read or
    write and `_record` do: one search after the node, an insert there."""
    k = h.after(om, node)
    h.nodes.insert(k, node)
    h.actions.insert(k, a)
    return k


def _remove(h, k):
    del h.nodes[k], h.actions[k]


def test_entry_history_against_a_sorted_list_oracle():
    # Nodes are inserted often right after the first few, so labels run out
    # and successors are spread: the actions are looked up across relabels.
    # Half the new actions go to a node that already holds one, so nodes
    # hold several, which share its label and keep their order in the node.
    rng = random.Random(3)
    om = OrderMaintenance(origin=TraceNode("head"))
    head = om.origin()
    order = [head]  # the true node order, as a plain list
    rank = {head: 0}
    loc = Loc(1)
    h = EntryHistory()
    indexed = []  # the oracle: (node, action) in any order
    shared_probes = 0

    def pos(node, a):
        return rank[node], next(i for i, b in enumerate(node.actions)
                                if b is a)

    for _ in range(1200):
        r = rng.random()
        if r < 0.4 or len(order) < 2:
            after = rng.choice(order[:3] if rng.random() < 0.5 else order)
            node = TraceNode("run")
            om.insert_after(after, node)
            order.insert(order.index(after) + 1, node)
            rank = {n: k for k, n in enumerate(order)}
        elif r < 0.85 or not indexed:
            node = rng.choice(order[1:]) if rng.random() < 0.5 or \
                not indexed else rng.choice(indexed)[0]
            # As in a trace, the action is its node's last when indexed.
            a = rng.choice((TRead, TWrite))(rng.randrange(5), loc, 1)
            node.actions.append(a)
            k = _insert(h, om, node, a)
            assert h.nodes[k] is node and h.actions[k] is a
            indexed.append((node, a))
        else:
            node, a = indexed.pop(rng.randrange(len(indexed)))
            k = h.find(om, node, a)
            assert h.nodes[k] is node and h.actions[k] is a
            _remove(h, k)
        where = {id(a): pos(n, a) for n, a in indexed}
        want = sorted(indexed, key=lambda ev: where[id(ev[1])])
        assert len(h.nodes) == len(h.actions)
        assert _ids(zip(h.nodes, h.actions)) == _ids(want)
        writes = [a.val for _, a in want if type(a) is TWrite]
        assert h.write_before(len(h.actions), "base") == (
            writes[-1] if writes else "base")
        # A probe is an indexed action (found by `find`) or a node (the
        # position after its actions, by `after`).
        probes = [(n, None) for n in [head] + rng.sample(order, 2)]
        probes += rng.sample(indexed, min(3, len(indexed)))
        held = Counter(n for n, _ in indexed)
        shared = [n for n in order if held[n] > 1]
        if shared:
            node = rng.choice(shared)
            probes += [(node, None)] + [ev for ev in indexed
                                        if ev[0] is node]
        for node, a in probes:
            if a is None:
                p, k = (rank[node], len(node.actions)), h.after(om, node)
            else:
                p, k = where[id(a)], h.find(om, node, a)
            assert k == sum(where[id(b)] < p for _, b in want)
            writes = [b.val for _, b in want
                      if type(b) is TWrite and where[id(b)] < p]
            assert h.write_before(k, "base") == (
                writes[-1] if writes else "base")
            readers = []
            for n, b in want:
                if where[id(b)] <= p:
                    continue
                if type(b) is TWrite:
                    break
                readers.append((n, b))
            # A write at `a` breaks the reads after it.
            assert _ids(_readers_from(h, k + (a is not None))) == \
                _ids(readers)
            shared_probes += node in shared
    assert om.relabels > 3
    assert shared_probes > 100


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
    # The histories index exactly the live reads and writes of live
    # entries, each once, beside the node it sits in, in (label, position
    # in node) order: lookups bisect on the nodes' labels and check no
    # node for liveness.
    live, sits = Counter(), {}
    n = rt.head.next
    while n is not rt.tail:
        if n.kind == "run":
            for i, a in enumerate(n.actions):
                sits[id(a)] = (n, i)
                if isinstance(a, (TRead, TWrite)) and \
                        a.loc.id not in rt.base.garbage:
                    live[(n, i)] += 1
        n = n.next
    indexed = Counter()
    for (lid, off), h in rt.histories.items():
        assert len(h.nodes) == len(h.actions), where
        keys = []
        for node, a in zip(h.nodes, h.actions):
            at = sits.get(id(a))
            assert node.alive and at is not None and at[0] is node, where
            assert type(a) in (TRead, TWrite), where
            assert (a.loc.id, a.off) == (lid, off), where
            keys.append((node.label, at[1]))
            indexed[at] += 1
        assert all(a < b for a, b in zip(keys, keys[1:])), where
    assert indexed == live, where


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
    rt.mark_dirty(labels["maxcell"], 1, 123)
    assert rt.queue == []


def test_mark_dirty_enqueues_first_round_update():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    rt.mark_dirty(labels["arr"], 1, 99)
    # exactly the round-one pair update for (arr1, arr2)
    assert len(rt.queue) == 1


def test_edit_then_edit_back_skips_at_dequeue():
    bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    original = store.read(labels["arr"], 2)
    fast = rt.propagate([(labels["arr"], 2, 0),
                         (labels["arr"], 2, original)])
    assert fast.eval_steps == 0 and fast.undo_steps == 0
    assert fast.skipped >= 1  # re-verified clean at dequeue


def test_a_re_evaluated_update_is_not_queued_again():
    # A re-evaluation's writes break reads in the interval it retires, and
    # the update being re-run checks them; it stays queued until it ends,
    # so it is never dequeued a second time only to be skipped.
    bench = gen_list("map", 8, 0)
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    fast = rt.propagate([(labels["c3"], 1, 77)])
    assert len(fast.reevaluated) == 6 and fast.skipped == 0

    bench = gen_list("map", 64, 3)
    store, labels, inputs = bench.build()
    host = store.copy()
    rt = Runtime(bench.program, store.copy(), inputs=inputs)
    for batch in range(1, 21):
        edits = gen_edits(300 + batch, host, labels, bench.edit_slots, 1)
        apply_edits(host, labels, edits)
        fast = rt.propagate([e.resolve(labels) for e in edits])
        assert fast.skipped == 0, batch
    fresh = run_from_scratch(bench.program, non_garbage(host.copy()),
                             inputs=inputs)
    assert canonicalize(fast.values, fast.trace, fast.store, host) == \
        canonicalize(fresh.values, fresh.trace, fresh.store, host)


def test_a_bracket_whose_window_is_clean_again_replays_nothing():
    # Editing inp to 7 queues the end bracket before read(inp, 1); editing
    # it back to 5 in the same batch leaves that window clean.
    prog = parse_program("""input inp
let fun k() = let y = read(inp, 1) in pop(y)
push k do pop()
arity 1
""")
    store = Store()
    inp = store.alloc(1)
    store.write(inp, 1, 5)
    t1 = run_from_scratch(prog, store.copy(), inputs={"inp": inp})
    t2 = propagation_machine(prog, t1.trace, store.copy()).run()
    rt = Runtime(prog, store.copy(), inputs={"inp": inp})
    rt.mark_dirty(inp, 1, 7)
    assert [n.kind for n in rt.queue] == ["end"]
    fast = rt.propagate([(inp, 1, 5)])
    assert fast.values == t2.values == (5,)
    assert fast.realized == 0 and not fast.reevaluated


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
        assert not {lid for lid, _ in rt.base.cells} & rt.base.garbage, batch
        assert rt.live_entries == len(rt.flat_trace()), batch
        assert flatten(rt.build_trace()) == rt.flat_trace(), batch
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


def test_retired_nodes_are_freed_by_reference_counting():
    # No action points back at its node, so no run node is a reference
    # cycle: with the cyclic collector off, every node an edit retires is
    # freed at once, and only the linked ones stay alive.
    gc.collect()
    # Held for the whole test, so no new node can reuse one of their ids.
    older = [o for o in gc.get_objects() if type(o) is TraceNode]
    seen = {id(o) for o in older}
    bench = gen_list("map", 64, 0)
    store, labels, inputs = bench.build()
    host = store.copy()
    gc.disable()
    try:
        rt = Runtime(bench.program, store.copy(), inputs=inputs)
        for batch in range(30):
            edits = gen_edits(500 + batch, host, labels, bench.edit_slots, 1)
            apply_edits(host, labels, edits)
            rt.propagate([e.resolve(labels) for e in edits])
        alive = {id(o) for o in gc.get_objects()
                 if type(o) is TraceNode and id(o) not in seen}
    finally:
        gc.enable()
    linked, n = {id(rt.tail)}, rt.head
    while n is not rt.tail:
        linked.add(id(n))
        n = n.next
    assert len(alive) == len(linked) and alive == linked


def test_soak_head_edits_look_up_histories_across_relabels():
    # Each edit near the list head re-runs the whole tail, inserting its
    # new nodes before the old ones, so labels run out and are spread while
    # the histories are searched on them.
    bench = gen_list("map", 64, seed=4)
    store, labels, inputs = bench.build()
    host = store.copy()
    rt = Runtime(bench.program, store.copy(), inputs=inputs)
    rng = random.Random(8)
    built = rt.om.relabels
    for batch in range(1, 201):
        edits = [Edit(f"c{rng.randint(1, 3)}", 1, rng.randrange(100))]
        apply_edits(host, labels, edits)
        fast = rt.propagate([e.resolve(labels) for e in edits])
        if batch % 20 == 0:
            _check_run_nodes(rt, batch)
            fresh = run_from_scratch(bench.program, non_garbage(host.copy()),
                                     inputs=inputs)
            assert canonicalize(fast.values, fast.trace, fast.store, host) == \
                canonicalize(fresh.values, fresh.trace, fresh.store, host), \
                batch
    assert rt.om.relabels > built + 200


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
            # Guards are read off the trace, never from a table of them.
            m.setattr(Runtime, "enclosing", property(forbidden("enclosing")),
                      raising=False)
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
    # A read of an uninitialized entry, a read through an int, a read at a
    # location offset and a write out of range.
    faults = [
        ("let x = alloc(1) in let y = read(x, 1) in pop(y)", StuckRead),
        ("let a = prim add(1, 2) in let y = read(a, 1) in pop(y)",
         StuckRead),
        ("let x = alloc(1) in let y = read(x, x) in pop(y)", StuckRead),
        ("let x = alloc(1) in let y = write(x, 2, 5) in pop(y)", StuckWrite),
    ]
    for text, error in faults:
        prog = parse_program(text + "\narity 1")
        with pytest.raises(error):
            ref_run(prog, Store())
        with pytest.raises(error):
            run_from_scratch(prog, Store())
        with pytest.raises(error):
            Runtime(prog, Store())


def test_an_update_reading_through_a_cell_edited_to_an_int_is_stuck():
    # The cell held a location; edited to an int, the re-run update reads
    # through it.
    through = parse_program("""input cell
update let p = read(cell, 1) in let x = read(p, 1) in pop(x)
arity 1
""")
    store = Store()
    cell, target = store.alloc(1), store.alloc(1)
    store.write(target, 1, 4)
    store.write(cell, 1, target)
    t1 = run_from_scratch(through, store.copy(), inputs={"cell": cell})
    assert t1.values == (4,)
    s2 = store.copy()
    s2.write(cell, 1, 3)
    with pytest.raises(StuckRead):
        propagation_machine(through, t1.trace, s2).run()
    rt = Runtime(through, store.copy(), inputs={"cell": cell})
    with pytest.raises(StuckRead):
        rt.propagate([(cell, 1, 3)])


def test_mark_dirty_of_an_entry_outside_the_store_is_a_key_error():
    bench = gen_array_max(8, "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    generation = rt.generation
    for loc, off in ((labels["arr"], 9), (Loc(10_000), 1)):
        with pytest.raises(KeyError):
            rt.mark_dirty(loc, off, 1)
    assert rt.generation == generation and rt.queue == []


def test_propagate_reports_the_fuel_it_was_given():
    bench = gen_array_max(64, "b")
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    with pytest.raises(FuelExhausted) as exc:
        rt.propagate([(labels["arr"], 1, 999)], fuel=3)
    assert exc.value.fuel == 3


def _runtime_after_fuel_runs_out():
    bench = gen_list("map", 16, 3)
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store, inputs=inputs)
    with pytest.raises(FuelExhausted):
        rt.propagate([(labels["c5"], 1, 77)], fuel=10)
    return rt, labels["c5"], FuelExhausted


def _runtime_after_a_stuck_read():
    prog = parse_program(_UNGUARDED_READS["top-level"])
    store = Store()
    inp = store.alloc(1)
    store.write(inp, 1, 5)
    rt = Runtime(prog, store, inputs={"inp": inp})
    with pytest.raises(Stuck) as exc:
        rt.propagate([(inp, 1, 7)])
    assert exc.value.family == "P.2"
    return rt, inp, Stuck


@pytest.mark.parametrize("failed", [_runtime_after_fuel_runs_out,
                                    _runtime_after_a_stuck_read])
def test_a_runtime_whose_propagate_raised_refuses_later_use(failed):
    # The failed propagation left the run half re-evaluated: a later
    # propagate would return a result that disagrees with a fresh run.
    rt, loc, error = failed()
    with pytest.raises(BrokenRuntime) as exc:
        rt.propagate([])
    assert type(exc.value.cause) is error
    assert error.__name__ in str(exc.value)
    with pytest.raises(BrokenRuntime):
        rt.mark_dirty(loc, 1, 1)
    with pytest.raises(BrokenRuntime):
        rt.propagate([(loc, 1, 1)])


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
    "before-a-stuck-update": """input inp
let x = read(inp, 1) in update let y = read(inp, 1) in
  let k = prim eq(y, 5) in
  if k then pop(y) else let w = read(inp, 2) in pop(w)
arity 1
""",
    "before-a-looping-update": """input inp
let fun spin(n) = spin(n)
let x = read(inp, 1) in update let y = read(inp, 1) in
  let k = prim eq(y, 5) in
  if k then pop(y) else spin(y)
arity 1
""",
}


@pytest.mark.parametrize("name, error, family", [
    ("top-level", Stuck, "P.2"),
    ("after-end", Stuck, "P.2"),
    ("retired-location", StuckRead, "S.2"),
    ("before-a-stuck-update", Stuck, "P.2"),
    ("before-a-looping-update", Stuck, "P.2"),
])
def test_an_unguarded_dirty_read_sticks_the_same_on_both_engines(
        name, error, family):
    # A dirty read with no enclosing update is replayed, not re-run, so
    # both engines get stuck on it: P.2 on a new value, S.2 when its
    # location was retired by the re-evaluation before it.  A read before
    # a dirty update point sticks before that update re-runs.
    prog = parse_program(_UNGUARDED_READS[name])
    store = Store()
    inp = store.alloc(1)
    store.write(inp, 1, 5)
    t1 = run_from_scratch(prog, store.copy(), inputs={"inp": inp})
    s2 = store.copy()
    s2.write(inp, 1, 7)
    with pytest.raises(Stuck) as faithful:
        propagation_machine(prog, t1.trace, s2).run(fuel=10_000)
    rt = Runtime(prog, store.copy(), inputs={"inp": inp})
    with pytest.raises(Stuck) as fast:
        rt.propagate([(inp, 1, 7)], fuel=10_000)
    assert type(faithful.value) is type(fast.value) is error
    assert faithful.value.family == fast.value.family == family


# -- environment ownership -------------------------------------------------------

# Each engine's rules update the running environment in place; the one copy
# is made at a push.  Each program reads inp[1] = 1 under an update point at
# the entry, and the edit writes 2 there, so a propagation re-runs it all.
OWNERSHIP_CASES = {
    # The push body's recursive call rebinds x, which the pushed k reads
    # after the pop (dynamic scope): 1 + 10 + 100, then 2 + 20 + 200.
    "push-body-rebinds-a-read-name": ("""
let fun f(x, n) =
  let fun k(v) =
    let s = prim add(v, x) in
    pop(s)
  in
  if n then
    let m = prim sub(n, 1) in
    let x1 = prim mul(x, 10) in
    push k do
      f(x1, m)
  else
    pop(x)
update
  let a = read(inp, 1) in
  f(a, 2)
""", 111, 222),
    # f(y, x, m) with parameters (x, y, n) swaps: 5 - 1, then 5 - 2.
    "call-swaps-its-arguments": ("""
let fun f(x, y, n) =
  if n then
    let m = prim sub(n, 1) in
    f(y, x, m)
  else
    let d = prim sub(x, y) in
    pop(d)
update
  let a = read(inp, 1) in
  f(a, 5, 1)
""", 4, 3),
    # The push body binds k again (kk, renamed to k once parsed); the pop
    # must still apply the k the push saw: 1 + 1, then 2 + 1.
    "push-body-rebinds-the-pushed-function": ("""
update
  let a = read(inp, 1) in
  let fun k(v) =
    let s = prim add(v, 1) in
    pop(s)
  in
  push k do
    let fun kk(w) =
      let t = prim mul(w, 100) in
      pop(t)
    in
    pop(a)
""", 2, 3),
}


@pytest.mark.parametrize("case", sorted(OWNERSHIP_CASES))
def test_every_engine_owns_its_environment(case):
    src, before, after = OWNERSHIP_CASES[case]
    prog = parse_program("input inp\n" + src + "arity 1\n")
    for e in walk_program(prog):
        if isinstance(e, FunDef) and e.fname == "kk":
            e.fname = "k"
    number_exprs(prog)
    store = Store()
    inp = store.alloc(1)
    store.write(inp, 1, 1)
    edited = store.copy()
    edited.write(inp, 1, 2)
    inputs = {"inp": inp}
    assert ref_run(prog, store.copy(), inputs=inputs).values == (before,)
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
    assert t1.values == (before,)
    rt = Runtime(prog, store.copy(), inputs=inputs)
    assert rt.final_values() == (before,)
    assert ref_run(prog, edited.copy(), inputs=inputs).values == (after,)
    t2 = propagation_machine(prog, t1.trace, edited.copy()).run()
    assert t2.values == (after,)
    fast = rt.propagate([(inp, 1, 2)])
    assert fast.values == (after,)
    assert canonicalize(t2.values, t2.trace, t2.store, edited) == \
        canonicalize(fast.values, fast.trace, fast.store, edited)


def test_an_empty_history_still_refuses_a_retired_node():
    om = OrderMaintenance(origin=TraceNode("head"))
    node = om.insert_after(om.origin(), TraceNode("run"))
    h = EntryHistory()
    assert h.after(om, node) == 0
    om.delete(node)
    with pytest.raises(UseAfterDelete):
        h.after(om, node)


def _index_from_trace(rt):
    """Each entry's reads and writes, with the nodes that hold them, in the
    order of `rt.flat_trace()`: the histories rebuilt from the trace."""
    index, flat = {}, []
    n = rt.head.next
    while n is not rt.tail:
        if n.kind != "run":
            flat.append("(" if n.kind == "begin" else ")")
        for a in n.actions:
            flat.append(a)
            if type(a) is TRead or type(a) is TWrite:
                nodes, actions = index.setdefault((a.loc.id, a.off),
                                                  ([], []))
                nodes.append(n)
                actions.append(a)
        n = n.next
    want = rt.flat_trace()
    assert len(flat) == len(want)
    assert all(a is b for a, b in zip(flat, want))
    return index


def _check_histories(rt, where):
    index = _index_from_trace(rt)
    for key, h in rt.histories.items():
        nodes, actions = index.pop(key, ([], []))
        assert len(h.nodes) == len(nodes) == len(h.actions), (where, key)
        assert all(a is b for a, b in zip(h.nodes, nodes)), (where, key)
        assert all(a is b for a, b in zip(h.actions, actions)), (where, key)
        for node, a in zip(h.nodes, h.actions):
            assert node.alive and any(b is a for b in node.actions), where
    assert not index, where
    # An entry is available exactly when it has a cell: garbage has none.
    assert not {lid for lid, _ in rt.base.cells} & rt.base.garbage, where


def test_histories_equal_an_index_rebuilt_from_the_trace(corpus):
    # Propagation is promised for CSA programs, so a native program that is
    # not CSA is only built.
    cases = []
    for b in corpus:
        cases.append(((b.name, "native"), b.program, b.build(),
                      b.edit_slots if b.native_csa else []))
        cases.append(((b.name, "dps"), dps_convert_program(b.program),
                      b.build(), b.edit_slots))
    for seed in range(200):
        case = gen_program(seed)
        cases.append((seed, dps_convert_program(case.program), case.build(),
                      case.edit_slots))
    relabeled = 0
    for name, prog, (store, labels, inputs), slots in cases:
        rt = Runtime(prog, store.copy(), inputs=inputs, fuel=400000)
        # A build relabels once its nodes fill the gap before the tail, and
        # every read and write after that is indexed at a position found
        # before its node was linked.
        relabeled += rt.om.relabels > 0
        _check_histories(rt, (name, "build"))
        host = store.copy()
        for batch in range(4 if slots else 0):
            edits = gen_edits(2000 + batch, host, labels, slots, 2)
            apply_edits(host, labels, edits)
            rt.propagate([e.resolve(labels) for e in edits], fuel=400000)
            _check_histories(rt, (name, batch))
    assert relabeled > 10


@pytest.mark.parametrize("bench", [gen_array_max(64, "b"),
                                   gen_list("map", 32, 3)],
                         ids=lambda b: b.name)
def test_one_history_search_per_traced_read_or_write(monkeypatch, bench):
    # Every EntryHistory search counts, except a window check's: it
    # re-reads a recorded read, which is no session step.
    counts = Counter()
    checking = []
    for name in ("after", "find"):
        def search(*args, _search=getattr(EntryHistory, name)):
            counts["searches"] += not checking
            return _search(*args)
        monkeypatch.setattr(EntryHistory, name, search)
    window_dirty, record = Runtime.window_dirty, Runtime._record

    def check(self, node):
        checking.append(node)
        try:
            return window_dirty(self, node)
        finally:
            checking.pop()

    def count(self, a, region):
        counts["recorded"] += type(a) is TRead or type(a) is TWrite
        record(self, a, region)

    monkeypatch.setattr(Runtime, "window_dirty", check)
    monkeypatch.setattr(Runtime, "_record", count)
    store, labels, inputs = bench.build()
    rt = Runtime(bench.program, store.copy(), inputs=inputs)
    assert counts["recorded"] == sum(type(a) in (TRead, TWrite)
                                     for a in rt.flat_trace())
    assert 0 < counts["searches"] <= counts["recorded"]
    counts.clear()
    edits = gen_edits(7, store, labels, bench.edit_slots, 1)
    rt.propagate([e.resolve(labels) for e in edits])
    assert 0 < counts["searches"] <= counts["recorded"]
