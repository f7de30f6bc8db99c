"""The efficient runtime: retained traces, order-maintenance timestamps,
per-entry store histories, a memo index and priority-queue change propagation.

Instead of replaying the whole trace, the runtime keeps it retained across
runs: every read and write stays indexed per store entry and ordered by an
order-maintenance timestamp, so an edit finds exactly the reads it breaks and
enqueues their enclosing update points.  Propagation dequeues update points
in trace order, re-verifies them against the history, and re-runs just the
evaluation steps, splicing new trace nodes over the interval they replace; a
memo hit ends the re-run and keeps the matched tail in place.  Retained
actions are never replayed, so propagation steps cost nothing here; realized
cost is the evaluation plus undo work alone.

Consecutive actions share a node: a memo point starts a node and an update
point ends one, so the interval a re-evaluation replaces starts at a node
boundary and no node is ever split.

Timestamps do the heavy lifting: new nodes are inserted between the
re-evaluated update point and the doomed old interval, so a history lookup
at a new node's time sees exactly the store the faithful machine would see
at that replay moment (earlier writes included, unreplayed and later writes
excluded).

The behavior mirrors the faithful tracing machine under the default policy;
tests assert equality of values, live store, flattened trace and the set of
re-evaluated update points over the corpus and fuzzed edit batches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Optional

from . import ilast as A
from .analyses import LiveSet, live_vars
from .errors import (DEFAULT_FUEL, FuelExhausted, Stuck, StuckRead,
                     StuckWrite)
from .refmachine import (Frame, Values, apply_frame, control_step,
                         initial_env)
from .store import Loc, MachineValue, Store, UNINIT
from .tracing import saved_env, traced_step
from .trace import (TAlloc, TMemo, TPop, TPush, TRead, TUpdate, TWrite,
                    Trace, from_list)


# -- order maintenance --------------------------------------------------------


class UseAfterDelete(Exception):
    pass


class OMHandle:
    __slots__ = ("group", "sub", "alive")

    def __init__(self, group, sub):
        self.group = group
        self.sub = sub
        self.alive = True


class _Group:
    __slots__ = ("label", "items", "prev", "next")

    def __init__(self, label: int):
        self.label = label
        self.items: list[OMHandle] = []
        self.prev: Optional[_Group] = None
        self.next: Optional[_Group] = None


_SUBGAP = 1 << 20
_GROUPGAP = 1 << 26
_GROUP_CAP = 64


class OrderMaintenance:
    """Two-level list labeling (Dietz-Sleator style): groups carry integer
    labels, items carry sub-labels; comparison is label-pair comparison,
    insertion relabels locally and splits groups on overflow."""

    def __init__(self):
        g = _Group(0)
        self._first_group = g
        origin = OMHandle(g, 0)
        g.items.append(origin)
        self._origin = origin
        self.relabels = 0

    def origin(self) -> OMHandle:
        return self._origin

    def insert_after(self, h: OMHandle) -> OMHandle:
        if not h.alive:
            raise UseAfterDelete("insert after a deleted handle")
        g = h.group
        i = g.items.index(h)
        nxt_sub = (g.items[i + 1].sub if i + 1 < len(g.items)
                   else h.sub + 2 * _SUBGAP)
        sub = (h.sub + nxt_sub) // 2
        if sub == h.sub:
            self._relabel_group(g)
            return self.insert_after(h)
        new = OMHandle(g, sub)
        g.items.insert(i + 1, new)
        if len(g.items) > _GROUP_CAP:
            self._split_group(g)
        return new

    def delete(self, h: OMHandle) -> None:
        if not h.alive:
            raise UseAfterDelete("double delete")
        h.alive = False
        h.group.items.remove(h)

    def compare(self, a: OMHandle, b: OMHandle) -> int:
        ka, kb = self.key(a), self.key(b)
        return -1 if ka < kb else (1 if ka > kb else 0)

    def key(self, h: OMHandle) -> tuple[int, int]:
        if not h.alive:
            raise UseAfterDelete("use of a deleted handle")
        return (h.group.label, h.sub)

    def _relabel_group(self, g: _Group) -> None:
        self.relabels += 1
        for k, item in enumerate(g.items):
            item.sub = k * _SUBGAP

    def _split_group(self, g: _Group) -> None:
        self.relabels += 1
        half = len(g.items) // 2
        moved = g.items[half:]
        del g.items[half:]
        if g.next is None:
            label = g.label + 2 * _GROUPGAP
        else:
            label = (g.label + g.next.label) // 2
            if label == g.label:
                self._renumber_groups()
                label = (g.label + g.next.label) // 2
        ng = _Group(label)
        ng.items = moved
        for k, item in enumerate(moved):
            item.group = ng
            item.sub = k * _SUBGAP
        ng.prev, ng.next = g, g.next
        if g.next is not None:
            g.next.prev = ng
        g.next = ng

    def _renumber_groups(self) -> None:
        self.relabels += 1
        g = self._first_group
        label = 0
        while g is not None:
            g.label = label
            label += 2 * _GROUPGAP
            g = g.next


# -- trace nodes and packing -----------------------------------------------------

def pack_runs(stream: list) -> list[list]:
    """Greedy node packing: a memo point starts a run and an update point
    ends one, so an update is always the last action of its node and a
    re-evaluation never has to split a node."""
    runs: list[list] = []
    cur: list = []
    for item in stream:
        if isinstance(item, TMemo) and cur:
            runs.append(cur)
            cur = []
        cur.append(item)
        if isinstance(item, TUpdate):
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return runs


class TraceNode:
    """One timestamp shared by a run of consecutive actions, or a region
    bracket; nodes form a doubly-linked list in trace order."""

    __slots__ = ("kind", "actions", "ts", "prev", "next", "region",
                 "retired", "partner")

    def __init__(self, kind: str, actions=None):
        self.kind = kind  # "run" | "begin" | "end" | "head" | "tail"
        self.actions: list = actions if actions is not None else []
        self.ts: OMHandle = None  # type: ignore[assignment]
        self.prev: Optional["TraceNode"] = None
        self.next: Optional["TraceNode"] = None
        self.region: Optional["TraceNode"] = None  # innermost begin node
        self.retired = False
        self.partner: Optional["TraceNode"] = None  # begin<->end

    def __repr__(self):
        return f"<{self.kind}@{id(self) & 0xffff:x} {self.actions!r}>"


# -- per-entry histories -----------------------------------------------------------


def _by_time(om: OrderMaintenance):
    """The sort key of an entry-history event: its node's timestamp, then
    its index in the node."""
    return lambda ev: (*om.key(ev[0].ts), ev[1])


class EntryHistory:
    """All reads and writes of one store entry across the retained trace,
    ordered by timestamp; the value at a time is the latest write at or
    before it, falling back to the base store.

    Relabeling keeps timestamp order, so the events stay sorted by their
    current keys and lookups bisect on them."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[list] = []  # [node, idx, kind, value]

    def insert(self, om, node, idx, kind, value) -> None:
        insort(self.events, [node, idx, kind, value], key=_by_time(om))

    def remove(self, om, node, idx) -> bool:
        events = self.events
        k = bisect_left(events, (*om.key(node.ts), idx), key=_by_time(om))
        if k < len(events) and events[k][0] is node and events[k][1] == idx:
            del events[k]
            return True
        return False

    def value_at(self, om, key, base_value):
        """The latest write before `key`, else base_value."""
        k = bisect_left(self.events, key, key=_by_time(om))
        while k:
            k -= 1
            ev = self.events[k]
            if ev[2] == "W":
                return ev[3]
        return base_value

    def last_write(self, base_value):
        for node, idx, kind, value in reversed(self.events):
            if kind == "W":
                return value
        return base_value

    def readers_after(self, om, key) -> list:
        """(node, idx, value) of the reads after `key`, up to the entry's
        next write."""
        events = self.events
        k = bisect_right(events, key, key=_by_time(om))
        out = []
        while k < len(events) and events[k][2] == "R":
            node, idx, _, value = events[k]
            out.append((node, idx, value))
            k += 1
        return out


# -- the store seen by an evaluation session ------------------------------------


class _SessionStore:
    """The store as one evaluation session sees it, for `traced_step`.

    Allocation goes to the input store.  A read sees the session's writes
    not yet flushed into trace nodes, then the entry's history just after
    `at`, the last node the session spliced in.  A write is range-checked
    and held until the next flush records it in the history.
    """

    __slots__ = ("rt", "at", "pending")

    def __init__(self, rt: "Runtime", at: TraceNode):
        self.rt = rt
        self.at = at
        self.pending: dict[tuple[int, int], MachineValue] = {}

    def alloc(self, size, loc_id=None) -> Loc:
        return self.rt.base.alloc(size, loc_id)

    def read(self, loc, off) -> MachineValue:
        v = self.pending.get((loc.id, off)) if isinstance(loc, Loc) else None
        if v is None:
            # Index 1 << 40 places the key after every action of `at`.
            v = self.rt._value_now(loc, off,
                                   (*self.rt.om.key(self.at.ts), 1 << 40))
        if v is None or v is UNINIT:
            raise StuckRead(f"read of {loc!r}[{off!r}] unavailable")
        return v

    def write(self, loc, off, val) -> int:
        if not isinstance(loc, Loc) or self.rt.base.peek(loc, off) is None:
            raise StuckWrite(f"write of {loc!r}[{off!r}] out of range")
        self.pending[(loc.id, off)] = val
        return 0


# -- results -------------------------------------------------------------------------


@dataclass
class FastResult:
    values: tuple[MachineValue, ...]
    store: Store
    trace: Trace
    realized: int
    eval_steps: int
    undo_steps: int
    prop_equivalent: int
    reevaluated: list[int]  # update eids in dequeue (trace) order
    skipped: int
    matches: int


MINKEY = (-1, -1, -1)


class Runtime:
    """A retained run of one program over one input store (single-owner)."""

    def __init__(self, prog: A.Program, store: Store,
                 inputs: dict[str, MachineValue] | None = None,
                 live: LiveSet | None = None, fuel: int = DEFAULT_FUEL):
        self.prog = prog
        self.live = live if live is not None else live_vars(prog)
        self.fun_index = prog.fun_index()
        self.base = store
        self.om = OrderMaintenance()
        self.fuel = fuel
        self.head = TraceNode("head")
        self.tail = TraceNode("tail")
        self.head.next, self.tail.prev = self.tail, self.head
        self.head.ts = self.om.origin()
        self.tail.ts = self.om.insert_after(self.head.ts)
        self.histories: dict[tuple[int, int], EntryHistory] = {}
        self.memo_index: dict[tuple, list[TraceNode]] = {}
        self.queue: list[TraceNode] = []  # update nodes in trace order
        self.enclosing: dict[tuple[int, int], Optional[TraceNode]] = {}
        self.unguarded: list[tuple[Loc, int]] = []
        self.entry_removals: dict[tuple[int, int], int] = {}
        self.eval_steps = 0
        self.undo_steps = 0
        self.new_entries = 0
        self.matches = 0
        self.reevaluated: list[int] = []
        self.skipped = 0
        budget = [fuel, fuel]
        self._session(initial_env(prog, inputs), prog.entry, after=self.head,
                      cursor=None, region=None, region_end=self.tail,
                      guard=None, budget=budget)

    # -- linked-list and indexing helpers --------------------------------------

    def _link_after(self, node: TraceNode, prev: TraceNode) -> TraceNode:
        node.prev = prev
        node.next = prev.next
        prev.next.prev = node
        prev.next = node
        node.ts = self.om.insert_after(prev.ts)
        return node

    def _unlink(self, node: TraceNode) -> None:
        node.prev.next = node.next
        node.next.prev = node.prev
        node.retired = True
        self.om.delete(node.ts)

    def _hist(self, lid: int, off: int) -> EntryHistory:
        h = self.histories.get((lid, off))
        if h is None:
            h = self.histories[(lid, off)] = EntryHistory()
        return h

    def _pos_key(self, node: TraceNode, idx: int):
        return (*self.om.key(node.ts), idx)

    # -- queue ------------------------------------------------------------------

    def _enqueue(self, node: TraceNode) -> bool:
        """Queue the update point that ends `node`, unless it is queued."""
        assert isinstance(node.actions[-1], TUpdate)
        if any(q.retired for q in self.queue):
            self.queue = [q for q in self.queue if not q.retired]
        if node in self.queue:
            return False
        insort(self.queue, node, key=lambda q: self.om.key(q.ts))
        return True

    def _enqueue_reader(self, node: TraceNode, idx: int) -> list:
        """Enqueue the reader's enclosing update point; record unguarded
        dirty reads (the faithful machine gets stuck at their replay)."""
        enc = self.enclosing.get((id(node), idx))
        if enc is None:
            act = node.actions[idx]
            self.unguarded.append((act.loc, act.off))
            return []
        if enc.retired:
            return []
        return [enc] if self._enqueue(enc) else []

    # -- dirtiness ----------------------------------------------------------------

    def mark_dirty(self, loc: Loc, off: int, value) -> set:
        """Apply one edit to the input store; enqueue the smallest enclosing
        update point of every read the edit breaks.  Returns the set of
        enqueued update nodes."""
        if self.base.peek(loc, off) is None:
            raise KeyError(f"unknown entry {loc!r}[{off}]")
        self.base.write(loc, off, value)
        h = self.histories.get((loc.id, off))
        return set() if h is None else self._invalidate(h, MINKEY, value)

    def _invalidate(self, h: EntryHistory, key, value) -> set:
        """Enqueue the reads after `key`, up to the entry's next write,
        whose recorded value differs from `value`; returns the enqueued
        update nodes."""
        out = set()
        for node, idx, recorded in h.readers_after(self.om, key):
            if recorded != value:
                out.update(self._enqueue_reader(node, idx))
        return out

    def _commit_write(self, node: TraceNode, idx: int, a: TWrite) -> None:
        """Insert a write event and enqueue the readers it breaks."""
        h = self._hist(a.loc.id, a.off)
        self._invalidate(h, self._pos_key(node, idx), a.val)
        h.insert(self.om, node, idx, "W", a.val)

    def _remove_write(self, node: TraceNode, idx: int, a: TWrite) -> None:
        h = self._hist(a.loc.id, a.off)
        key = self._pos_key(node, idx)
        h.remove(self.om, node, idx)
        self._invalidate(h, key, h.value_at(self.om, key,
                                            self.base.peek(a.loc, a.off)))

    # -- retirement (the undo steps) ------------------------------------------------

    def _retire_action(self, node: TraceNode, idx: int) -> None:
        a = node.actions[idx]
        self.undo_steps += 1
        if isinstance(a, TAlloc):
            # Garbage: drop the location and its histories; surviving readers
            # of its entries re-evaluate (and get honestly stuck).
            for off in range(1, a.size + 1):
                h = self.histories.pop((a.loc.id, off), None)
                self.entry_removals[(a.loc.id, off)] = int(h is not None)
                if h is not None:
                    for rn, ri, kind, _ in h.events:
                        if kind == "R" and not rn.retired:
                            self._enqueue_reader(rn, ri)
            self.base.mark_garbage(a.loc)
        elif isinstance(a, TRead):
            h = self.histories.get((a.loc.id, a.off))
            if h is not None:
                h.remove(self.om, node, idx)
            self.enclosing.pop((id(node), idx), None)
        elif isinstance(a, TWrite):
            if (a.loc.id, a.off) in self.histories:
                self._remove_write(node, idx, a)
        elif isinstance(a, TMemo):
            lst = self.memo_index.get((a.eid, a.env))
            if lst is not None and node in lst:
                lst.remove(node)

    def _retire_interval(self, start: TraceNode, stop: TraceNode) -> None:
        """Undo the nodes [start, stop): every atomic action is one undo
        step; region brackets count one each (descend and ascend)."""
        node = start
        while node is not stop:
            nxt = node.next
            if node.kind == "run":
                for idx in range(len(node.actions)):
                    self._retire_action(node, idx)
            else:  # begin / end brackets
                self.undo_steps += 1
            self._unlink(node)
            node = nxt

    # -- memo matching -----------------------------------------------------------

    def _find_match(self, memo: A.Memo, env: dict, cursor: TraceNode,
                    region: Optional[TraceNode], region_end: TraceNode):
        var_items, _ = self._saved(env, memo.eid)
        cands = self.memo_index.get((memo.eid, var_items))
        if not cands:
            return None
        lo = self.om.key(cursor.ts)
        hi = self.om.key(region_end.ts)
        best = None
        for node in cands:
            if node.retired or node.region is not region:
                continue
            key = self.om.key(node.ts)
            if lo <= key < hi and (best is None or key < best[0]):
                best = (key, node)
        return best[1] if best else None

    def _saved(self, env: dict, eid: int):
        return saved_env(env, self.live.at(eid), self.live.fn_names)

    # -- window check (shared definition with the faithful policy) -----------------

    def _guarded_reads(self, node: TraceNode):
        """(node, idx, read) of the reads after `node` up to the next
        update/pop/region boundary: the reads an update ending `node`
        guards."""
        n = node.next
        while n.kind == "run":
            for i, a in enumerate(n.actions):
                if isinstance(a, (TUpdate, TPop)):
                    return
                if isinstance(a, TRead):
                    yield n, i, a
            n = n.next

    def window_dirty(self, node: TraceNode) -> bool:
        """Dirty iff a read between the update ending `node` and the next
        update/push/pop boundary disagrees with the history at its time."""
        for n, i, a in self._guarded_reads(node):
            cur = self._value_now(a.loc, a.off, self._pos_key(n, i))
            if cur is None or cur is UNINIT or cur != a.val:
                return True
        return False

    # -- the evaluation session ------------------------------------------------------

    def _session(self, env: dict, expr: A.Expr, after: TraceNode,
                 cursor: Optional[TraceNode],
                 region: Optional[TraceNode], region_end: TraceNode,
                 guard: Optional[TraceNode], budget: list[int]) -> None:
        """Evaluate (env, expr), splicing new nodes after `after`.

        cursor..region_end is the reusable remainder of the re-evaluated
        region (None for from-scratch runs); `guard` is the update node
        enclosing new reads until the first new update point.  budget holds
        the steps left and the fuel they started from.
        """
        stack: list[Frame] = []
        open_regions: list[Optional[TraceNode]] = []
        # Guard chains: one per open region; top applies to new reads.
        chains: list[Optional[TraceNode]] = [guard]
        stream: list = []
        view = _SessionStore(self, after)
        command: object = expr

        def flush() -> TraceNode:
            nonlocal stream
            view.pending.clear()
            if not stream:
                return view.at
            current_region = open_regions[-1] if open_regions else region
            for run in pack_runs(stream):
                node = TraceNode("run", run)
                node.region = current_region
                view.at = self._link_after(node, view.at)
                self.new_entries += len(run)
                for idx, a in enumerate(run):
                    if isinstance(a, TUpdate):
                        chains[-1] = node
                    elif isinstance(a, TRead):
                        self._hist(a.loc.id, a.off).insert(
                            self.om, node, idx, "R", a.val)
                        self.enclosing[(id(node), idx)] = chains[-1]
                    elif isinstance(a, TWrite):
                        self._commit_write(node, idx, a)
                    elif isinstance(a, TMemo):
                        self.memo_index.setdefault(
                            (a.eid, a.env), []).append(node)
            stream = []
            return view.at

        while True:
            budget[0] -= 1
            if budget[0] <= 0:
                raise FuelExhausted(budget[1])

            e = command
            step = control_step(env, e)
            if step is not None:
                _, env, command = step
                self.eval_steps += 1
                continue
            if isinstance(e, Values):
                if stack:
                    # E.8: close the innermost region, apply the frame.
                    flush()
                    begin = open_regions.pop()
                    endn = TraceNode("end")
                    endn.partner, begin.partner = begin, endn
                    endn.region = begin.region
                    view.at = self._link_after(endn, view.at)
                    self.new_entries += 1
                    chains.pop()
                    chains[-1] = None  # child boundary resets the guard
                    env, command = apply_frame(stack.pop(), e.vals)
                    self.eval_steps += 1
                    continue
                # Session region pop: drain the leftover interval, discard
                # the values (the P.8 analogue), fix tail guards, finish.
                last = flush()
                if cursor is not None:
                    self._retire_interval(cursor, region_end)
                self._repair_tail_guards(last, chains[-1])
                return
            if isinstance(e, A.Memo) and not stack and cursor is not None:
                m = self._find_match(e, env, cursor, region, region_end)
                if m is not None:
                    self.matches += 1
                    self.eval_steps += 1  # E.P
                    last = flush()
                    self._retire_interval(cursor, m)
                    self._repair_tail_guards(last, chains[-1])
                    return
            if isinstance(e, A.Push):
                flush()
                begin = TraceNode("begin")
                begin.region = open_regions[-1] if open_regions else region
                view.at = self._link_after(begin, view.at)
                self.new_entries += 1
                open_regions.append(begin)
                chains.append(None)
                stack.append(Frame(env, e.fname))
                command = e.body
                self.eval_steps += 1
                continue
            step = traced_step(view, env, e, self._saved)
            if step is None:
                raise Stuck("E", f"no rule for command {e!r}")
            _, action, env, command = step
            stream.append(action)
            self.eval_steps += 1

    def _value_now(self, loc, off, key):
        if not isinstance(loc, Loc) or not isinstance(off, int):
            return None
        if loc.id in self.base.garbage:
            return None
        base_val = self.base.peek(loc, off)
        h = self.histories.get((loc.id, off))
        if h is None:
            return base_val
        return h.value_at(self.om, key, base_val)

    def _repair_tail_guards(self, last_new: TraceNode,
                            guard: Optional[TraceNode]) -> None:
        """After a splice, reads in the surviving tail up to its first
        update/boundary are guarded by the splice's trailing update."""
        for n, i, _ in self._guarded_reads(last_new):
            self.enclosing[(id(n), i)] = guard

    # -- propagation -------------------------------------------------------------

    def propagate(self, edits: list[tuple[Loc, int, MachineValue]],
                  fuel: int | None = None) -> FastResult:
        fuel = fuel if fuel is not None else self.fuel
        budget = [fuel, fuel]
        self.eval_steps = 0
        self.undo_steps = 0
        self.new_entries = 0
        self.matches = 0
        self.reevaluated = []
        self.skipped = 0
        self.unguarded = []
        for loc, off, val in edits:
            self.mark_dirty(loc, off, val)
        while self.queue:
            node = self.queue.pop(0)
            if node.retired:
                continue
            if not self.window_dirty(node):
                self.skipped += 1
                continue
            act = node.actions[-1]
            self.reevaluated.append(act.eid)
            env = dict(act.env)
            env.update((f, self.fun_index[f]) for f in act.fnames)
            # The update ends its node, so the doomed interval starts at
            # the next node.
            region = node.region
            region_end = region.partner if region is not None else self.tail
            self._session(env, act.expr, after=node, cursor=node.next,
                          region=region, region_end=region_end, guard=node,
                          budget=budget)
        for loc, off in self.unguarded:
            h = self.histories.get((loc.id, off))
            if h is None:
                continue
            base_val = self.base.peek(loc, off)
            for rn, ri, recorded in h.readers_after(self.om, MINKEY):
                if not rn.retired and recorded != base_val:
                    raise Stuck("P.2", f"read of {loc!r}[{off}] sees "
                                       f"{base_val!r}, trace recorded "
                                       f"{recorded!r} (no enclosing update)")
        return self.result()

    # -- results --------------------------------------------------------------------

    def flat_trace(self) -> list:
        out: list = []
        n = self.head.next
        while n is not self.tail:
            if n.kind == "begin":
                out.append("(")
            elif n.kind == "end":
                out.append(")")
            else:
                out.extend(n.actions)
            n = n.next
        return out

    def build_trace(self) -> Trace:
        stack: list[list] = [[]]
        n = self.head.next
        while n is not self.tail:
            if n.kind == "begin":
                stack.append([])
            elif n.kind == "end":
                sub = stack.pop()
                stack[-1].append(TPush(from_list(sub)))
            else:
                stack[-1].extend(n.actions)
            n = n.next
        assert len(stack) == 1, "unbalanced regions in retained trace"
        return from_list(stack[0])

    def final_values(self) -> tuple[MachineValue, ...]:
        n = self.tail.prev
        while n is not self.head:
            if n.kind == "run" and n.actions:
                last = n.actions[-1]
                assert isinstance(last, TPop), "trace does not end in a pop"
                return last.vals
            n = n.prev
        return ()

    def build_store(self) -> Store:
        store = self.base.copy()
        for (lid, off), h in self.histories.items():
            if lid in store.garbage:
                continue
            base_val = store.cells.get((lid, off))
            v = h.last_write(base_val)
            if v is not None and (lid, off) in store.cells:
                store.cells[(lid, off)] = v
        return store

    def result(self) -> FastResult:
        old_surviving = len(self.flat_trace()) - self.new_entries
        return FastResult(
            values=self.final_values(),
            store=self.build_store(),
            trace=self.build_trace(),
            realized=self.eval_steps + self.undo_steps,
            eval_steps=self.eval_steps,
            undo_steps=self.undo_steps,
            prop_equivalent=old_surviving - self.matches,
            reevaluated=list(self.reevaluated),
            skipped=self.skipped,
            matches=self.matches,
        )


__all__ = ["OrderMaintenance", "OMHandle", "UseAfterDelete", "TraceNode",
           "EntryHistory", "pack_runs", "Runtime", "FastResult"]
