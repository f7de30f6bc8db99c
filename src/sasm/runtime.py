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
boundary and no node is ever split.  Each action goes into its node and is
indexed as soon as it is traced.  Every read of a run node has the same
guard (the update point whose re-evaluation re-runs it), so guards are kept
per node.

The trace is its own order-maintenance list: a node's integer label is its
timestamp.  Timestamps do the heavy lifting: new nodes are inserted between
the re-evaluated update point and the doomed old interval, so a history
lookup at a new node's time sees exactly the store the faithful machine
would see at that replay moment (earlier writes included, unreplayed and
later writes excluded).

A propagation costs what changed, not the whole run: its result carries the
values and counts, kept up to date as nodes are linked and unlinked, and
builds its trace and store only when they are first read.  They are valid
until the Runtime's next edit; a later read raises StaleResult.

The behavior mirrors the faithful tracing machine under the default policy;
tests assert equality of values, live store, flattened trace and the set of
re-evaluated update points over the corpus and fuzzed edit batches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Optional

from . import ilast as A
from .analyses import LiveSet, live_vars
from .errors import (DEFAULT_FUEL, FuelExhausted, StaleResult, Stuck,
                     StuckRead, StuckWrite)
from .refmachine import Frame, Values, apply_frame, initial_env
from .store import Loc, MachineValue, Store, UNINIT
from .tracing import STEP_RULES, saved_env
from .trace import (TAlloc, TMemo, TPop, TPush, TRead, TUpdate, TWrite,
                    Trace, from_list)


# -- order maintenance --------------------------------------------------------


class UseAfterDelete(Exception):
    pass


class OMHandle:
    """An item of an order-maintenance list; its integer label orders it."""

    __slots__ = ("label", "prev", "next", "alive")

    def __init__(self):
        self.label = 0
        self.prev: Optional[OMHandle] = None
        self.next: Optional[OMHandle] = None
        self.alive = True


_GAP = 1 << 61  # the room after the last item


class OrderMaintenance:
    """One-level list labeling (Dietz & Sleator, STOC 1987) over a doubly
    linked list of handles; comparison is label comparison.

    An insert takes the middle of the gap after its predecessor.  With no
    gap left it first spreads the predecessor's j successors evenly, up to
    the first successor whose label is more than j*j above the
    predecessor's (or, past the last item, _GAP apart)."""

    def __init__(self, origin: Optional[OMHandle] = None):
        self._origin = origin if origin is not None else OMHandle()
        self.relabels = 0

    def origin(self) -> OMHandle:
        return self._origin

    def insert_after(self, h: OMHandle,
                     new: Optional[OMHandle] = None) -> OMHandle:
        """Link `new` (a fresh handle if None) right after `h`."""
        if not h.alive:
            raise UseAfterDelete("insert after a deleted handle")
        nxt = h.next
        if nxt is not None and nxt.label - h.label < 2:
            self._spread(h)
        top = nxt.label if nxt is not None else h.label + _GAP
        if new is None:
            new = OMHandle()
        new.label = (h.label + top) // 2
        new.prev, new.next = h, nxt
        h.next = new
        if nxt is not None:
            nxt.prev = new
        return new

    def delete(self, h: OMHandle) -> None:
        if not h.alive:
            raise UseAfterDelete("double delete")
        h.alive = False
        if h.prev is not None:
            h.prev.next = h.next
        if h.next is not None:
            h.next.prev = h.prev

    def compare(self, a: OMHandle, b: OMHandle) -> int:
        ka, kb = self.key(a), self.key(b)
        return -1 if ka < kb else (1 if ka > kb else 0)

    def key(self, h: OMHandle) -> int:
        if not h.alive:
            raise UseAfterDelete("use of a deleted handle")
        return h.label

    def _spread(self, h: OMHandle) -> None:
        self.relabels += 1
        base = h.label
        j, s = 1, h.next
        while s is not None and s.label - base <= j * j:
            s, j = s.next, j + 1
        width = s.label - base if s is not None else j * _GAP
        s = h.next
        for k in range(1, j):
            s.label = base + k * width // j
            s = s.next


# -- trace nodes -------------------------------------------------------------


class TraceNode(OMHandle):
    """One timestamp shared by a run of consecutive actions, or a region
    bracket.  The trace is the Runtime's order-maintenance list: a node's
    label is its timestamp, and a retired node is no longer alive."""

    __slots__ = ("kind", "actions", "region", "partner", "queued")

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind  # "run" | "begin" | "end" | "head" | "tail"
        self.actions: list = []
        self.region: Optional["TraceNode"] = None  # innermost begin node
        self.partner: Optional["TraceNode"] = None  # begin<->end
        self.queued = False  # an update node waiting in Runtime.queue

    def entries(self) -> int:
        """The node's length in the flattened trace: its actions, or one
        bracket."""
        return len(self.actions) if self.kind == "run" else 1

    def __repr__(self):
        return f"<{self.kind} {self.actions!r}>"


# -- per-entry histories -----------------------------------------------------------


def _by_time(om: OrderMaintenance):
    """The sort key of an entry-history event: its node's timestamp, then
    its index in the node."""
    return lambda ev: (om.key(ev[0]), ev[1])


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
        k = bisect_left(events, (om.key(node), idx), key=_by_time(om))
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
    """The store as one evaluation session sees it, for the traced rules.

    Allocation goes to the input store.  A read sees the entry's history
    just after `at`, the node the session's last action went into, so the
    session's own writes are already there.  A write is only range-checked:
    the session records its action in the history once the rule returns.
    """

    __slots__ = ("rt", "at")

    def __init__(self, rt: "Runtime", at: TraceNode):
        self.rt = rt
        self.at = at

    def alloc(self, size, loc_id=None) -> Loc:
        return self.rt.base.alloc(size, loc_id)

    def read(self, loc, off) -> MachineValue:
        rt = self.rt
        # Index 1 << 40 places the key after every action of `at`.
        v = rt._value_now(loc, off, (rt.om.key(self.at), 1 << 40))
        if v is None or v is UNINIT:
            raise StuckRead(f"read of {loc!r}[{off!r}] unavailable")
        return v

    def write(self, loc, off, val) -> int:
        if not isinstance(loc, Loc) or self.rt.base.peek(loc, off) is None:
            raise StuckWrite(f"write of {loc!r}[{off!r}] out of range")
        return 0


# -- results -------------------------------------------------------------------------


@dataclass
class FastResult:
    """What one propagation did, and the retained run it left behind.

    `values` and the counts are fixed when the result is made.  `trace` and
    `store` are built from the Runtime on first read (by `build_trace` and
    `build_store`) and cached.  They are valid until the Runtime's next
    `propagate` or `mark_dirty`; a read after that raises StaleResult, so a
    result never shows another batch's state.
    """

    values: tuple[MachineValue, ...]
    realized: int
    eval_steps: int
    undo_steps: int
    prop_equivalent: int
    reevaluated: list[int]  # update eids in dequeue (trace) order
    skipped: int
    matches: int
    runtime: "Runtime" = field(repr=False, compare=False)
    generation: int = field(repr=False, compare=False)
    _built: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def _read(self, name: str, build):
        if self.runtime.generation != self.generation:
            raise StaleResult(f"{name} of a result read after the Runtime "
                              f"took a later edit")
        if name not in self._built:
            self._built[name] = build()
        return self._built[name]

    @property
    def store(self) -> Store:
        return self._read("store", self.runtime.build_store)

    @property
    def trace(self) -> Trace:
        return self._read("trace", self.runtime.build_trace)


MINKEY = (-1, -1)


class Runtime:
    """A retained run of one program over one input store (single-owner)."""

    def __init__(self, prog: A.Program, store: Store,
                 inputs: dict[str, MachineValue] | None = None,
                 live: LiveSet | None = None, fuel: int = DEFAULT_FUEL):
        self.live = live if live is not None else live_vars(prog)
        self.fun_index = prog.fun_index()
        self.base = store
        self.fuel = fuel
        self.head = TraceNode("head")
        self.om = OrderMaintenance(origin=self.head)
        self.tail = self.om.insert_after(self.head, TraceNode("tail"))
        self.histories: dict[tuple[int, int], EntryHistory] = {}
        self.memo_index: dict[tuple, list[TraceNode]] = {}
        self.queue: list[TraceNode] = []  # update nodes in trace order
        # The update point guarding each live run node's reads.
        self.enclosing: dict[TraceNode, Optional[TraceNode]] = {}
        self.unguarded: list[tuple[TraceNode, int]] = []  # dirty reads
        self.entry_removals: dict[tuple[int, int], int] = {}
        self.eval_steps = 0
        self.undo_steps = 0
        self.new_entries = 0
        self.matches = 0
        self.reevaluated: list[int] = []
        self.skipped = 0
        self.live_entries = 0  # len(self.flat_trace()), kept up to date
        self.generation = 0  # bumped whenever an edit changes the run
        budget = [fuel, fuel]
        self._session(initial_env(prog, inputs), prog.entry, after=self.head,
                      cursor=None, region=None, region_end=self.tail,
                      budget=budget)

    # -- linked-list and indexing helpers --------------------------------------

    def _link_after(self, node: TraceNode, prev: TraceNode) -> TraceNode:
        self.live_entries += node.entries()
        self.new_entries += node.entries()
        return self.om.insert_after(prev, node)

    def _unlink(self, node: TraceNode) -> None:
        if node.queued:
            # Off the queue while its timestamp can still be compared.
            k = bisect_left(self.queue, self.om.key(node), key=self.om.key)
            assert self.queue[k] is node
            del self.queue[k]
            node.queued = False
        self.om.delete(node)
        self.live_entries -= node.entries()

    def _hist(self, lid: int, off: int) -> EntryHistory:
        h = self.histories.get((lid, off))
        if h is None:
            h = self.histories[(lid, off)] = EntryHistory()
        return h

    def _pos_key(self, node: TraceNode, idx: int):
        return (self.om.key(node), idx)

    # -- queue ------------------------------------------------------------------

    def _enqueue(self, node: TraceNode) -> bool:
        """Queue the update point that ends `node`, unless it is queued."""
        assert isinstance(node.actions[-1], TUpdate)
        if node.queued:
            return False
        node.queued = True
        insort(self.queue, node, key=self.om.key)
        return True

    def _enqueue_reader(self, node: TraceNode, idx: int) -> list:
        """Enqueue the reader's enclosing update point; record unguarded
        dirty reads (the faithful machine gets stuck at their replay)."""
        enc = self.enclosing[node]
        if enc is None:
            self.unguarded.append((node, idx))
            return []
        if not enc.alive:
            return []
        return [enc] if self._enqueue(enc) else []

    # -- dirtiness ----------------------------------------------------------------

    def mark_dirty(self, loc: Loc, off: int, value) -> set:
        """Apply one edit to the input store; enqueue the smallest enclosing
        update point of every read the edit breaks.  Returns the set of
        enqueued update nodes."""
        if self.base.peek(loc, off) is None:
            raise KeyError(f"unknown entry {loc!r}[{off}]")
        self.generation += 1
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
                        if kind == "R" and rn.alive:
                            self._enqueue_reader(rn, ri)
            self.base.mark_garbage(a.loc)
        elif isinstance(a, TRead):
            h = self.histories.get((a.loc.id, a.off))
            if h is not None:
                h.remove(self.om, node, idx)
        elif isinstance(a, TWrite):
            if (a.loc.id, a.off) in self.histories:
                self._remove_write(node, idx, a)
        elif isinstance(a, TMemo):
            # A memo point starts its node, so the node is listed once.
            lst = self.memo_index[(a.eid, a.env)]
            lst.remove(node)
            if not lst:
                del self.memo_index[(a.eid, a.env)]

    def _retire_interval(self, start: TraceNode, stop: TraceNode) -> None:
        """Undo the nodes [start, stop): every atomic action is one undo
        step; region brackets count one each (descend and ascend)."""
        node = start
        while node is not stop:
            nxt = node.next
            if node.kind == "run":
                for idx in range(len(node.actions)):
                    self._retire_action(node, idx)
                del self.enclosing[node]
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
        lo = self.om.key(cursor)
        hi = self.om.key(region_end)
        best = None
        for node in cands:
            if node.region is not region:
                continue
            key = self.om.key(node)
            if lo <= key < hi and (best is None or key < best[0]):
                best = (key, node)
        return best[1] if best else None

    def _saved(self, env: dict, eid: int):
        return saved_env(env, self.live.at(eid), self.live.fn_names)

    # -- window check (shared definition with the faithful policy) -----------------

    def window_dirty(self, node: TraceNode) -> Optional[tuple]:
        """The first read between the update ending `node` and the next
        update/push/pop boundary that disagrees with the history at its
        time, as (read, value now); None when the window is clean."""
        n = node.next
        while n.kind == "run":
            for i, a in enumerate(n.actions):
                if isinstance(a, (TUpdate, TPop)):
                    return None
                if isinstance(a, TRead):
                    cur = self._value_now(a.loc, a.off, self._pos_key(n, i))
                    if cur is None or cur is UNINIT or cur != a.val:
                        return a, cur
            n = n.next
        return None

    # -- the evaluation session ------------------------------------------------------

    def _session(self, env: dict, expr: A.Expr, after: TraceNode,
                 cursor: Optional[TraceNode],
                 region: Optional[TraceNode], region_end: TraceNode,
                 budget: list[int]) -> None:
        """Evaluate (env, expr), splicing new nodes after `after`.

        Each traced action goes into a run node and is indexed there as soon
        as its rule returns (see _record), so the session holds no actions
        of its own.  cursor..region_end is the reusable remainder of the
        re-evaluated region (None for from-scratch runs).  budget holds the
        steps left and the fuel they started from.
        """
        stack: list[Frame] = []
        # The open regions' begin nodes, innermost last.
        regions: list[Optional[TraceNode]] = [region]
        view = _SessionStore(self, after)
        command: object = expr

        while True:
            budget[0] -= 1
            if budget[0] <= 0:
                raise FuelExhausted(budget[1])

            e = command
            rule = STEP_RULES.get(type(e))
            if rule is not None:
                traced, step = rule
                if not traced:
                    _, env, command = step(env, e)
                    self.eval_steps += 1
                    continue
                if isinstance(e, A.Memo) and not stack and cursor is not None:
                    m = self._find_match(e, env, cursor, region, region_end)
                    if m is not None:
                        self.matches += 1
                        self.eval_steps += 1  # E.P
                        self._retire_interval(cursor, m)
                        self._repair_tail_guards(m)
                        self._check_matched_window(m)
                        return
                _, action, env, command = step(view, env, e, self._saved)
                view.at = self._record(view.at, action, regions[-1])
                self.eval_steps += 1
                continue
            if isinstance(e, Values):
                if stack:
                    # E.8: close the innermost region, apply the frame.
                    begin = regions.pop()
                    endn = TraceNode("end")
                    endn.partner, begin.partner = begin, endn
                    endn.region = begin.region
                    view.at = self._link_after(endn, view.at)
                    env, command = apply_frame(stack.pop(), e.vals)
                    self.eval_steps += 1
                    continue
                # Session region pop: drain the leftover interval, discard
                # the values (the P.8 analogue), finish.
                if cursor is not None:
                    self._retire_interval(cursor, region_end)
                return
            if isinstance(e, A.Push):
                begin = TraceNode("begin")
                begin.region = regions[-1]
                view.at = self._link_after(begin, view.at)
                regions.append(begin)
                stack.append(Frame(env, e.fname))
                command = e.body
                self.eval_steps += 1
                continue
            raise Stuck("E", f"no rule for command {e!r}")

    def _record(self, at: TraceNode, a, region: Optional[TraceNode]):
        """Append the traced action `a` after `at`, the node the session
        linked last, and index it; returns the node `a` went into.

        A memo point, or the first action after an update point or a
        bracket, opens a new run node in `region`."""
        if (isinstance(a, TMemo) or at.kind != "run"
                or isinstance(at.actions[-1], TUpdate)):
            node = TraceNode("run")
            node.region = region
            self.enclosing[node] = self._guard_after(at)
            at = self._link_after(node, at)
        idx = len(at.actions)
        at.actions.append(a)
        self.live_entries += 1
        self.new_entries += 1
        if isinstance(a, TRead):
            self._hist(a.loc.id, a.off).insert(self.om, at, idx, "R", a.val)
        elif isinstance(a, TWrite):
            self._commit_write(at, idx, a)
        elif isinstance(a, TMemo):
            self.memo_index.setdefault((a.eid, a.env), []).append(at)
        return at

    def _guard_after(self, prev: TraceNode) -> Optional[TraceNode]:
        """The update point guarding the reads of a run node linked after
        `prev`: `prev` if it ends in one, else `prev`'s guard if it is a
        run; a bracket or the head leaves the reads unguarded."""
        if prev.kind != "run":
            return None
        if isinstance(prev.actions[-1], TUpdate):
            return prev
        return self.enclosing[prev]

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

    def _repair_tail_guards(self, node: TraceNode) -> None:
        """After a splice that ends before `node`, re-derive the guards of
        the run nodes from `node` up to the first one ending in an update."""
        while node.kind == "run":
            self.enclosing[node] = self._guard_after(node.prev)
            if isinstance(node.actions[-1], TUpdate):
                return
            node = node.next

    def _check_matched_window(self, m: TraceNode) -> None:
        """The faithful machine replays the matched tail from `m`, so a
        read there before the next update that disagrees with the store
        gets it stuck."""
        dirty = self.window_dirty(m.prev)
        if dirty is not None:
            self._stuck_read(*dirty)

    @staticmethod
    def _stuck_read(a: TRead, cur) -> None:
        """Get stuck as the faithful machine does replaying the read `a`
        when the store holds `cur`: S.2 if the entry is unavailable, else
        P.2."""
        if cur is None or cur is UNINIT:
            raise StuckRead(f"read of {a.loc!r}[{a.off!r}] unavailable")
        raise Stuck("P.2", f"read of {a.loc!r}[{a.off}] sees {cur!r}, "
                           f"trace recorded {a.val!r}")

    # -- propagation -------------------------------------------------------------

    def propagate(self, edits: list[tuple[Loc, int, MachineValue]],
                  fuel: int | None = None) -> FastResult:
        fuel = fuel if fuel is not None else self.fuel
        budget = [fuel, fuel]
        self.generation += 1
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
            node.queued = False
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
                          region=region, region_end=region_end,
                          budget=budget)
        # Dirty reads with no enclosing update are replayed, not re-run, by
        # the faithful machine: the first one that still disagrees gets it
        # stuck.
        alive = [(self._pos_key(n, i), n.actions[i])
                 for n, i in self.unguarded if n.alive]
        for key, a in sorted(alive, key=lambda p: p[0]):
            cur = self._value_now(a.loc, a.off, key)
            if cur is None or cur is UNINIT or cur != a.val:
                self._stuck_read(a, cur)
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
        """The last propagation's result; builds neither trace nor store."""
        old_surviving = self.live_entries - self.new_entries
        return FastResult(
            values=self.final_values(),
            realized=self.eval_steps + self.undo_steps,
            eval_steps=self.eval_steps,
            undo_steps=self.undo_steps,
            prop_equivalent=old_surviving - self.matches,
            reevaluated=list(self.reevaluated),
            skipped=self.skipped,
            matches=self.matches,
            runtime=self,
            generation=self.generation,
        )


__all__ = ["OrderMaintenance", "OMHandle", "UseAfterDelete", "TraceNode",
           "EntryHistory", "Runtime", "FastResult"]
