"""The efficient runtime: retained traces, order-maintenance timestamps,
per-entry store histories, a memo index and priority-queue change propagation.

Instead of replaying the whole trace, the runtime keeps it retained across
runs: every read and write stays indexed per store entry and ordered by an
order-maintenance timestamp, so an edit finds exactly the reads it breaks and
enqueues the nodes that check them.  The queue holds update nodes, brackets
and the head in trace order.  A dequeued update point is re-verified against
the history and re-runs just the evaluation steps, splicing new trace nodes
over the interval they replace; a memo hit ends the re-run and keeps the
matched tail in place.  A dequeued node stays queued until its check ends,
so its own re-evaluation's writes cannot queue it again.  A dequeued
bracket or head replays its reads, as the faithful machine does at that
point.  Retained actions are never replayed, so propagation steps cost
nothing here; realized cost is the evaluation plus undo work alone.

Consecutive actions share a node: a memo point starts a node and an update
point ends one, so the interval a re-evaluation replaces starts at a node
boundary and no node is ever split.  A session steps the traced rules
through the Runtime itself: `at` is the node it linked last, a read sees
the entry's history just after `at`, and each action goes into its node and
is indexed as soon as it is traced.  The node that checks a read is read off
the trace: the nearest earlier run node that ends in an update (its guard,
whose re-evaluation re-runs it), unless a bracket or the head comes first.

The trace is its own order-maintenance list: a node's integer label is its
timestamp.  An entry's history indexes the trace's own reads and writes and
bisects on their nodes' live labels, in C; relabeling keeps trace order, so
there is nothing to refresh.  Each read, write or retirement searches its
entry's history once: a read or write finds the position just after `at`,
where `_record` then indexes its action, and a retirement bisects to its
action and deletes it there.  New nodes are inserted between the
re-evaluated update point and the doomed old interval, so a history lookup
at a new node's time sees exactly the store the faithful machine would see
at that replay moment (earlier writes included, unreplayed and later writes
excluded).

A propagation costs what changed, not the whole run: its result carries the
values and counts, kept up to date as nodes are linked and unlinked, and
builds its trace and store only when they are first read.  They are valid
until the Runtime's next edit; a later read raises StaleResult.

The behavior mirrors the faithful tracing machine; tests assert equality of
values, live store, flattened trace and the set of re-evaluated update
points over the corpus and fuzzed edit batches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from . import ilast as A
from .analyses import step_data
from .errors import (DEFAULT_FUEL, BrokenRuntime, FuelExhausted,
                     StaleResult, Stuck, StuckRead, StuckWrite)
from .refmachine import Frame, Values, apply_frame, compile_step, initial_env
from .store import Loc, MachineValue, Store, UNINIT
from .trace import (TAlloc, TMemo, TPop, TRead, TUpdate, TWrite, Trace,
                    from_flat)


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
        self.label = 0
        self.prev = self.next = None
        self.alive = True
        self.kind = kind  # "run" | "begin" | "end" | "head" | "tail"
        self.actions: list = []
        self.region: Optional["TraceNode"] = None  # innermost begin node
        self.partner: Optional["TraceNode"] = None  # begin -> end
        self.queued = False  # in Runtime.queue, or dequeued until checked

    def entries(self) -> int:
        """The node's length in the flattened trace: its actions, or one
        bracket."""
        return len(self.actions) if self.kind == "run" else 1

    def __repr__(self):
        return f"<{self.kind} {self.actions!r}>"


# -- per-entry histories -----------------------------------------------------------


_LABEL = attrgetter("label")


class EntryHistory:
    """All reads and writes of one store entry across the retained trace,
    ordered by timestamp; the value at a time is the latest write before
    it, falling back to the base store.

    `actions[k]` is the trace's own TRead or TWrite, held by the live node
    `nodes[k]`; a back-pointer from action to node would make every run node
    a reference cycle, freed only by the cyclic collector.  Relabeling keeps
    trace order, so a lookup bisects on the nodes' live labels, and nothing
    is refreshed on relabel.  Lookups return positions in both lists; the
    Runtime inserts and deletes at them."""

    __slots__ = ("nodes", "actions")

    def __init__(self):
        self.nodes: list[TraceNode] = []
        self.actions: list = []

    def find(self, om, node, a) -> int:
        """The position of the action `a` of the live node `node`."""
        k = bisect_left(self.nodes, om.key(node), key=_LABEL)
        while self.actions[k] is not a:
            k += 1
        return k

    def after(self, om, node) -> int:
        """The position after every action of the live node `node`.  It is
        the end when the history is empty or its last node is `node` or
        comes before it, as for every read and write of a build."""
        key = om.key(node)
        nodes = self.nodes
        if not nodes or nodes[-1] is node or nodes[-1].label < key:
            return len(nodes)
        return bisect_right(nodes, key, key=_LABEL)

    def write_before(self, k: int, base_value):
        """The value of the latest write before position k, else
        base_value."""
        actions = self.actions
        while k:
            k -= 1
            if type(actions[k]) is TWrite:
                return actions[k].val
        return base_value


# -- results -------------------------------------------------------------------------


@dataclass
class FastResult:
    """What one propagation did, and the retained run it left behind.

    `values` and the counts are fixed when the result is made.  `trace` and
    `store` are built from the Runtime on first read and cached: the trace
    is rebuilt from `flat_trace` (by `build_trace`), the store by
    `build_store`.  They are valid until the Runtime's next
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


class Runtime:
    """A retained run of one program over one input store (single-owner)."""

    def __init__(self, prog: A.Program, store: Store,
                 inputs: dict[str, MachineValue] | None = None,
                 fuel: int = DEFAULT_FUEL):
        self.fun_index, self.live = step_data(prog)
        self.base = store
        self.fuel = fuel
        self.head = TraceNode("head")
        self.om = OrderMaintenance(origin=self.head)
        self.tail = self.om.insert_after(self.head, TraceNode("tail"))
        self.histories: dict[tuple[int, int], EntryHistory] = {}
        self.memo_index: dict[tuple, list[TraceNode]] = {}
        # Update nodes, brackets and the head, in trace order.
        self.queue: list[TraceNode] = []
        self.entry_removals: dict[tuple[int, int], int] = {}
        self.eval_steps = 0
        self.undo_steps = 0
        self.matches = 0
        self.reevaluated: list[int] = []
        self.skipped = 0
        self.live_entries = 0  # len(self.flat_trace()), kept up to date
        self.start_entries = 0  # live_entries when the propagation began
        self.generation = 0  # bumped whenever an edit changes the run
        # What the first propagate that raised raised: the run is then
        # half re-evaluated, so later edits are refused.
        self.failure: BaseException | None = None
        self.at = self.head  # the node the running session linked last
        # Where the last read or write goes in its entry's history: the
        # history and the position just after `at`, for _record.
        self.hist: Optional[EntryHistory] = None
        self.pos = 0
        self._session(initial_env(prog, inputs), prog.entry, after=self.head,
                      cursor=None, fuel=fuel)

    # -- the store the traced rules step through ------------------------------

    def alloc(self, size) -> Loc:
        """Allocation goes to the input store."""
        return self.base.alloc(size)

    def read(self, loc, off) -> MachineValue:
        """The entry's value in its history just after `at`, so the
        session's own writes are already there.  That one search also
        leaves `hist` and `pos` where _record indexes the read."""
        if type(loc) is Loc and type(off) is int:
            key = (loc.id, off)
            v = self.base.cells.get(key)
            h = self.histories.get(key)
            if h is not None:
                k = h.after(self.om, self.at)
                v = h.write_before(k, v)
            if v is not None and v is not UNINIT:
                if h is None:
                    h = self.histories[key] = EntryHistory()
                    k = 0
                self.hist, self.pos = h, k
                return v
        raise StuckRead(f"read of {loc!r}[{off!r}] unavailable")

    def write(self, loc, off, val) -> int:
        """Range-checked, and the entry's history searched once, as a read
        does: _record indexes the write at `pos` once the rule returns."""
        if type(loc) is Loc:
            key = (loc.id, off)
            if key in self.base.cells:
                h = self.histories.get(key)
                if h is None:
                    self.hist = self.histories[key] = EntryHistory()
                    self.pos = 0
                else:
                    self.hist, self.pos = h, h.after(self.om, self.at)
                return 0
        raise StuckWrite(f"write of {loc!r}[{off!r}] out of range")

    # -- linked-list and indexing helpers --------------------------------------

    def _link(self, node: TraceNode) -> None:
        """Link `node` after `at` and move `at` to it."""
        self.live_entries += node.entries()
        self.at = self.om.insert_after(self.at, node)

    def _unlink(self, node: TraceNode) -> None:
        if node.queued:
            # Off the queue while its timestamp can still be compared.
            k = bisect_left(self.queue, node.label, key=_LABEL)
            assert self.queue[k] is node
            del self.queue[k]
            node.queued = False
        self.om.delete(node)
        self.live_entries -= node.entries()

    # -- queue ------------------------------------------------------------------

    @staticmethod
    def _checker(node: TraceNode) -> TraceNode:
        """The node whose dequeue checks the reads of the run node `node`:
        the nearest earlier run node that ends in an update (their guard,
        which re-runs them), or else the bracket or head before them (which
        replays them)."""
        n = node.prev
        while n.kind == "run" and type(n.actions[-1]) is not TUpdate:
            n = n.prev
        return n

    def _enqueue_reader(self, node: TraceNode) -> None:
        """Queue the checker of the reads of `node`, unless it is queued."""
        checker = self._checker(node)
        if not checker.queued:
            checker.queued = True
            # Raw labels: a queued node is alive, as _unlink takes it off
            # the queue before deleting it.
            insort(self.queue, checker, key=_LABEL)

    @property
    def enclosing(self) -> dict[TraceNode, Optional[TraceNode]]:
        """Each live run node's guard, read off the trace (None when a
        bracket or the head checks its reads)."""
        guards, n = {}, self.head.next
        while n is not self.tail:
            if n.kind == "run":
                checker = self._checker(n)
                guards[n] = checker if checker.kind == "run" else None
            n = n.next
        return guards

    # -- dirtiness ----------------------------------------------------------------

    def mark_dirty(self, loc: Loc, off: int, value) -> None:
        """Apply one edit to the input store; enqueue the guard of every
        read the edit breaks."""
        if self.failure is not None:
            raise BrokenRuntime(self.failure) from self.failure
        if self.base.peek(loc, off) is None:
            raise KeyError(f"unknown entry {loc!r}[{off}]")
        self.generation += 1
        self.base.write(loc, off, value)
        h = self.histories.get((loc.id, off))
        if h is not None:
            self._invalidate(h, 0, value)

    def _invalidate(self, h: EntryHistory, k: int, value) -> None:
        """Enqueue the reads from position k up to the entry's next write
        whose recorded value differs from `value`."""
        nodes, actions = h.nodes, h.actions
        while k < len(actions) and type(actions[k]) is TRead:
            v = actions[k].val
            if v is not value and v != value:
                self._enqueue_reader(nodes[k])
            k += 1

    # -- retirement (the undo steps) ------------------------------------------------

    def _retire_action(self, node: TraceNode, a) -> None:
        t = type(a)
        self.undo_steps += 1
        if t is TAlloc:
            # Garbage: drop the location and its histories; surviving readers
            # of its entries re-evaluate (and get honestly stuck).
            for off in range(1, a.size + 1):
                h = self.histories.pop((a.loc.id, off), None)
                self.entry_removals[(a.loc.id, off)] = int(h is not None)
                if h is not None:
                    for n, b in zip(h.nodes, h.actions):
                        if type(b) is TRead and n.alive:
                            self._enqueue_reader(n)
            self.base.mark_garbage(a.loc)
        elif t is TRead or t is TWrite:
            h = self.histories.get((a.loc.id, a.off))
            if h is not None:
                nodes, actions = h.nodes, h.actions
                k = bisect_left(nodes, node.label, key=_LABEL)
                while actions[k] is not a:
                    k += 1
                del nodes[k], actions[k]
                if t is TWrite:
                    # Its readers now see the write before it.
                    self._invalidate(h, k, h.write_before(
                        k, self.base.peek(a.loc, a.off)))
        elif t is TMemo:
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
                for a in node.actions:
                    self._retire_action(node, a)
            else:  # begin / end brackets
                self.undo_steps += 1
            self._unlink(node)
            node = nxt

    # -- memo matching -----------------------------------------------------------

    def _find_match(self, memo: TMemo, cursor: TraceNode,
                    region: Optional[TraceNode]):
        """The first node from `cursor` on, in `region`, that starts with a
        memo action equal to the one the memo step made."""
        cands = self.memo_index.get((memo.eid, memo.env))
        if not cands:
            return None
        lo = self.om.key(cursor)
        best = None
        for node in cands:
            if node.region is not region:
                continue
            key = self.om.key(node)
            if lo <= key and (best is None or key < best[0]):
                best = (key, node)
        return best[1] if best else None

    # -- window check (shared definition with the faithful machine) ----------------

    def window_dirty(self, node: TraceNode) -> Optional[tuple]:
        """The first read after `node` up to the next update/push/pop
        boundary that disagrees with the history at its time, as (read,
        value now); None when the window is clean."""
        n = node.next
        while n.kind == "run":
            for a in n.actions:
                t = type(a)
                if t is TUpdate or t is TPop:
                    return None
                if t is TRead:
                    cur = self._value_now(n, a)
                    if cur is None or cur is UNINIT or cur != a.val:
                        return a, cur
            n = n.next
        return None

    # -- the evaluation session ------------------------------------------------------

    def _session(self, env: dict, expr: A.Expr, after: TraceNode,
                 cursor: Optional[TraceNode], fuel: int) -> None:
        """Evaluate (env, expr), splicing new nodes after `after`.

        The traced rules step through the Runtime itself (alloc, read and
        write), with `at` moving from `after` to each node the session
        links.  Each traced action goes into a run node and is indexed
        there as soon as its rule returns (see _record), so the session
        holds no actions of its own.  The session runs in `after`'s region,
        and cursor up to the region's end is its reusable remainder (None
        for from-scratch runs).  Every pass of the loop takes an evaluation
        step or returns, so eval_steps, which a propagation's sessions share,
        is the fuel spent.
        """
        region = after.region
        region_end = region.partner if region is not None else self.tail
        stack: list[Frame] = []
        # The open regions' begin nodes, innermost last.
        regions: list[Optional[TraceNode]] = [region]
        self.at = after
        command: object = expr

        steps = self.eval_steps
        try:
            while True:
                if steps >= fuel:
                    raise FuelExhausted(fuel)
                e = command
                if type(e) is Values:
                    if not stack:
                        # Session region pop: drain the leftover interval,
                        # discard the values (the P.8 analogue), finish.
                        if cursor is not None:
                            self._retire_interval(cursor, region_end)
                        return
                    # E.8: close the innermost region, apply the frame.
                    begin = regions.pop()
                    endn = TraceNode("end")
                    begin.partner = endn
                    self._link(endn)
                    env, command = apply_frame(stack.pop(), e.vals)
                elif type(e) is A.Push:
                    begin = TraceNode("begin")
                    self._link(begin)
                    regions.append(begin)
                    stack.append(Frame(dict(env), e.fname))
                    command = e.body
                else:
                    _, action, env, command = (
                        e.tstep or compile_step(e, self.live))(self, env)
                    # A memo step changes nothing, so a match drops it.
                    if (type(action) is TMemo and not stack
                            and cursor is not None):
                        m = self._find_match(action, cursor, region)
                        if m is not None:
                            self.matches += 1
                            steps += 1  # E.P
                            self._retire_interval(cursor, m)
                            self._replay_window(m.prev)
                            return
                    if action is not None:
                        self._record(action, regions[-1])
                steps += 1
        finally:
            self.eval_steps = steps

    def _record(self, a, region: Optional[TraceNode]) -> None:
        """Append the traced action `a` after `at` and index a read or
        write at `pos` in `hist`, where its rule found it; a write also
        enqueues the readers it breaks.

        A memo point, or the first action after an update point or a
        bracket, opens a new run node in `region`.  It is linked right
        after the old `at`, so no history entry lies between them and
        `pos` still holds: relabeling keeps order, and positions are list
        indices."""
        at = self.at
        t = type(a)
        if (t is TMemo or at.kind != "run"
                or type(at.actions[-1]) is TUpdate):
            at = self.at = self.om.insert_after(at, TraceNode("run"))
            at.region = region
        at.actions.append(a)
        self.live_entries += 1
        if t is TRead or t is TWrite:
            h, k = self.hist, self.pos
            h.nodes.insert(k, at)
            h.actions.insert(k, a)
            if t is TWrite:
                self._invalidate(h, k + 1, a.val)
        elif t is TMemo:
            self.memo_index.setdefault((a.eid, a.env), []).append(at)

    def _value_now(self, node: TraceNode, a: TRead):
        """The entry's value just before the read `a` of `node`; None if
        unavailable, as when its location was retired, which took the
        entry's cell and history."""
        h = self.histories.get((a.loc.id, a.off))
        if h is None:
            return None
        return h.write_before(h.find(self.om, node, a),
                              self.base.peek(a.loc, a.off))

    def _replay_window(self, node: TraceNode) -> None:
        """The faithful machine replays the reads after `node`, a bracket,
        the head or a memo match's predecessor, so the first one before the
        next update that disagrees with the store gets it stuck: S.2 if the
        entry is unavailable, else P.2."""
        dirty = self.window_dirty(node)
        if dirty is not None:
            a, cur = dirty
            if cur is None or cur is UNINIT:
                raise StuckRead(f"read of {a.loc!r}[{a.off!r}] unavailable")
            raise Stuck("P.2", f"read of {a.loc!r}[{a.off}] sees {cur!r}, "
                               f"trace recorded {a.val!r}")

    # -- propagation -------------------------------------------------------------

    def propagate(self, edits: list[tuple[Loc, int, MachineValue]],
                  fuel: int | None = None) -> FastResult:
        """Apply the edits and bring the run up to date.  If this raises,
        every later propagate or mark_dirty raises BrokenRuntime."""
        if self.failure is not None:
            raise BrokenRuntime(self.failure) from self.failure
        try:
            return self._propagate(edits, fuel)
        except BaseException as exc:
            self.failure = exc
            raise

    def _propagate(self, edits, fuel) -> FastResult:
        fuel = fuel if fuel is not None else self.fuel
        self.generation += 1
        self.eval_steps = 0
        self.undo_steps = 0
        self.matches = 0
        self.reevaluated = []
        self.skipped = 0
        self.start_entries = self.live_entries
        for loc, off, val in edits:
            self.mark_dirty(loc, off, val)
        while self.queue:
            # A dequeued node stays marked queued until its check ends, so
            # the writes of its own re-evaluation cannot queue it again.
            node = self.queue.pop(0)
            if node.kind != "run":
                self._replay_window(node)
            elif not self.window_dirty(node):
                self.skipped += 1
            else:
                act = node.actions[-1]
                self.reevaluated.append(act.eid)
                env = dict(act.env)
                env.update((f, self.fun_index[f]) for f in act.fnames)
                # The update ends its node, so the doomed interval starts
                # at the next node.
                self._session(env, act.expr, after=node, cursor=node.next,
                              fuel=fuel)
            node.queued = False
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
        return from_flat(self.flat_trace())

    def final_values(self) -> tuple[MachineValue, ...]:
        # The last node holds the top-level pop.
        last = self.tail.prev.actions[-1]
        assert isinstance(last, TPop), "trace does not end in a pop"
        return last.vals

    def build_store(self) -> Store:
        store = self.base.copy()
        for (lid, off), h in self.histories.items():
            base_val = store.cells.get((lid, off))
            v = h.write_before(len(h.actions), base_val)
            if v is not None and (lid, off) in store.cells:
                store.cells[(lid, off)] = v
        return store

    def result(self) -> FastResult:
        """The last propagation's result; builds neither trace nor store."""
        return FastResult(
            values=self.final_values(),
            realized=self.eval_steps + self.undo_steps,
            eval_steps=self.eval_steps,
            undo_steps=self.undo_steps,
            # Each undo step retires one entry the propagation began with.
            prop_equivalent=self.start_entries - self.undo_steps - self.matches,
            reevaluated=list(self.reevaluated),
            skipped=self.skipped,
            matches=self.matches,
            runtime=self,
            generation=self.generation,
        )


__all__ = ["OrderMaintenance", "OMHandle", "UseAfterDelete", "TraceNode",
           "EntryHistory", "Runtime", "FastResult"]
