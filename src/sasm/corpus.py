"""Benchmark programs: expression trees, array max, list primitives.

Each benchmark couples a main IL program with an input-builder IL program.
Builders are straight-line (allocations and writes only, ending in a pop of
the labeled locations), so they run on the reference machine and never
participate in tracing; edits then modify the built store without fighting
replayed writes.

Node layout for expression trees: offsets 1..5 hold TAG, LEAF_VAL, OP, LEFT,
RIGHT; tags are 0=leaf, 1=binop; ops are 0=plus, 1=minus.  Lists are 2-slot
cons cells (value, next) with 0 as nil.  All offsets are 1-based, matching
the allocation rule.

Cross-iteration dataflow in the list and array programs goes through the
store (result cells, tail cells), never through popped values: every pop is
zero-arity, so these programs replay consistently as written.

Each program is written once.  The three array-max variants share one
round body and differ only in what follows the round's write; map, filter
and reverse share one pass skeleton and supply only their per-cell body.
The parser renames a rebound name by binding order, so these templates
keep every name and the order in which names are bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from . import ilast as A
from .errors import Stuck
from .parser import parse_program
from .refmachine import ref_run
from .store import Loc, MachineValue, Store

TAG, VAL, OP, LEFT, RIGHT = 1, 2, 3, 4, 5
LEAF, BINOP = 0, 1
PLUS, MINUS = 0, 1


@dataclass
class Edit:
    """One store edit: write value (or the location named by another label)
    at label[offset]."""

    label: str
    offset: int
    value: int | str  # int, or "@label" for a location

    def resolve(self, labels: dict[str, MachineValue]):
        """(location, offset, value) under `labels`; ValueError when a label
        is unknown or the edited label is not a location."""
        if self.label not in labels:
            raise ValueError(f"unknown edit label {self.label!r}")
        loc = labels[self.label]
        if not isinstance(loc, Loc):
            raise ValueError(f"label {self.label!r} is not a location")
        if isinstance(self.value, str):
            name = self.value[1:]
            if not self.value.startswith("@") or name not in labels:
                raise ValueError(f"edit value {self.value!r} names no label")
            return loc, self.offset, labels[name]
        return loc, self.offset, self.value


def parse_edit_line(line: str) -> Edit:
    """Parse 'write LABEL OFFSET VALUE'; VALUE is an integer or @LABEL."""
    try:
        verb, label, off, val = line.split()
        if verb != "write":
            raise ValueError
        return Edit(label, int(off), val if val.startswith("@") else int(val))
    except ValueError:
        raise ValueError(f"bad edit line {line!r}") from None


def apply_edits(store: Store, labels: dict[str, MachineValue],
                edits: list[Edit]) -> None:
    """Write each edit's value into the store."""
    for e in edits:
        store.write(*e.resolve(labels))


@dataclass
class Benchmark:
    name: str
    program: A.Program
    builder: A.Program
    # Slots eligible for random value edits, as (label, offset) pairs.
    edit_slots: list[tuple[str, int]] = field(default_factory=list)
    # observe(values, store, labels) -> observable output
    observe: Callable = None  # type: ignore[assignment]
    # oracle(store, labels) -> expected observable, host-side recomputation
    oracle: Callable = None  # type: ignore[assignment]
    fixture_edits: dict[str, list[Edit]] = field(default_factory=dict)
    # Consistent propagation without conversion: all pops are zero-arity or
    # otherwise store-agnostic by construction.
    native_csa: bool = False

    def build(self) -> tuple[Store, dict[str, MachineValue], dict[str, MachineValue]]:
        """Run the builder; returns (store, label map, input bindings)."""
        r = ref_run(self.builder, Store(), keep_log=False)
        labels = dict(zip(self.builder.labels, r.values))
        inputs = {name: labels[name] for name in self.program.inputs}
        return r.store, labels, inputs


def deref_result(values, store: Store, n: int):
    """Follow a destination-passing result: read n entries of the returned
    location."""
    if len(values) != 1 or not isinstance(values[0], Loc):
        raise Stuck("deref", f"expected a single location, got {values!r}")
    return tuple(store.read(values[0], i) for i in range(1, n + 1))


# -- expression trees -------------------------------------------------------

EXPTREES_MAIN = """
input root

let fun eval(t) =
  memo
    let fun eval_right(l) =
      let fun eval_op(r) = update
        let op = read(t, 3) in
        let isplus = prim eq(op, 0) in
        if isplus then
          let s = prim add(l, r) in
          pop(s)
        else
          let s2 = prim sub(l, r) in
          pop(s2)
      in
      push eval_op do update
        let rt = read(t, 5) in
        eval(rt)
    in
    update
      let tag = read(t, 1) in
      let isleaf = prim eq(tag, 0) in
      if isleaf then
        let v = read(t, 2) in
        pop(v)
      else
        push eval_right do update
          let lt = read(t, 4) in
          eval(lt)

eval(root)
arity 1
"""

TreeShape = tuple  # ("leaf", v) | ("node", "+"|"-", left, right)

UPPER_TREE: TreeShape = ("node", "+",
                         ("node", "-",
                          ("node", "+", ("leaf", 3), ("leaf", 4)),
                          ("leaf", 0)),
                         ("node", "-", ("leaf", 5), ("leaf", 6)))


def eval_tree_shape(shape: TreeShape) -> int:
    if shape[0] == "leaf":
        return shape[1]
    _, op, l, r = shape
    lv, rv = eval_tree_shape(l), eval_tree_shape(r)
    return A.wrap64(lv + rv if op == "+" else lv - rv)


def _emit_tree(shape: TreeShape, lines: list[str], counter: list[int]) -> str:
    k = counter[0]
    counter[0] += 1
    name = f"n{k}"
    lines.append(f"let {name} = alloc(5) in")
    if shape[0] == "leaf":
        lines.append(f"let {name}_t = write({name}, {TAG}, {LEAF}) in")
        lines.append(f"let {name}_v = write({name}, {VAL}, {shape[1]}) in")
    else:
        _, op, l, r = shape
        lname = _emit_tree(l, lines, counter)
        rname = _emit_tree(r, lines, counter)
        opv = PLUS if op == "+" else MINUS
        lines.append(f"let {name}_t = write({name}, {TAG}, {BINOP}) in")
        lines.append(f"let {name}_o = write({name}, {OP}, {opv}) in")
        lines.append(f"let {name}_l = write({name}, {LEFT}, {lname}) in")
        lines.append(f"let {name}_r = write({name}, {RIGHT}, {rname}) in")
    return name


def _read_tree(store: Store, loc) -> int:
    tag = store.read(loc, TAG)
    if tag == LEAF:
        return store.read(loc, VAL)
    op = store.read(loc, OP)
    lv = _read_tree(store, store.read(loc, LEFT))
    rv = _read_tree(store, store.read(loc, RIGHT))
    return A.wrap64(lv + rv if op == PLUS else lv - rv)


def gen_exptrees(shape: TreeShape = UPPER_TREE) -> Benchmark:
    """The tree evaluator with a builder for the given shape."""
    lines: list[str] = []
    root = _emit_tree(shape, lines, [0])
    return Benchmark(
        name="exptrees",
        program=parse_program(EXPTREES_MAIN),
        builder=parse_program("labels root\n" + "\n".join(lines)
                              + f"\npop({root})\narity 1\n"),
        observe=lambda values, store, labels: values[0],
        oracle=lambda store, labels: _read_tree(store, labels["root"]),
    )


def exptrees_fixture() -> Benchmark:
    """The worked example: upper tree evaluating to 6; the lower-tree edit
    rebuilds the right subtree to yield 11."""
    # The spare node j = (g + 5), where g is the upper tree's right child:
    # the builder reads g off the root into j's LEFT, so the edit only has
    # to swing root[RIGHT] to j.
    lines: list[str] = []
    counter = [0]
    root = _emit_tree(UPPER_TREE, lines, counter)
    new5 = _emit_tree(("leaf", 5), lines, counter)
    j = f"n{counter[0]}"
    lines.append(f"let {j} = alloc(5) in")
    lines.append(f"let {j}_t = write({j}, {TAG}, {BINOP}) in")
    lines.append(f"let {j}_o = write({j}, {OP}, {PLUS}) in")
    lines.append(f"let {j}_g = read({root}, {RIGHT}) in")
    lines.append(f"let {j}_l = write({j}, {LEFT}, {j}_g) in")
    lines.append(f"let {j}_r = write({j}, {RIGHT}, {new5}) in")
    builder = parse_program("labels root jnode\n" + "\n".join(lines)
                            + f"\npop({root}, {j})\narity 2\n")
    return replace(gen_exptrees(), builder=builder,
                   fixture_edits={"lower": [Edit("root", RIGHT, "@jnode")]})


def random_tree(rng: random.Random, depth: int) -> TreeShape:
    if depth <= 0 or rng.random() < 0.3:
        return ("leaf", rng.randrange(-20, 21))
    return ("node", rng.choice("+-"),
            random_tree(rng, depth - 1), random_tree(rng, depth - 1))


# -- array max ---------------------------------------------------------------

ARRAY_MAX_COMMON = """
input arr
input len
input maxcell

let fun maxfn(a, b, dst) =
  let c = prim lt(a, b) in
  if c then
    let w = write(dst, 1, b) in
    pop()
  else
    let w2 = write(dst, 1, a) in
    pop()

let fun finish() = update
  let mx = read(arr, 1) in
  let wm = write(maxcell, 1, mx) in
  pop()
"""

ARRAY_MAX_TAIL = """
let fun while_loop(n) =
  let go = prim lt(1, n) in
  if go then round(1, n) else finish()

while_loop(len)
arity 0
"""

# After the pair at i: the next pair of this round, or the next round.
ARRAY_MAX_NEXT = """
    let ip2 = prim add(i, 2) in
    let more = prim lt(ip2, n) in
    if more then
      round(ip2, n)
    else
      let n2 = prim div(n, 2) in
      while_loop(n2)
"""


def _array_max_round(variant: str) -> str:
    """The round function: write max(arr[i], arr[i+1]) to arr[(i+1)/2],
    then go on.  Variant a goes on at once, b after a memo point; c cuts
    the pair's work into a block and goes on after it."""
    after_write = {"a": ARRAY_MAX_NEXT, "b": "memo" + ARRAY_MAX_NEXT,
                   "c": "pop()"}[variant]
    pair = f"""
  let mptr = alloc(1) in
  let fun after_max() = update
    let m = read(mptr, 1) in
    let i1 = prim add(i, 1) in
    let half = prim div(i1, 2) in
    let wr = write(arr, half, m) in
    {after_write}
  in
  push after_max do update
    let a = read(arr, i) in
    let i2 = prim add(i, 1) in
    let b = read(arr, i2) in
    maxfn(a, b, mptr)
"""
    if variant == "c":
        pair = f"cut {{{pair}}}{ARRAY_MAX_NEXT}"
    return "\nlet fun round(i, n) =" + pair


class BadSize(ValueError):
    """A generator was asked for a size it cannot build."""


class NotPowerOfTwo(BadSize):
    pass


def _array_builder(values: list[int]) -> A.Program:
    n = len(values)
    lines = [f"labels arr len maxcell"]
    lines.append(f"let arr = alloc({n}) in")
    for i, v in enumerate(values, start=1):
        lines.append(f"let w{i} = write(arr, {i}, {v}) in")
    lines.append("let maxcell = alloc(1) in")
    lines.append("let wj = write(maxcell, 1, 0) in")
    lines.append(f"let len = prim add({n}, 0) in")
    lines.append("pop(arr, len, maxcell)")
    lines.append("arity 3")
    return parse_program("\n".join(lines))


def gen_array_max(n_or_values, variant: str = "b") -> Benchmark:
    """The iterative pairwise array-max reduction, three variants: (a) plain,
    (b) memo at the loop end, (c) cut block around the loop body."""
    if isinstance(n_or_values, int):
        n = n_or_values
        rng = random.Random(n * 7919 + ord(variant))
        values = [rng.randrange(0, 100) for _ in range(n)]
    else:
        values = list(n_or_values)
        n = len(values)
    if n < 2 or n & (n - 1):
        raise NotPowerOfTwo(f"array length {n} is not a power of two >= 2")
    src = (ARRAY_MAX_COMMON + _array_max_round(variant) + ARRAY_MAX_TAIL)
    program = parse_program(src)
    builder = _array_builder(values)
    return Benchmark(
        name=f"array_max_{variant}",
        program=program,
        builder=builder,
        native_csa=True,
        edit_slots=[("arr", i) for i in range(1, n + 1)],
        observe=lambda values_, store, labels: store.read(labels["maxcell"], 1),
        oracle=lambda store, labels: max(
            store.read(labels["arr"], i) for i in range(1, n + 1)),
    )


# -- list primitives ----------------------------------------------------------

LIST_SUM = """
input lst
input res

let fun roundstart(l) =
  update
    let tail = read(l, 2) in
    let single = prim eq(tail, 0) in
    if single then
      update
        let v = read(l, 1) in
        let wr = write(res, 1, v) in
        pop()
    else
      let hdr = alloc(2) in
      sumround(l, hdr, hdr)

let fun sumround(p, prev, hdr) =
  let pz = prim eq(p, 0) in
  if pz then
    let wend = write(prev, 2, 0) in
    update
      let out = read(hdr, 2) in
      roundstart(out)
  else
    let cell = alloc(2) in
    let wl = write(prev, 2, cell) in
    cut {
      update
        let v1 = read(p, 1) in
        let nx = read(p, 2) in
        let v2 = read(nx, 1) in
        let s = prim OPNAME(v1, v2) in
        let wv = write(cell, 1, s) in
        pop()
    }
    update
      let nx2 = read(p, 2) in
      let rest = read(nx2, 2) in
      sumround(rest, cell, hdr)

roundstart(lst)
arity 0
"""


def _list_pass(step: str, cell: str, body: str) -> str:
    """A single pass over the input list: `body` handles the cell p in a cut
    block, updating the store cell `cell`; the pass then steps to p's tail."""
    return f"""
input lst
input {cell}

let fun {step}(p) =
  let pz = prim eq(p, 0) in
  if pz then
    pop()
  else
    cut {{
      update
        {body}
    }}
    update
      let rest = read(p, 2) in
      {step}(rest)

{step}(lst)
arity 0
"""


# Append a cell holding {val} at the output tail that tcell holds.
APPEND_OUT = """
          let tail = read(tcell, 1) in
          let out = alloc(2) in
          let w1 = write(out, 1, {val}) in
          let w2 = write(out, 2, 0) in
          let w3 = write(tail, 2, out) in
          let w4 = write(tcell, 1, out) in
          pop()
"""

LIST_MAP = _list_pass("mapstep", "tcell", """
        let v = read(p, 1) in
        let v2 = prim mul(v, 2) in""" + APPEND_OUT.format(val="v2"))

LIST_FILTER = _list_pass("filtstep", "tcell", """
        let v = read(p, 1) in
        let m = prim mod(v, 2) in
        let keep = prim eq(m, 0) in
        if keep then""" + APPEND_OUT.format(val="v") + """
        else
          pop()""")

LIST_REVERSE = _list_pass("revstep", "acell", """
        let v = read(p, 1) in
        let a = read(acell, 1) in
        let c = alloc(2) in
        let w1 = write(c, 1, v) in
        let w2 = write(c, 2, a) in
        let w3 = write(acell, 1, c) in
        pop()""")


def _list_builder(values: list[int], extra_cells: list[str],
                  init_lines: list[str]) -> A.Program:
    n = len(values)
    if n < 1:
        raise BadSize("list length must be at least 1")
    labels = ["lst"] + [f"c{i}" for i in range(1, n + 1)] + extra_cells
    lines = ["labels " + " ".join(labels)]
    for i in range(1, n + 1):
        lines.append(f"let c{i} = alloc(2) in")
    for i, v in enumerate(values, start=1):
        nxt = f"c{i + 1}" if i < n else "0"
        lines.append(f"let v{i} = write(c{i}, 1, {v}) in")
        lines.append(f"let x{i} = write(c{i}, 2, {nxt}) in")
    for name in extra_cells:
        lines.append(f"let {name} = alloc(2) in")
        lines.append(f"let {name}_1 = write({name}, 1, 0) in")
        lines.append(f"let {name}_2 = write({name}, 2, 0) in")
    lines.extend(init_lines)
    pops = ["c1"] + [f"c{i}" for i in range(1, n + 1)] + extra_cells
    lines.append("pop(" + ", ".join(pops) + ")")
    lines.append(f"arity {len(labels)}")
    return parse_program("\n".join(lines))


def walk_list(store: Store, head) -> list[int]:
    out = []
    seen = set()
    p = head
    while isinstance(p, Loc):
        if p.id in seen:
            raise Stuck("list", "cyclic list")
        seen.add(p.id)
        out.append(store.read(p, 1))
        p = store.read(p, 2)
    return out


def _input_values(store: Store, labels, n: int) -> list[int]:
    return [store.read(labels[f"c{i}"], 1) for i in range(1, n + 1)]


def _observe_res(values_, store: Store, labels):
    return store.read(labels["res"], 1)


def _observe_list(label: str, off: int) -> Callable:
    return lambda values_, store, labels: tuple(
        walk_list(store, store.read(labels[label], off)))


_TCELL_INIT = ["let tini = write(tcell, 1, hdr) in"]

# One row per list primitive: program text, extra builder cells, builder
# init lines, observe, and the host function of the input values that the
# oracle applies.
_LIST_ROWS = {
    "sum": (LIST_SUM.replace("OPNAME", "add"), ["res"], [], _observe_res,
            lambda vs: A.wrap64(sum(A.wrap64(x) for x in vs))),
    "minimum": (LIST_SUM.replace("OPNAME", "min"), ["res"], [],
                _observe_res, lambda vs: A.wrap64(min(vs))),
    "map": (LIST_MAP, ["tcell", "hdr"], _TCELL_INIT, _observe_list("hdr", 2),
            lambda vs: tuple(A.wrap64(v * 2) for v in vs)),
    "filter": (LIST_FILTER, ["tcell", "hdr"], _TCELL_INIT,
               _observe_list("hdr", 2),
               lambda vs: tuple(v for v in vs if v % 2 == 0)),
    "reverse": (LIST_REVERSE, ["acell"], [], _observe_list("acell", 1),
                lambda vs: tuple(reversed(vs))),
}


def gen_list(prim: str, n: int, seed: int = 0) -> Benchmark:
    """List benchmarks over seeded cons lists: sum/minimum use pairwise
    reduction rounds; map/filter/reverse are single passes that thread the
    output tail through the store."""
    rng = random.Random(seed)
    values = [rng.randrange(-50, 100) for _ in range(n)]
    if prim not in _LIST_ROWS:
        raise ValueError(f"unknown list primitive {prim!r}")
    if prim in ("sum", "minimum") and (n < 2 or n & (n - 1)):
        raise NotPowerOfTwo(f"list length {n} is not a power of two >= 2")
    src, cells, init, observe, host = _LIST_ROWS[prim]
    return Benchmark(
        name=f"list_{prim}", program=parse_program(src),
        builder=_list_builder(values, cells, init), native_csa=True,
        edit_slots=[(f"c{i}", 1) for i in range(1, n + 1)], observe=observe,
        oracle=lambda store, labels: host(_input_values(store, labels, n)))


def corpus_benchmarks() -> list[Benchmark]:
    """The standard corpus used across the consistency suites."""
    arr = [2, 9, 3, 5, 4, 7, 1, 6]
    return [
        exptrees_fixture(),
        gen_exptrees(random_tree(random.Random(11), 4)),
        gen_array_max(arr, "a"),
        gen_array_max(arr, "b"),
        gen_array_max(arr, "c"),
        gen_list("sum", 8, seed=1),
        gen_list("minimum", 8, seed=2),
        gen_list("map", 7, seed=3),
        gen_list("filter", 7, seed=4),
        gen_list("reverse", 7, seed=5),
        gen_sort("quicksort", 9, seed=6),
        gen_sort("mergesort", 9, seed=7),
    ]


# -- sorting (stretch entries, oracle-only acceptance) --------------------------

LIST_QUICKSORT = """
input lst

let fun append(a, b) =
  let az = prim eq(a, 0) in
  if az then
    pop(b)
  else
    update
      let av = read(a, 1) in
      let arest = read(a, 2) in
      let fun app_k(r) =
        let cell = alloc(2) in
        let w1 = write(cell, 1, av) in
        let w2 = write(cell, 2, r) in
        pop(cell)
      in
      push app_k do
        append(arest, b)

let fun partition(p, pivot) =
  let pz = prim eq(p, 0) in
  if pz then
    pop(0, 0)
  else
    update
      let v = read(p, 1) in
      let rest = read(p, 2) in
      let fun part_k(ls, gs) =
        let below = prim lt(v, pivot) in
        let cell = alloc(2) in
        let w1 = write(cell, 1, v) in
        if below then
          let w2 = write(cell, 2, ls) in
          pop(cell, gs)
        else
          let w3 = write(cell, 2, gs) in
          pop(ls, cell)
      in
      push part_k do
        partition(rest, pivot)

let fun qsort(l) =
  memo
    let lz = prim eq(l, 0) in
    if lz then
      pop(0)
    else
      update
        let pivot = read(l, 1) in
        let rest = read(l, 2) in
        let fun qs_k1(less, geq) =
          let fun qs_k2(sl) =
            let fun qs_k3(sg) =
              let mid = alloc(2) in
              let w1 = write(mid, 1, pivot) in
              let w2 = write(mid, 2, sg) in
              append(sl, mid)
            in
            push qs_k3 do
              qsort(geq)
          in
          push qs_k2 do
            qsort(less)
        in
        push qs_k1 do
          partition(rest, pivot)

qsort(lst)
arity 1
"""

LIST_MERGESORT = """
input lst

let fun split(p) =
  let pz = prim eq(p, 0) in
  if pz then
    pop(0, 0)
  else
    update
      let v = read(p, 1) in
      let rest = read(p, 2) in
      let fun sp_k(xs, ys) =
        let cell = alloc(2) in
        let w1 = write(cell, 1, v) in
        let w2 = write(cell, 2, ys) in
        pop(cell, xs)
      in
      push sp_k do
        split(rest)

let fun merge(a, b) =
  let az = prim eq(a, 0) in
  if az then
    pop(b)
  else
    let bz = prim eq(b, 0) in
    if bz then
      pop(a)
    else
      update
        let av = read(a, 1) in
        let bv = read(b, 1) in
        let aleq = prim leq(av, bv) in
        if aleq then
          update
            let arest = read(a, 2) in
            let fun mg_ka(r) =
              let cell = alloc(2) in
              let w1 = write(cell, 1, av) in
              let w2 = write(cell, 2, r) in
              pop(cell)
            in
            push mg_ka do
              merge(arest, b)
        else
          update
            let brest = read(b, 2) in
            let fun mg_kb(r) =
              let cell2 = alloc(2) in
              let w3 = write(cell2, 1, bv) in
              let w4 = write(cell2, 2, r) in
              pop(cell2)
            in
            push mg_kb do
              merge(a, brest)

let fun msort(l) =
  memo
    let lz = prim eq(l, 0) in
    if lz then
      pop(0)
    else
      update
        let tail = read(l, 2) in
        let single = prim eq(tail, 0) in
        if single then
          let cell = alloc(2) in
          update
            let v = read(l, 1) in
            let w1 = write(cell, 1, v) in
            let w2 = write(cell, 2, 0) in
            pop(cell)
        else
          let fun ms_k1(xs, ys) =
            let fun ms_k2(sx) =
              let fun ms_k3(sy) =
                merge(sx, sy)
              in
              push ms_k3 do
                msort(ys)
            in
            push ms_k2 do
              msort(xs)
          in
          push ms_k1 do
            split(l)

msort(lst)
arity 1
"""


def gen_sort(algo: str, n: int, seed: int = 0) -> Benchmark:
    """Stretch corpus entries: sorting over cons lists, accepted against the
    host oracle only (the paper gives no small worked instance)."""
    rng = random.Random(seed)
    values = [rng.randrange(-50, 100) for _ in range(n)]
    src = {"quicksort": LIST_QUICKSORT, "mergesort": LIST_MERGESORT}[algo]
    program = parse_program(src)
    builder = _list_builder(values, [], [])

    def observe(values_, store, labels):
        head = values_[0]
        if isinstance(head, Loc) and store.sizes.get(head.id) == 1:
            head = store.read(head, 1)  # converted runs return a destination
        return tuple(walk_list(store, head)) if head != 0 else ()

    return Benchmark(
        name=f"list_{algo}", program=program, builder=builder,
        edit_slots=[(f"c{i}", 1) for i in range(1, n + 1)],
        observe=observe,
        oracle=lambda store, labels, n=n: tuple(
            sorted(_input_values(store, labels, n))))


# -- on-disk corpus -----------------------------------------------------------


def standalone_exptrees_source() -> str:
    """A self-contained exptrees file: the input builder inlined as a
    straight-line prelude of the entry expression."""
    lines: list[str] = []
    root = _emit_tree(UPPER_TREE, lines, [0])
    defs = EXPTREES_MAIN.split("eval(root)")[0].replace("input root\n", "")
    return defs + "\n".join(lines) + f"\neval({root})\narity 1\n"


def emit_corpus_files(directory: str) -> list[str]:
    """Write the corpus .il files (program + builder pairs) and return the
    paths written.  The first benchmark of each name is written: the
    random tree shares the worked example's program."""
    import os
    from .printer import print_program

    os.makedirs(directory, exist_ok=True)
    texts = {"exptrees_standalone.il": standalone_exptrees_source()}
    for b in corpus_benchmarks():
        texts.setdefault(f"{b.name}.il", print_program(b.program))
        texts.setdefault(f"{b.name}.build.il", print_program(b.builder))
    written = []
    for name, text in texts.items():
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return written


__all__ = [
    "Benchmark", "Edit", "apply_edits", "parse_edit_line", "deref_result",
    "gen_exptrees", "exptrees_fixture", "gen_array_max", "gen_list",
    "gen_sort",
    "random_tree", "eval_tree_shape", "corpus_benchmarks", "walk_list",
    "BadSize", "NotPowerOfTwo", "UPPER_TREE", "emit_corpus_files",
    "standalone_exptrees_source",
    "TAG", "VAL", "OP", "LEFT", "RIGHT", "LEAF", "BINOP", "PLUS", "MINUS",
]
