import pytest

from sasm.analyses import LiveSet
from sasm.errors import FuelExhausted, Stuck, StuckRead
from sasm.ilast import PRIMOPS, Alloc, Inst, Pop, PrimOp, Read, Write
from sasm.parser import parse_program
from sasm.refmachine import PRIMS, compile_step, ref_run
from sasm.store import Loc, Store, UNINIT
from sasm.trace import TAlloc, TRead, TWrite

NO_POINTS = LiveSet({}, frozenset(), {})


def step_inst(store, env, inst):
    """An instruction's compiled steps, run on `store` and on a copy: the
    reference machine's rule tag and value, and the tracing engines' action,
    which records the operands that S.1-S.3 resolved."""
    e = Inst(var="r", inst=inst, cont=Pop(vals=("r",)))
    traced_store = store.copy()
    tag, action, env2, _ = compile_step(e)(store, dict(env))
    assert action is None
    _, traced, _, _ = compile_step(e, NO_POINTS)(traced_store, dict(env))
    return env2["r"], tag, traced


def test_alloc_marks_offsets_uninitialized():
    store = Store()
    v, tag, action = step_inst(store, {"x": 3}, Alloc(size="x"))
    assert tag == "R.6/S.1" and isinstance(v, Loc)
    assert action == TAlloc(v, 3)
    assert all(store.peek(v, i) is UNINIT for i in (1, 2, 3))
    assert store.peek(v, 4) is None


def test_write_then_read_roundtrips():
    store = Store()
    loc = store.alloc(2)
    env = {"l": loc, "v": 7}
    assert step_inst(store, env, Write(loc="l", off=1, val="v")) \
        == (0, "R.6/S.3", TWrite(7, loc, 1))
    assert step_inst(store, env, Read(loc="l", off=1)) \
        == (7, "R.6/S.2", TRead(7, loc, 1))


def test_read_of_uninitialized_entry_is_stuck():
    store = Store()
    loc = store.alloc(1)
    with pytest.raises(StuckRead):
        store.read(loc, 1)


def test_read_of_garbage_and_out_of_range_is_stuck():
    store = Store()
    loc = store.alloc(2)
    store.write(loc, 1, 5)
    with pytest.raises(Stuck):
        store.read(loc, 3)
    store.mark_garbage(loc)
    with pytest.raises(StuckRead):
        store.read(loc, 1)


def test_negative_alloc_is_stuck():
    store = Store()
    with pytest.raises(Stuck):
        store.alloc(-1)


def test_if_zero_takes_else_branch():
    p = parse_program("""
let fun f(x) =
  if x then pop(1) else pop(0)
f(0)
arity 1
""")
    r = ref_run(p)
    assert r.values == (0,)
    assert "R.4" in r.log and "R.3" not in r.log


def test_pop_then_apply_restores_frame_env():
    p = parse_program("""
let fun k(v) =
  let s = prim add(v, y) in
  pop(s)
let y = prim add(10, 0) in
push k do
  pop(32)
arity 1
""")
    r = ref_run(p)
    assert r.values == (42,)
    i = r.log.index("R.10")
    assert r.log[i + 1] == "R.11"


def test_memo_and_update_are_noops():
    p = parse_program("memo update pop(5)\narity 1")
    r = ref_run(p)
    assert r.values == (5,)
    assert r.log == ["R.7", "R.8", "R.10"]


def test_single_pop_program_with_input():
    p = parse_program("input x\npop(x)\narity 1")
    r = ref_run(p, inputs={"x": 42})
    assert r.values == (42,) and r.steps == 1


def test_fuel_exhaustion_is_distinct_from_stuck():
    p = parse_program("""
let fun spin() =
  spin()
spin()
arity 0
""")
    with pytest.raises(FuelExhausted):
        ref_run(p, fuel=100)


def test_div_mod_by_zero_are_machine_errors():
    p = parse_program("let x = prim div(1, 0) in pop(x)\narity 1")
    with pytest.raises(Stuck):
        ref_run(p)


def test_wrapping_arithmetic():
    p = parse_program(
        "let big = prim mul(4611686018427387904, 4) in pop(big)\narity 1")
    assert ref_run(p).values == (0,)


def test_stack_discipline_and_store_monotonicity(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        locs_before = set(store.sizes)
        r = ref_run(bench.program, store, inputs=inputs)
        depth = 0
        for tag in r.log:
            if tag == "R.9":
                depth += 1
            elif tag == "R.11":
                depth -= 1
            assert depth >= 0
        assert depth == 0
        assert locs_before <= set(r.store.sizes)
        assert not r.store.garbage


def test_determinism_same_run_twice(corpus):
    bench = corpus[0]
    store, labels, inputs = bench.build()
    r1 = ref_run(bench.program, store.copy(), inputs=inputs)
    r2 = ref_run(bench.program, store.copy(), inputs=inputs)
    assert r1.values == r2.values and r1.log == r2.log


def test_step_terminates_with_values_on_empty_stack():
    p = parse_program("pop(1, 2)\narity 2")
    r = ref_run(p, Store())
    assert r.log == ["R.10"]
    assert r.values == (1, 2)


MAX, MIN, L = (1 << 63) - 1, -(1 << 63), Loc(3)
R2 = "R.2"

# (op, a, b, value or (rule, message)), pinned from the if-chain that the
# primitive table replaced; b is None for the unary `not`.
PRIM_CASES = [
    ("add", MAX, 1, MIN), ("add", MIN, -1, MAX), ("add", -7, 3, -4),
    ("sub", MIN, 1, MAX), ("sub", MAX, -1, MIN), ("sub", 2, 9, -7),
    ("mul", MAX, 2, -2), ("mul", 1 << 32, 1 << 32, 0), ("mul", -4, 6, -24),
    ("div", 7, 2, 3), ("div", -7, 2, -3), ("div", 7, -2, -3),
    ("div", -7, -2, 3), ("div", MIN, -1, MIN),
    ("div", 5, 0, (R2, "division by zero")),
    ("mod", 7, 2, 1), ("mod", -7, 2, -1), ("mod", 7, -2, 1),
    ("mod", -7, -2, -1), ("mod", MIN, -1, 0),
    ("mod", 5, 0, (R2, "modulo by zero")),
    ("eq", 4, 4, 1), ("eq", L, L, 1), ("eq", L, Loc(4), 0), ("eq", L, 3, 0),
    ("neq", 4, 5, 1), ("neq", L, L, 0),
    ("lt", -1, 0, 1), ("lt", 0, 0, 0), ("leq", 0, 0, 1), ("leq", 1, 0, 0),
    ("max", -3, 2, 2), ("max", 5, 5, 5), ("min", -3, 2, -3),
    ("min", MAX, MIN, MIN),
    ("not", 0, None, 1), ("not", 7, None, 0),
    ("not", L, None, (R2, "not of a location")),
    ("add", L, 1, (R2, "arithmetic on a location: add(ℓ3, 1)")),
    ("sub", 1, L, (R2, "arithmetic on a location: sub(1, ℓ3)")),
    ("div", L, 0, (R2, "arithmetic on a location: div(ℓ3, 0)")),
    ("mod", 1, L, (R2, "arithmetic on a location: mod(1, ℓ3)")),
    ("lt", L, L, (R2, "arithmetic on a location: lt(ℓ3, ℓ3)")),
    ("max", L, 2, (R2, "arithmetic on a location: max(ℓ3, 2)")),
    ("min", 2, L, (R2, "arithmetic on a location: min(2, ℓ3)")),
]


def apply_prim(op, args):
    """A primitive's compiled step on operands bound to variables."""
    names = ("a", "b")[:len(args)]
    e = PrimOp(var="r", op=op, args=names, cont=Pop(vals=("r",)))
    _, _, env, _ = compile_step(e)(Store(), dict(zip(names, args)))
    return env["r"]


@pytest.mark.parametrize("op, a, b, want", PRIM_CASES)
def test_primitive_table_matches_the_pinned_results(op, a, b, want):
    args = [a] if b is None else [a, b]
    try:
        got = apply_prim(op, args)
    except Stuck as exc:
        got = (exc.family, exc.reason)
    assert got == want


def test_primitive_table_covers_every_primitive():
    assert set(PRIMS) == set(PRIMOPS)
    assert {op for op, *_ in PRIM_CASES} == set(PRIMOPS)
    with pytest.raises(Stuck, match="unknown primitive 'pow'"):
        apply_prim("pow", [2, 3])
