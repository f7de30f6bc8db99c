"""Every way a run gets stuck, pinned per engine.

For each stuck case and each of `ref_run`, `run_from_scratch` and a
`Runtime` build, the table pins the `Stuck` class, its rule family and
message, and the steps taken before it: with that much fuel the run is
still going (FuelExhausted), with one more it is stuck.  The Runtime's
reads see entry histories, not the store, so they report a read they cannot
make as unavailable.
"""

import pytest

from sasm import ilast as A
from sasm.errors import FuelExhausted, Stuck
from sasm.parser import parse_program
from sasm.refmachine import ref_run
from sasm.runtime import Runtime
from sasm.store import Store
from sasm.tracing import run_from_scratch

ENGINES = {
    "ref": lambda p, s, i, fuel: ref_run(p, s, inputs=i, fuel=fuel),
    "scratch": lambda p, s, i, fuel: run_from_scratch(p, s, inputs=i,
                                                      fuel=fuel),
    "runtime": lambda p, s, i, fuel: Runtime(p, s, inputs=i, fuel=fuel),
}


def _popped_values_arity() -> A.Program:
    """push k do pop(1), with k taking two values.  The parser rejects it,
    so it is built directly."""
    k = A.FunDef(fname="k", params=("a", "b"), body=A.Pop(vals=("a",)))
    return A.number_exprs(A.Program(
        defs=[k], entry=A.Push(fname="k", body=A.Pop(vals=(1,))), arity=1))


# name -> (program text or builder, {engine: (class, family, message,
# steps)}); an entry "all" stands for every engine.
CASES = {
    "unbound variable": (
        "let a = prim add(1, 2) in\nlet x = prim add(a, y) in\npop(x)",
        {"all": ("StuckRead", "S.2", "unbound name 'y'", 1)}),
    "unbound function": (
        "let a = prim add(1, 2) in\ng(a)",
        {"all": ("Stuck", "R.5", "unbound function 'g'", 1)}),
    "call arity": (
        "let fun f(a, b) =\n  pop(a)\nf(1)",
        {"all": ("Stuck", "R.5", "'f' takes 2 args", 0)}),
    "arithmetic on a location": (
        "let l = alloc(1) in\nlet x = prim add(l, 1) in\npop(x)",
        {"all": ("Stuck", "R.2", "arithmetic on a location: add(ℓ2, 1)",
                 1)}),
    "not of a location": (
        "let l = alloc(1) in\nlet x = prim not(l) in\npop(x)",
        {"all": ("Stuck", "R.2", "not of a location", 1)}),
    "division by zero": (
        "let z = prim sub(1, 1) in\nlet x = prim div(5, z) in\npop(x)",
        {"all": ("Stuck", "R.2", "division by zero", 1)}),
    "modulo by zero": (
        "let z = prim sub(1, 1) in\nlet x = prim mod(5, z) in\npop(x)",
        {"all": ("Stuck", "R.2", "modulo by zero", 1)}),
    "alloc of a location size": (
        "let l = alloc(1) in\nlet m = alloc(l) in\npop(m)",
        {"all": ("StuckAlloc", "S.1", "allocation size is a location: ℓ2",
                 1)}),
    "alloc of a negative size": (
        "let n = prim sub(0, 2) in\nlet m = alloc(n) in\npop(m)",
        {"all": ("StuckAlloc", "S.1", "bad allocation size -2", 1)}),
    "read of a non-location": (
        "let n = prim add(4, 0) in\nlet r = read(n, 1) in\npop(r)",
        {"ref": ("StuckRead", "S.2", "read from non-location 4", 1),
         "scratch": ("StuckRead", "S.2", "read from non-location 4", 1),
         "runtime": ("StuckRead", "S.2", "read of 4[1] unavailable", 1)}),
    "read out of range": (
        "let l = alloc(1) in\nlet r = read(l, 2) in\npop(r)",
        {"ref": ("StuckRead", "S.2", "read of ℓ2[2] out of range", 1),
         "scratch": ("StuckRead", "S.2", "read of ℓ2[2] out of range", 1),
         "runtime": ("StuckRead", "S.2", "read of ℓ2[2] unavailable", 1)}),
    "read of an uninitialized entry": (
        "let l = alloc(1) in\nlet r = read(l, 1) in\npop(r)",
        {"ref": ("StuckRead", "S.2", "read of uninitialized ℓ2[1]", 1),
         "scratch": ("StuckRead", "S.2", "read of uninitialized ℓ2[1]", 1),
         "runtime": ("StuckRead", "S.2", "read of ℓ2[1] unavailable", 1)}),
    "read of garbage": (
        "input g\nlet r = read(g, 1) in\npop(r)",
        {"ref": ("StuckRead", "S.2", "read from garbage location ℓ1", 0),
         "scratch": ("StuckRead", "S.2", "read from garbage location ℓ1",
                     0),
         "runtime": ("StuckRead", "S.2", "read of ℓ1[1] unavailable", 0)}),
    "write out of range": (
        "let l = alloc(1) in\nlet w = write(l, 3, 0) in\npop(w)",
        {"all": ("StuckWrite", "S.3", "write of ℓ2[3] out of range", 1)}),
    "popped-values arity": (
        _popped_values_arity,
        {"all": ("Stuck", "R.11", "'k' takes 2 values, popped 1", 2)}),
    "primitive with too few operands": (
        "let x = prim add(1) in\npop(x)",
        {"all": ("Stuck", "R.2", "add takes 2 operands, got 1", 0)}),
    "primitive with no operands": (
        "let x = prim add() in\npop(x)",
        {"all": ("Stuck", "R.2", "add takes 2 operands, got 0", 0)}),
    "primitive with too many operands": (
        "let x = prim not(1, 2) in\npop(x)",
        {"all": ("Stuck", "R.2", "not takes 1 operand, got 2", 0)}),
    "unbound operand of a wrong-arity primitive": (
        "let x = prim not(1, y) in\npop(x)",
        {"all": ("StuckRead", "S.2", "unbound name 'y'", 0)}),
}


def _start(source):
    """A fresh program, and a store whose location ℓ1, bound to the input
    g, is garbage."""
    prog = (source() if callable(source)
            else parse_program(source + "\narity 1"))
    store = Store()
    g = store.alloc(1)
    store.write(g, 1, 5)
    store.mark_garbage(g)
    return prog, store, {"g": g}


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("case", list(CASES))
def test_each_engine_gets_stuck_where_and_as_pinned(case, engine):
    source, want = CASES[case]
    cls, family, reason, steps = want.get(engine) or want["all"]
    run = ENGINES[engine]
    if steps:
        with pytest.raises(FuelExhausted):
            run(*_start(source), fuel=steps)
    with pytest.raises(Stuck) as info:
        run(*_start(source), fuel=steps + 1)
    exc = info.value
    assert (type(exc).__name__, exc.family, exc.reason) == (cls, family,
                                                            reason)
