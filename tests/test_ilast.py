"""Each command's operands and binders, stated once in `ilast`, against the
per-kind definitions that readers used to spell out for themselves, and
structural equality against its per-kind definition."""

import pytest

from sasm import ilast as A
from sasm.dps import dps_convert_program, dps_selective
from sasm.fuzz import gen_program
from sasm.parser import parse_program
from sasm.printer import print_program


@pytest.fixture(scope="module")
def programs(corpus):
    """Every corpus program and builder, the programs' DPS and selective DPS
    conversions, and fuzz seeds 0..199 with theirs."""
    out = []
    for b in corpus:
        out += [(b.name, b.program), (f"{b.name}.build", b.builder)]
    out += [(f"fuzz{s}", gen_program(s).program) for s in range(200)]
    for name, p in list(out):
        if not name.endswith(".build"):
            out += [(f"{name}.dps", dps_convert_program(p)),
                    (f"{name}.sel", dps_selective(p))]
    return out


# -- the per-kind definitions, as `wf.check_wf` and `ast_equal` had them --

def _operands(e):
    if isinstance(e, A.PrimOp):
        return tuple(e.args)
    if isinstance(e, A.If):
        return (e.cond,)
    if isinstance(e, A.App):
        return tuple(e.args)
    if isinstance(e, A.Inst):
        inst = e.inst
        if isinstance(inst, A.Alloc):
            return (inst.size,)
        if isinstance(inst, A.Read):
            return (inst.loc, inst.off)
        assert isinstance(inst, A.Write)
        return (inst.loc, inst.off, inst.val)
    if isinstance(e, A.Pop):
        return tuple(e.vals)
    return ()


def _binders(e):
    if isinstance(e, A.FunDef):
        return (e.fname, *e.params)
    if isinstance(e, (A.PrimOp, A.Inst)):
        return (e.var,)
    return ()


def _ast_equal(a, b) -> bool:
    while True:
        if a is None or b is None:
            return a is b
        if type(a) is not type(b):
            return False
        if isinstance(a, A.FunDef):
            if not (a.fname == b.fname and a.params == b.params
                    and _ast_equal(a.body, b.body)):
                return False
            a, b = a.cont, b.cont
            continue
        if isinstance(a, A.PrimOp):
            if not (a.var == b.var and a.op == b.op and a.args == b.args):
                return False
            a, b = a.cont, b.cont
            continue
        if isinstance(a, A.Inst):
            if not (a.var == b.var and _ast_equal(a.inst, b.inst)):
                return False
            a, b = a.cont, b.cont
            continue
        if isinstance(a, A.If):
            return (a.cond == b.cond and _ast_equal(a.then, b.then)
                    and _ast_equal(a.els, b.els))
        if isinstance(a, A.App):
            return a.fname == b.fname and a.args == b.args
        if isinstance(a, (A.Memo, A.Update)):
            a, b = a.body, b.body
            continue
        if isinstance(a, A.Push):
            if a.fname != b.fname:
                return False
            a, b = a.body, b.body
            continue
        if isinstance(a, A.Pop):
            return a.vals == b.vals
        if isinstance(a, A.Alloc):
            return a.size == b.size
        if isinstance(a, A.Read):
            return a.loc == b.loc and a.off == b.off
        if isinstance(a, A.Write):
            return a.loc == b.loc and a.off == b.off and a.val == b.val
        raise TypeError(f"not an AST node: {a!r}")


def _program_equal(a, b) -> bool:
    if a.arity != b.arity or a.inputs != b.inputs or a.labels != b.labels:
        return False
    if len(a.defs) != len(b.defs):
        return False
    return (all(_ast_equal(x, y) for x, y in zip(a.defs, b.defs))
            and _ast_equal(a.entry, b.entry))


# -- one-field changes -------------------------------------------------------

def _other(v):
    return v + 1 if isinstance(v, int) else v + "'"


def _swap(vs, i):
    return vs[:i] + (_other(vs[i]),) + vs[i + 1:]


def _other_kind(inst):
    """An instruction of another kind, sharing what operands it can."""
    ops = inst.operands
    if isinstance(inst, A.Alloc):
        return A.Read(ops[0], 0)
    if isinstance(inst, A.Read):
        return A.Write(*ops, 0)
    return A.Read(*ops[:2])


# A class per instruction kind that reads the same operands, so that a kind
# change need not change the operands too.
_TWINS = {c: type(f"{c.__name__}Twin", (c,), {})
          for c in (A.Alloc, A.Read, A.Write)}


def _changes(e):
    """(what, object, field, new value) for each change of one field of e."""
    if isinstance(e, (A.PrimOp, A.Inst)):
        yield "var", e, "var", _other(e.var)
    if isinstance(e, A.PrimOp):
        yield "op", e, "op", "sub" if e.op != "sub" else "add"
        for i in range(len(e.args)):
            yield "operand", e, "args", _swap(e.args, i)
    if isinstance(e, (A.FunDef, A.App, A.Push)):
        yield "fname", e, "fname", _other(e.fname)
    if isinstance(e, A.FunDef):
        for i in range(len(e.params)):
            yield "param", e, "params", _swap(e.params, i)
    if isinstance(e, A.App):
        for i in range(len(e.args)):
            yield "operand", e, "args", _swap(e.args, i)
    if isinstance(e, A.If):
        yield "cond", e, "cond", _other(e.cond)
    if isinstance(e, A.Pop):
        for i in range(len(e.vals)):
            yield "pop value", e, "vals", _swap(e.vals, i)
    if isinstance(e, A.Inst):
        inst = e.inst
        for f in {A.Alloc: ("size",), A.Read: ("loc", "off"),
                  A.Write: ("loc", "off", "val")}[type(inst)]:
            yield "operand", inst, f, _other(getattr(inst, f))
        yield "instruction kind", e, "inst", _other_kind(inst)
        yield "instruction kind", e, "inst", _TWINS[type(inst)](*inst.operands)


# -- tests -------------------------------------------------------------------

def test_operands_and_binders_equal_the_per_kind_tables(programs):
    kinds = set()
    for name, p in programs:
        for e in A.walk_program(p):
            assert A.operands(e) == _operands(e), (name, e.eid)
            assert A.binders(e) == _binders(e), (name, e.eid)
            kinds.add(type(e.inst) if isinstance(e, A.Inst) else type(e))
    assert kinds == {A.FunDef, A.PrimOp, A.If, A.App, A.Memo, A.Update,
                     A.Push, A.Pop, A.Alloc, A.Read, A.Write}


def test_instruction_table_names_each_kind_once():
    assert A.INSTRUCTIONS == {"alloc": A.Alloc, "read": A.Read,
                              "write": A.Write}
    for kw, cls in A.INSTRUCTIONS.items():
        assert cls.keyword == kw


def test_ast_equal_agrees_with_its_per_kind_definition(programs):
    # Every parse(print(p)) pair is equal by both definitions.  Then, on
    # the corpus and fuzz seeds 0..39 (with their conversions), each field
    # of each node of the reparsed copy is changed in turn, and both
    # definitions call the top-level definition or entry holding it unequal.
    seen = {}
    for name, p in programs:
        q = parse_program(print_program(p))
        assert A.program_equal(p, q) and _program_equal(p, q), name
        if name.startswith("fuzz") and int(name[4:].split(".")[0]) >= 40:
            continue
        for a, b in zip([*p.defs, p.entry], [*q.defs, q.entry]):
            for e in list(A.walk(b)):
                for what, obj, field, new in list(_changes(e)):
                    old = getattr(obj, field)
                    setattr(obj, field, new)
                    try:
                        got = A.ast_equal(a, b)
                        assert got == _ast_equal(a, b), (name, e.eid, what)
                        assert not got, (name, e.eid, what)
                    finally:
                        setattr(obj, field, old)
                    seen[what] = seen.get(what, 0) + 1
        assert A.program_equal(p, q), name
    assert set(seen) == {"var", "op", "operand", "fname", "param", "cond",
                         "pop value", "instruction kind"}
    assert sum(seen.values()) > 20000


def test_ast_equal_walks_a_deep_let_chain():
    src = "".join(f"let x{i} = prim add({i}, 1) in\n" for i in range(5000))
    p = parse_program(src + "pop(x4999)\narity 1")
    q = parse_program(src + "pop(x4998)\narity 1")
    assert A.program_equal(p, parse_program(print_program(p)))
    assert not A.program_equal(p, q)
    assert A.ends_properly(p.entry)
