"""Destination-passing-style conversion: shape, preservation, selectivity."""

import hashlib

import pytest

from sasm.cli import main
from sasm.corpus import (apply_edits, deref_result, exptrees_fixture,
                         gen_array_max)
from sasm.dps import (AlreadyConverted, DpsContext, UnknownArity,
                      dps_convert, dps_convert_env, dps_convert_program,
                      dps_selective)
from sasm.fuzz import gen_edits, gen_program
from sasm.ilast import (App, FunDef, Inst, Memo, Pop, Push, Read, Update,
                        Write, ast_equal, program_equal, walk_program)
from sasm.parser import parse_program
from sasm.printer import print_program
from sasm.refmachine import ref_run
from sasm.tracing import propagation_machine, run_from_scratch
from sasm.wf import check_wf

from machine_checks import checked_run


def ctx_for(prog):
    return DpsContext.for_program(prog)


def test_pop_case_writes_then_pops_destination():
    p = parse_program("input x1\ninput x2\npop(x1, x2)\narity 2")
    ctx = ctx_for(p)
    ctx.used.add("y")
    out = dps_convert(p.entry, "y", ctx)
    assert isinstance(out, Inst) and isinstance(out.inst, Write)
    assert (out.inst.loc, out.inst.off, out.inst.val) == ("y", 1, "x1")
    second = out.cont
    assert (second.inst.loc, second.inst.off, second.inst.val) == ("y", 2, "x2")
    assert isinstance(second.cont, Pop) and second.cont.vals == ("y",)


def test_memo_case_is_homomorphic():
    p = parse_program("input x\nmemo pop(x)\narity 1")
    ctx = ctx_for(p)
    ctx.used.add("y")
    out = dps_convert(p.entry, "y", ctx)
    assert isinstance(out, Memo)
    assert isinstance(out.body, Inst)  # the converted pop underneath


def test_max_example_shape():
    # The two-pointer maximum: push f do update(read p; read q; if..pop).
    src = """
input p
input q
let fun f(m) =
  pop(m)
push f do
  update
    let x = read(p, 1) in
    let y = read(q, 1) in
    let c = prim lt(y, x) in
    if c then pop(x) else pop(y)
arity 1
"""
    p = parse_program(src)
    dp = dps_convert_program(p)
    assert check_wf(dp) == []
    # Entry: the top-level destination allocation.
    entry = dp.entry
    assert isinstance(entry, Inst) and entry.inst.size == 1
    wrapper = entry.cont
    assert isinstance(wrapper, FunDef) and wrapper.fname == "f$dps"
    # Wrapper: update; read the destination entry; forward to f.
    assert isinstance(wrapper.body, Update)
    rd = wrapper.body.body
    assert isinstance(rd, Inst) and isinstance(rd.inst, Read)
    call = rd.cont
    assert isinstance(call, App) and call.fname == "f"
    # The push body allocates a fresh destination under a memo point.
    push = wrapper.cont
    assert isinstance(push, Push) and push.fname == "f$dps"
    assert isinstance(push.body, Memo)
    alloc = push.body.body
    assert isinstance(alloc, Inst) and alloc.inst.size == 1
    # Both branches write the destination before popping it.
    def final_pops(e):
        if isinstance(e, Pop):
            yield e
        for attr in ("body", "cont", "then", "els"):
            child = getattr(e, attr, None)
            if child is not None and not isinstance(child, str):
                yield from final_pops(child)
    for pop in final_pops(push.body):
        assert len(pop.vals) == 1


def test_env_conversion_empty_and_unary():
    assert dps_convert_env([], ctx_for(parse_program("pop()\narity 0"))) == []
    p = parse_program("let fun f(a) =\n  pop(a)\nf(1)\narity 1")
    ctx = ctx_for(p)
    out = dps_convert_env(p.defs, ctx)
    assert len(out[0].params) == 2  # gains the destination parameter


def test_exptrees_conversion_is_well_formed():
    bench = exptrees_fixture()
    dp = dps_convert_program(bench.program)
    assert check_wf(dp) == []
    assert dp.arity == 1 and dp.dps_marker


def test_double_conversion_rejected():
    bench = exptrees_fixture()
    dp = dps_convert_program(bench.program)
    with pytest.raises(AlreadyConverted):
        dps_convert_program(dp)
    with pytest.raises(AlreadyConverted):
        dps_selective(dp)


def test_unknown_arity_rejected():
    p = parse_program("let fun f(v) =\n  pop(v)\npush f do pop(1)\narity 1")
    ctx = ctx_for(p)
    ctx.arity.clear()
    with pytest.raises(UnknownArity):
        dps_convert(p.entry, "y", ctx)


def test_selective_no_updates_returns_program_unchanged():
    src = """
let fun k(v) =
  pop(v)
push k do
  let w = alloc(1) in
  let q = write(w, 1, 3) in
  pop(5)
arity 1
"""
    p = parse_program(src)
    out = dps_selective(p)
    assert program_equal(out, p)


def test_selective_on_exptrees_equals_full_conversion():
    bench = exptrees_fixture()
    full = dps_convert_program(bench.program)
    sel = dps_selective(bench.program)
    assert program_equal(full, sel)


def _sel_pushes(prog):
    return [e for e in walk_program(prog)
            if isinstance(e, Push) and e.fname.endswith("$sel")]


def _fundef(prog, name):
    return next(d for d in walk_program(prog)
                if isinstance(d, FunDef) and d.fname == name)


def _run_with_input(prog, value):
    """Run `prog` with its one input bound to a cell holding `value`."""
    from sasm.store import Store
    store = Store()
    loc = store.alloc(1)
    store.write(loc, 1, value)
    return ref_run(prog, store, inputs={prog.inputs[0]: loc})


def test_selective_mixed_program_skips_pure_helper():
    src = """
input c
let fun use(h) =
  update
    let x = read(c, 1) in
    let y = read(h, 1) in
    let s = prim add(x, y) in
    pop(s)
let fun helper() =
  let w = alloc(1) in
  let q = write(w, 1, 10) in
  pop(w)
push use do
  helper()
arity 1
"""
    p = parse_program(src)
    sel = dps_selective(p)
    assert check_wf(sel) == []
    # The helper push body stays in its original form (its pop still returns
    # the allocation), only a thin forwarding wrapper appears; the reader
    # branch (use) converts.
    assert _sel_pushes(sel)
    assert ast_equal(_fundef(sel, "helper").body, _fundef(p, "helper").body)
    assert len(_fundef(sel, "use").params) == 2  # converted: gains a destination
    # Semantics preserved (tested, not assumed).
    r1, r2 = _run_with_input(p, 5), _run_with_input(sel, 5)
    assert deref_result(r2.values, r2.store, 1) == r1.values


def test_selective_cancels_a_skip_whose_wrapper_passes_a_destination():
    # The skipped body only calls f, but the push's own $sel wrapper calls
    # f with a destination, so f cannot stay unconverted.
    src = """
input inp
let fun u() = update let r = read(inp, 1) in pop(r)
let fun f(x) = pop(x)
push f do f(3)
arity 1
"""
    p = parse_program(src)
    sel = dps_selective(p)
    assert check_wf(sel) == []
    assert _sel_pushes(sel) == []
    r1, r2 = _run_with_input(p, 5), _run_with_input(sel, 5)
    assert r1.values == (3,)
    assert deref_result(r2.values, r2.store, 1) == r1.values


def test_selective_keeps_a_skip_whose_helpers_call_helpers():
    # helper calls fill; both stay unconverted, so that call passes no
    # destination and the skip holds.
    src = """
input c
let fun use(h) = update let x = read(c, 1) in let y = read(h, 1) in
  let s = prim add(x, y) in pop(s)
let fun fill(w) = let q = write(w, 1, 10) in pop(w)
let fun helper() = let w = alloc(1) in fill(w)
push use do helper()
arity 1
"""
    p = parse_program(src)
    sel = dps_selective(p)
    assert check_wf(sel) == []
    assert len(_sel_pushes(sel)) == 1
    for name in ("helper", "fill"):
        assert ast_equal(_fundef(sel, name).body, _fundef(p, name).body)
    assert len(_fundef(sel, "use").params) == 2  # gains a destination
    r1, r2 = _run_with_input(p, 5), _run_with_input(sel, 5)
    assert r1.values == (15,)
    assert deref_result(r2.values, r2.store, 1) == r1.values


def assert_extensional(r1, r2, arity, initial_store):
    from sasm.dps import extensionally_preserved
    assert extensionally_preserved(r1, r2, arity, initial_store)


def test_extensional_preservation_corpus(corpus):
    for bench in corpus:
        prog = bench.program
        store, labels, inputs = bench.build()
        r1 = ref_run(prog, store.copy(), inputs=inputs)
        dp = dps_convert_program(prog)
        r2 = ref_run(dp, store.copy(), inputs=inputs)
        assert_extensional(r1, r2, prog.arity, store)


def test_extensional_preservation_fuzz():
    for seed in range(150):
        case = gen_program(seed)
        store, labels, inputs = case.build()
        r1 = ref_run(case.program, store.copy(), inputs=inputs, fuel=200000)
        for convert in (dps_convert_program, dps_selective):
            dp = convert(case.program)
            assert check_wf(dp) == [], (seed, convert.__name__)
            r2 = ref_run(dp, store.copy(), inputs=inputs, fuel=400000)
            assert_extensional(r1, r2, case.program.arity, store)


def test_csa_boundary_proxy_no_violations_for_converted():
    """Operational CSA check: under propagation with random dirty sets,
    every propagation-boundary rewind of a converted program re-pops the
    recorded value vector (instrumented at P.8)."""
    for seed in range(40):
        case = gen_program(seed)
        prog = dps_convert_program(case.program)
        store, labels, inputs = case.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs, fuel=400000)
        s2 = store.copy()
        apply_edits(s2, labels, gen_edits(seed + 7, s2, labels,
                                          case.edit_slots, 2))
        m = propagation_machine(prog, t1.trace, s2)
        assert checked_run(m, 400000).csa_violations == [], seed


def test_csa_boundary_proxy_detects_non_csa():
    src = """
input c
input out
let fun k(v) =
  let w = write(out, 1, v) in
  pop()
push k do
  update
    let x = read(c, 1) in
    pop(x)
arity 0
"""
    from sasm.store import Store
    p = parse_program(src)
    store = Store()
    lc, lout = store.alloc(1), store.alloc(1)
    store.write(lc, 1, 5)
    store.write(lout, 1, 0)
    inputs = {"c": lc, "out": lout}
    t1 = run_from_scratch(p, store.copy(), inputs=inputs)
    s2 = store.copy()
    s2.write(lc, 1, 9)
    m = propagation_machine(p, t1.trace, s2)
    assert checked_run(m).csa_violations  # the re-popped vector changed


def test_a_long_builder_converts_and_checks_through_the_cli(tmp_path):
    """The n=1024 array builder, printed as a program, is one let chain of
    1,029 links, past Python's recursion limit."""
    path = tmp_path / "builder.il"
    path.write_text(print_program(gen_array_max(1024, "b").builder))
    for argv in (["dps"], ["dps", "--selective"], ["cost", "--dps"],
                 ["check"]):
        assert main(argv + [str(path)]) == 0, argv


# SHA-256 over the printed conversions of each family, in order, as the
# recursive conversion printed them.
CONVERTED_DIGESTS = {
    ("corpus", dps_convert_program):
        "6e9535ffb95a346a6bd93c2db2067e97b31ed433eeb0c1350b5e7e371407c9a8",
    ("corpus", dps_selective):
        "6e9535ffb95a346a6bd93c2db2067e97b31ed433eeb0c1350b5e7e371407c9a8",
    ("builders", dps_convert_program):
        "a36f76b2f13f37630576ff0a0db7461055e6ff808965757844fab8433f9ec34c",
    ("builders", dps_selective):
        "8ea69d75310c7d9b9dcdfd60e29ccab39f2d848e323a05826489f3f03f9dc445",
    ("fuzz", dps_convert_program):
        "f8ab07da9799cf255b893c87b2c323f54a09c5786918fb148be4908ebe14e00b",
    ("fuzz", dps_selective):
        "159eb466c67d5e628fce1a5324622b74ab630d2cc24b68a132fc5f03aacb28da",
}


def test_converted_text_is_unchanged(corpus):
    """Every corpus program and builder, and fuzz seeds 0..199, convert to
    the same text as before the conversion walked let chains in a loop."""
    families = {"corpus": [b.program for b in corpus],
                "builders": [b.builder for b in corpus],
                "fuzz": [gen_program(seed).program for seed in range(200)]}
    for (family, convert), digest in CONVERTED_DIGESTS.items():
        h = hashlib.sha256()
        for prog in families[family]:
            h.update(print_program(convert(prog)).encode())
        assert h.hexdigest() == digest, (family, convert.__name__)
