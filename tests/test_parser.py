import glob
import os

import pytest

from sasm.cli import main
from sasm.corpus import corpus_benchmarks, exptrees_fixture, gen_array_max, gen_list
from sasm.dps import dps_convert_program
from sasm.fuzz import gen_program
from sasm.ilast import App, Inst, Pop, Program, ends_properly, program_equal
from sasm.parser import (KEYWORDS, ArityError, ParseError, Token, parse_program,
                         parse_program_with_warnings, tokenize)
from sasm.printer import print_program
from sasm.wf import check_wf

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")


def roundtrip(p: Program) -> None:
    assert program_equal(p, parse_program(print_program(p)))


def test_unbound_pop_parses():
    # Binding checks are deferred to check_wf; the parser only does syntax.
    p = parse_program("pop(x)\narity 1")
    assert isinstance(p.entry, Pop)
    assert check_wf(p)  # unbound variable reported there


def test_exptrees_parses_to_nested_fundefs():
    p = exptrees_fixture().program
    assert check_wf(p) == []
    eval_def = p.defs[0]
    body = eval_def.body.body  # memo body
    assert body.fname == "eval_right"
    assert body.body.fname == "eval_op"
    roundtrip(p)


def test_arity_inconsistency_names_pops():
    src = "let x = alloc(3) in pop(x, x)\narity 1"
    with pytest.raises(ArityError) as exc:
        parse_program(src)
    assert "pop of 2" in str(exc.value)


def test_branch_arity_mismatch_rejected():
    src = """
let fun f(c) =
  if c then pop(c) else pop(c, c)
f(1)
arity 1
"""
    with pytest.raises(ArityError):
        parse_program(src)


def test_program_arity_mismatch_names_the_pop_that_ends_the_entry():
    """f's region ends at its own pop(1) (3:22), not at the first pop a walk
    into its calls reaches, g's pop(1, 2) (4:15)."""
    src = """let fun f() =
  let c = prim eq(0, 0) in
  if c then g() else pop(1)
let fun g() = pop(1)
f()
arity 1
"""
    p = parse_program(src)
    # Resize g's pop and the declared arity past the parser's own check.
    p.fun_index()["g"].body.vals = (1, 2)
    p.arity = 2
    assert [str(d) for d in check_wf(p)] == [
        "4:15: branch arity mismatch: pop of 2 values at 4:15 conflicts "
        "with pop of 1 values at 3:22",
        "3:22: program arity mismatch: pop of 1 values at 3:22 "
        "but 2 expected"]


def test_push_body_arity_mismatch_names_the_body_pop():
    src = "let fun k(x) =\n  pop(x)\npush k do\n  pop(1, 2)\narity 1"
    with pytest.raises(ArityError) as exc:
        parse_program(src)
    assert str(exc.value) == (
        "4:3: push body arity mismatch for 'k' (takes 1): pop of 2 values "
        "at 4:3 but 1 expected")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("let x = prim add(1, in pop(x)\narity 1")
    assert exc.value.line == 1 and exc.value.col > 0


MISSING_KEYWORD_CASES = [
    ("in", "let y = prim add(1, 2) in\nlet fun f(x) = pop(x)\n  pop(y)\n"
     "arity 1", 3, 3),
    ("in", "let y = prim add(1, 2)\n  pop(y)\narity 1", 2, 3),
    ("in", "let c = alloc(1) then pop(c)\narity 1", 1, 18),
    ("then", "let c = prim eq(1, 1) in\nif c pop(1) else pop(2)\narity 1",
     2, 6),
    ("else", "let c = prim eq(1, 1) in\nif c then pop(1)\n  pop(2)\narity 1",
     3, 3),
    ("do", "let fun f(x) = pop(x) in\npush f f(1)\narity 1", 2, 8),
]


@pytest.mark.parametrize("word,src,line,col", MISSING_KEYWORD_CASES)
def test_missing_keyword_is_an_error_at_the_offending_token(word, src, line,
                                                            col):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert f"expected {word!r}" in str(exc.value)


@pytest.mark.parametrize("src,line,col", [
    ("let x = prim add(², 1) in pop(x)\narity 1", 1, 18),
    ("pop(1)\narity ²", 2, 7),
    ("let x = prim add(1², 2) in pop(x)\narity 1", 1, 19),
])
def test_a_digit_that_is_not_decimal_is_an_unexpected_character(
        tmp_path, capsys, src, line, col):
    # str.isdigit takes '²', but int() does not.
    path = tmp_path / "p.il"
    path.write_text(src)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err \
        == f"error: {path}: {line}:{col}: unexpected character '²'\n"


def test_a_non_ascii_decimal_digit_is_an_integer():
    assert parse_program("pop(١٢, ٣)\narity 2").entry.vals == (12, 3)


def test_duplicate_names_uniquified_with_warning():
    src = """
let fun f(x) =
  pop(x)
let fun f(y) =
  pop(y)
f(1)
arity 1
"""
    prog, warnings = parse_program_with_warnings(src)
    assert warnings and "renamed" in warnings[0]
    names = [d.fname for d in prog.defs]
    assert len(set(names)) == 2
    assert check_wf(prog) == []


def test_cut_sugar_desugars_to_push_of_nullary_fun():
    src = """
cut {
  let w = alloc(1) in
  let z = write(w, 1, 5) in
  pop()
}
pop(3)
arity 1
"""
    p = parse_program(src)
    assert check_wf(p) == []
    fd = p.entry
    assert fd.params == ()
    assert fd.cont.fname == fd.fname  # the push targets the cut function
    roundtrip(p)


def test_literals_allowed_in_value_positions():
    p = parse_program(
        "let fun f(a, b) =\n pop(a)\nlet x = read(3, -2) in f(x, 7)\narity 1")
    inst = p.entry
    assert isinstance(inst, Inst) and inst.inst.loc == 3 and inst.inst.off == -2
    assert isinstance(inst.cont, App) and inst.cont.args == ("x", 7)


def test_every_expression_ends_properly_across_corpus(corpus):
    for bench in corpus:
        for prog in (bench.program, bench.builder):
            assert ends_properly(prog.entry)
            for d in prog.defs:
                assert ends_properly(d.body)


def test_roundtrip_over_corpus_and_dps(corpus):
    for bench in corpus:
        roundtrip(bench.program)
        roundtrip(bench.builder)
        if not bench.program.dps_marker:
            roundtrip(dps_convert_program(bench.program))


def test_on_disk_corpus_matches_generators():
    pairs = [
        ("exptrees.il", exptrees_fixture().program),
        ("exptrees.build.il", exptrees_fixture().builder),
        ("array_max_b.il", gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], "b").program),
        ("list_sum.il", gen_list("sum", 8, 1).program),
        ("list_sum.build.il", gen_list("sum", 8, 1).builder),
    ]
    for fname, prog in pairs:
        with open(os.path.join(CORPUS_DIR, fname)) as fh:
            assert program_equal(parse_program(fh.read()), prog), fname


def test_all_corpus_files_parse_and_are_wf():
    for path in glob.glob(os.path.join(CORPUS_DIR, "*.il")):
        with open(path) as fh:
            prog = parse_program(fh.read())
        assert check_wf(prog) == [], path


def test_check_wf_duplicate_names_programmatic():
    # The parser uniquifies; construct the duplicate program directly.
    from sasm.ilast import App, FunDef, Pop, Program, number_exprs
    f1 = FunDef(fname="f", params=("x",), body=Pop(vals=("x",)), cont=None)
    f2 = FunDef(fname="f", params=("y",), body=Pop(vals=("y",)), cont=None)
    prog = number_exprs(Program(defs=[f1, f2],
                                entry=App(fname="f", args=(1,)), arity=1))
    diags = check_wf(prog)
    assert sum("duplicate name 'f'" in str(d) for d in diags) == 1


def test_check_wf_unbound_function():
    p = parse_program("g(3)\narity 0")
    diags = check_wf(p)
    assert any("unbound function 'g'" in str(d) for d in diags)


def test_check_wf_unbound_instruction_argument():
    p = parse_program("let x = read(somewhere, 1) in pop(x)\narity 1")
    diags = check_wf(p)
    assert any("unbound variable 'somewhere'" in str(d) for d in diags)


def test_check_wf_primop_arity():
    p = parse_program("let x = prim not(1, 2) in pop(x)\narity 1")
    diags = check_wf(p)
    assert any("takes 1 args" in str(d) for d in diags)


# -- the tokenizer against its per-character reference -------------------------


def _tokenize_per_character(src: str) -> list[Token]:
    """The tokenizer as it was written before the compiled pattern: one
    character at a time."""
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isdecimal() or (c == "-" and i + 1 < n
                             and src[i + 1].isdecimal()):
            j = i + 1
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(Token("int", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'$"):
                j += 1
            word = src[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if c in "(){},=":
            toks.append(Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def _outcome(tok, src):
    try:
        return tok(src)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


ODD_SOURCES = [
    "let x = prim add(1, in pop(x)\narity 1",
    "pop(x)\narity 1",
    "let x = alloc(3) in pop(x, x)\narity 1",
    "let é = prim add(1, 2) in pop(é)\narity 1",   # a non-ASCII letter
    "let xé1 = prim add(1, 2) in pop(xé1)\narity 1",
    "let x = prim add(٣, 2) in pop(x)\narity 1",   # a non-ASCII digit
    "let x = prim add(12٣, -4٣) in pop(x)\narity 1",
    "let x = prim add(², 1²) in pop(x)\narity 1",  # isdigit, not decimal
    "let x = prim add(½, 1) in pop(x)\narity 1",   # numeric, not a digit
    "let x = prim add(-, 2) in pop(x)\narity 1",   # "-" before no digit
    "let x = prim add(- 2, 2) in pop(x)\narity 1",
    "let x = prim add(-", "-", "12é", "x-1", "a'b$c_d", "_x",
    "pop(1)\narity 1 ; a comment at EOF",
    "pop(1)\narity 1\n; a comment at EOF",
    "; only a comment", "", "\n\n", "\t \r x", "pop(1)\narity 1 \t",
    "x  ",
    "pop(1) # no hash comments\narity 1",
    "pop(1)\n\tarity 1 @",
    "let x\u00a0= prim add(1, 2) in pop(x)",
]


def test_tokenize_matches_the_per_character_reference(corpus):
    """The compiled pattern gives the same tokens, and the same ParseError
    with its line:col, as the per-character tokenizer."""
    sources = []
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.il"))):
        with open(path) as fh:
            sources.append(fh.read())
    for bench in corpus:
        sources += [print_program(bench.program), print_program(bench.builder)]
    sources += [print_program(gen_program(seed).program)
                for seed in range(200)]
    sources += [src for _, src, _, _ in MISSING_KEYWORD_CASES]
    sources += ODD_SOURCES
    for src in sources:
        assert (_outcome(tokenize, src)
                == _outcome(_tokenize_per_character, src)), src
    errors = [_outcome(tokenize, src) for src in ODD_SOURCES]
    assert sum(isinstance(e, tuple) for e in errors) >= 5
