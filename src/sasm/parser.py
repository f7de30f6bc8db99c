"""Parser for the concrete IL text format.

Grammar (whitespace-insensitive, ';' comments to end of line):

    e ::= "let" "fun" f "(" xs ")" "=" e "in" e
        | "let" x "=" "prim" op "(" vs ")" "in" e
        | "let" x "=" ("alloc"|"read"|"write") "(" vs ")" "in" e
        | "if" x "then" e "else" e
        | f "(" xs ")"
        | "memo" e | "update" e
        | "push" f "do" e
        | "pop" "(" xs ")"
        | "cut" "{" e "}" e                  -- sugar

A program file is a sequence of top-level "let fun" definitions followed by
one entry expression, plus pragma lines: "arity N" (required), "input x .."
(externally bound variables) and "labels a .." (builder result labels).

Duplicate binder names are uniquified with a numeric suffix and a warning;
binding checks beyond that are left to check_wf.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ilast import (
    App, Expr, FunDef, If, Inst, Memo, Pop, Pos, PrimOp, Program, Push,
    Update, Value, INSTRUCTIONS, PRIMOPS, number_exprs,
)
from .wf import ArityError, check_arity


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


KEYWORDS = {
    "let", "fun", "in", "if", "then", "else", "prim", *INSTRUCTIONS,
    "memo", "update", "push", "do", "pop", "cut", "arity", "input", "labels",
}

# Blanks, then a word, punctuation, an ASCII integer, a newline, a comment,
# or any other non-blank character (left to `_unusual`, as is an integer
# before a non-ASCII character, which str.isdecimal may call a digit).  `\w`
# is str.isalnum plus "_".
_TOKEN = re.compile(r"""[ \t\r]*(?:
    ([A-Za-z_][\w'$]*) | ([(){},=]) | (-?[0-9]+)(?![0-9]|[^\x00-\x7f])
  | (\n) | (;.*) | ([^ \t\r]))""", re.VERBOSE)
_WORD_REST = re.compile(r"[\w'$]*")


@dataclass(slots=True)
class Token:
    kind: str  # 'ident' | 'int' | 'kw' | punct char | 'eof'
    text: str
    line: int
    col: int


def _unusual(src: str, i: int, line: int, col: int) -> tuple[Token, int]:
    """The token at src[i] by str.isdecimal and str.isalpha, and its end;
    ParseError if none starts there.  Only decimal digits make an integer:
    int() rejects the other str.isdigit characters, such as '²'."""
    c, j = src[i], i + 1
    if c.isdecimal() or (c == "-" and src[j:j + 1].isdecimal()):
        while j < len(src) and src[j].isdecimal():
            j += 1
        return Token("int", src[i:j], line, col), j
    if c.isalpha():
        j = _WORD_REST.match(src, j).end()
        kind = "kw" if src[i:j] in KEYWORDS else "ident"
        return Token(kind, src[i:j], line, col), j
    raise ParseError(f"unexpected character {c!r}", line, col)


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, bol = 1, 0  # bol: where the current line begins
    pos = 0
    while pos is not None:
        for m in _TOKEN.finditer(src, pos):
            k = m.lastindex
            col = m.start(k) - bol + 1
            if k == 1:
                toks.append(Token("kw" if m[1] in KEYWORDS else "ident", m[1],
                                  line, col))
            elif k == 2:
                toks.append(Token(m[2], m[2], line, col))
            elif k == 3:
                toks.append(Token("int", m[3], line, col))
            elif k == 4:
                line, bol = line + 1, m.end()
            elif k == 6:
                tok, pos = _unusual(src, m.start(k), line, col)
                toks.append(tok)
                break
        else:
            pos = None
    # A comment at the end leaves the eof column at its ';'.
    end = src.find(";", bol)
    toks.append(Token("eof", "", line,
                      (len(src) if end < 0 else end) - bol + 1))
    return toks


class _Scope:
    """Lexical scope with global uniquification of binder names."""

    def __init__(self):
        self.taken: set[str] = set()
        self.warnings: list[str] = []

    def fresh(self, raw: str, tok: Token) -> str:
        if raw not in self.taken:
            self.taken.add(raw)
            return raw
        k = 2
        while f"{raw}_{k}" in self.taken:
            k += 1
        name = f"{raw}_{k}"
        self.taken.add(name)
        self.warnings.append(
            f"{tok.line}:{tok.col}: duplicate name {raw!r} renamed to {name!r}")
        return name


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.scope = _Scope()
        self.cut_count = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {what or kind}, got {t.text!r}", t.line, t.col)
        return t

    def expect_kw(self, word: str) -> None:
        t = self.next()
        if t.kind != "kw" or t.text != word:
            raise ParseError(f"expected {word!r}, got {t.text!r}", t.line, t.col)

    # -- name handling -------------------------------------------------

    def bind(self, tok: Token, env: dict[str, str]) -> tuple[str, dict[str, str]]:
        name = self.scope.fresh(tok.text, tok)
        return name, {**env, tok.text: name}

    def use(self, tok: Token, env: dict[str, str]) -> str:
        return env.get(tok.text, tok.text)

    def value(self, tok: Token, env: dict[str, str]) -> Value:
        if tok.kind == "int":
            return int(tok.text)
        if tok.kind == "ident":
            return self.use(tok, env)
        raise ParseError(f"expected value, got {tok.text!r}", tok.line, tok.col)

    def value_list(self, env: dict[str, str]) -> tuple[Value, ...]:
        self.expect("(")
        vals: list[Value] = []
        if self.peek().kind != ")":
            while True:
                vals.append(self.value(self.next(), env))
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect(")")
        return tuple(vals)

    # -- expressions ---------------------------------------------------

    def expr(self, env: dict[str, str]) -> Expr:
        """Parse one expression.  Let-chains are parsed iteratively: deep
        straight-line programs (input builders) exceed the recursion limit
        otherwise."""
        chain: list[Expr] = []
        while True:
            t = self.peek()
            if t.kind == "kw" and t.text == "let":
                node, env = self.let_binding(env)
                chain.append(node)
                continue
            tail = self.tail_expr(env)
            break
        for node in reversed(chain):
            node.cont = tail
            tail = node
        return tail

    def let_binding(self, env: dict[str, str]) -> tuple[Expr, dict[str, str]]:
        """Parse 'let ... in' and return the node with cont unset, plus the
        environment for the continuation."""
        let_tok = self.next()
        pos = Pos(let_tok.line, let_tok.col)
        t = self.peek()
        if t.kind == "kw" and t.text == "fun":
            self.next()
            fdef, env2 = self.fundef(env, pos)
            self.expect_kw("in")
            return fdef, env2
        var_tok = self.expect("ident", "variable")
        self.expect("=")
        t = self.next()
        if t.kind != "kw" or (t.text != "prim" and t.text not in INSTRUCTIONS):
            raise ParseError("expected 'prim', 'alloc', 'read' or 'write'",
                             t.line, t.col)
        if t.text == "prim":
            op_tok = self.next()
            if op_tok.kind not in ("ident", "kw") or op_tok.text not in PRIMOPS:
                raise ParseError(f"unknown primitive {op_tok.text!r}",
                                 op_tok.line, op_tok.col)
            args = self.value_list(env)
            var, env2 = self.bind(var_tok, env)
            self.expect_kw("in")
            return PrimOp(var=var, op=op_tok.text, args=args, cont=None,
                          pos=pos), env2
        args = self.value_list(env)
        cls = INSTRUCTIONS[t.text]
        takes = len(cls().operands)
        if len(args) != takes:
            raise ParseError(
                f"{t.text} takes {takes} argument(s), got {len(args)}",
                t.line, t.col)
        inst = cls(*args, pos=Pos(t.line, t.col))
        var, env2 = self.bind(var_tok, env)
        self.expect_kw("in")
        return Inst(var=var, inst=inst, cont=None, pos=pos), env2

    def tail_expr(self, env: dict[str, str]) -> Expr:
        t = self.peek()
        pos = Pos(t.line, t.col)
        if t.kind == "kw":
            if t.text == "if":
                self.next()
                cond = self.use(self.expect("ident", "condition variable"), env)
                self.expect_kw("then")
                then = self.expr(env)
                self.expect_kw("else")
                els = self.expr(env)
                return If(cond=cond, then=then, els=els, pos=pos)
            if t.text == "memo":
                self.next()
                return Memo(body=self.expr(env), pos=pos)
            if t.text == "update":
                self.next()
                return Update(body=self.expr(env), pos=pos)
            if t.text == "push":
                self.next()
                f = self.use(self.expect("ident", "function name"), env)
                self.expect_kw("do")
                return Push(fname=f, body=self.expr(env), pos=pos)
            if t.text == "pop":
                self.next()
                return Pop(vals=self.value_list(env), pos=pos)
            if t.text == "cut":
                # cut { e } e2  desugars to a push of a fresh nullary function.
                self.next()
                self.expect("{")
                body = self.expr(env)
                self.expect("}")
                self.cut_count += 1
                cname = self.scope.fresh(f"cut${self.cut_count}", t)
                cont = self.expr(env)
                return FunDef(fname=cname, params=(), body=cont,
                              cont=Push(fname=cname, body=body, pos=pos), pos=pos)
            raise ParseError(f"unexpected keyword {t.text!r}", t.line, t.col)
        if t.kind == "ident":
            name_tok = self.next()
            fname = self.use(name_tok, env)
            args = self.value_list(env)
            return App(fname=fname, args=args, pos=pos)
        raise ParseError(f"expected expression, got {t.text!r}", t.line, t.col)

    def fundef(self, env: dict[str, str], pos: Pos) -> tuple[FunDef, dict[str, str]]:
        """Parse 'f(xs) = body'; returns the def (cont unset) and the outer env
        extended with f."""
        f_tok = self.expect("ident", "function name")
        fname, env_f = self.bind(f_tok, env)
        self.expect("(")
        params: list[str] = []
        env_body = env_f
        if self.peek().kind != ")":
            while True:
                p_tok = self.expect("ident", "parameter")
                p, env_body = self.bind(p_tok, env_body)
                params.append(p)
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect(")")
        self.expect("=")
        body = self.expr(env_body)
        return FunDef(fname=fname, params=tuple(params), body=body, cont=None, pos=pos), env_f

    # -- program -------------------------------------------------------

    def _prescan_pragmas(self) -> tuple[int | None, list[str], list[str]]:
        """Collect arity/input/labels pragmas (position-independent)."""
        arity: int | None = None
        inputs: list[str] = []
        labels: list[str] = []
        k = 0
        while self.toks[k].kind != "eof":
            t = self.toks[k]
            if t.kind == "kw" and t.text == "arity":
                n_tok = self.toks[k + 1]
                if n_tok.kind != "int":
                    raise ParseError("expected arity count", n_tok.line, n_tok.col)
                if arity is not None:
                    raise ParseError("duplicate arity pragma", t.line, t.col)
                arity = int(n_tok.text)
                k += 2
                continue
            if t.kind == "kw" and t.text in ("input", "labels"):
                k += 1
                names = []
                while self.toks[k].kind == "ident":
                    names.append(self.toks[k].text)
                    k += 1
                if not names:
                    raise ParseError(f"empty {t.text} pragma", t.line, t.col)
                (inputs if t.text == "input" else labels).extend(names)
                continue
            k += 1
        return arity, inputs, labels

    def _skip_pragma(self) -> None:
        t = self.next()
        if t.text == "arity":
            self.next()
        else:
            while self.peek().kind == "ident":
                self.next()

    def program(self) -> tuple[Program, list[str]]:
        arity, inputs, labels = self._prescan_pragmas()
        defs: list[FunDef] = []
        entry: Expr | None = None
        env: dict[str, str] = {}
        for name in inputs:
            self.scope.taken.add(name)
            env[name] = name

        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "kw" and t.text in ("arity", "input", "labels"):
                self._skip_pragma()
                continue
            if entry is not None:
                raise ParseError("unexpected input after entry expression",
                                 t.line, t.col)
            if (t.kind == "kw" and t.text == "let"
                    and self.peek(1).kind == "kw" and self.peek(1).text == "fun"):
                self.next()
                self.next()
                fdef, env2 = self.fundef(env, Pos(t.line, t.col))
                tk = self.peek()
                if tk.kind == "kw" and tk.text == "in":
                    # Nested let-fun: this is the entry expression.
                    self.next()
                    fdef.cont = self.expr(env2)
                    entry = fdef
                else:
                    env = env2
                    defs.append(fdef)
                continue
            entry = self.expr(env)

        if entry is None:
            t = self.peek()
            raise ParseError("missing entry expression", t.line, t.col)
        if arity is None:
            t = self.peek()
            raise ParseError("missing 'arity N' pragma", t.line, t.col)
        prog = Program(defs=defs, entry=entry, arity=arity,
                       inputs=tuple(inputs), labels=tuple(labels))
        number_exprs(prog)
        return prog, self.scope.warnings


def parse_program(text: str) -> Program:
    """Parse IL source into a Program.

    Raises ParseError on syntax errors and ArityError on inconsistent pop
    arities.  Duplicate names are uniquified with a warning (see
    parse_program_with_warnings to observe them).
    """
    prog, _ = parse_program_with_warnings(text)
    return prog


def parse_program_with_warnings(text: str) -> tuple[Program, list[str]]:
    prog, warnings = _Parser(tokenize(text)).program()
    check_arity(prog)  # raises ArityError naming the conflicting pops
    return prog, warnings


__all__ = ["parse_program", "parse_program_with_warnings", "ParseError",
           "ArityError", "tokenize"]
