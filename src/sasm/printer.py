"""Canonical text form for IL programs; parse(print(p)) is structurally p."""

from __future__ import annotations

from . import ilast as A


def _vals(vs) -> str:
    return ", ".join(map(str, vs))


# Each instruction's call form, such as "read(%s, %s)", for its operands.
_CALLS = {kw: f"{kw}({', '.join(['%s'] * len(cls().operands))})"
          for kw, cls in A.INSTRUCTIONS.items()}


def print_expr(e: A.Expr, indent: int = 0) -> str:
    # Let-chains print iteratively: builder programs run thousands deep.
    out: list[str] = []
    while True:
        pad = "  " * indent
        if isinstance(e, A.FunDef):
            body = print_expr(e.body, indent + 1)
            out.append(f"{pad}let fun {e.fname}({', '.join(e.params)}) =\n"
                       f"{body}\n{pad}in")
            e = e.cont
            continue
        if isinstance(e, A.PrimOp):
            out.append(f"{pad}let {e.var} = prim {e.op}({_vals(e.args)}) in")
            e = e.cont
            continue
        if isinstance(e, A.Inst):
            inst = e.inst
            call = _CALLS[inst.keyword] % inst.operands
            out.append(f"{pad}let {e.var} = {call} in")
            e = e.cont
            continue
        if isinstance(e, A.If):
            then = print_expr(e.then, indent + 1)
            els = print_expr(e.els, indent + 1)
            out.append(f"{pad}if {e.cond} then\n{then}\n{pad}else\n{els}")
        elif isinstance(e, A.App):
            out.append(f"{pad}{e.fname}({_vals(e.args)})")
        elif isinstance(e, A.Memo):
            out.append(f"{pad}memo\n{print_expr(e.body, indent + 1)}")
        elif isinstance(e, A.Update):
            out.append(f"{pad}update\n{print_expr(e.body, indent + 1)}")
        elif isinstance(e, A.Push):
            out.append(f"{pad}push {e.fname} do\n{print_expr(e.body, indent + 1)}")
        elif isinstance(e, A.Pop):
            out.append(f"{pad}pop({_vals(e.vals)})")
        else:
            raise TypeError(f"not an expression: {e!r}")
        return "\n".join(out)


def print_program(p: A.Program) -> str:
    parts: list[str] = []
    if p.inputs:
        parts.append("input " + " ".join(p.inputs))
    if p.labels:
        parts.append("labels " + " ".join(p.labels))
    for d in p.defs:
        body = print_expr(d.body, 1)
        parts.append(f"let fun {d.fname}({', '.join(d.params)}) =\n{body}")
    parts.append(print_expr(p.entry, 0))
    parts.append(f"arity {p.arity}")
    return "\n\n".join(parts) + "\n"


__all__ = ["print_program", "print_expr"]
