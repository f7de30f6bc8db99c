"""Command-line interface.

Batch subcommands over IL files: run, trace, propagate, dps, analyze, cost,
bench, check, fuzz.  A program file FILE.il may have a sibling input builder
FILE.build.il (straight-line allocations/writes popping labeled locations);
it is auto-detected, run on the reference machine, and its labels are bound
to the program's declared inputs.  Exit codes: 0 success, 1 semantic
failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from . import ilast as A
from .analyses import live_vars, region_no_update
from .corpus import (Edit, apply_edits, deref_result, exptrees_fixture,
                     gen_array_max, gen_list, parse_edit_line)
from .cost import cost_vector, check_dps_overhead, max_pop_arity, BoundViolated
from .dps import dps_convert_program, dps_selective, extensionally_preserved
from .errors import DEFAULT_FUEL, FuelExhausted, Stuck
from .fuzz import gen_edits, gen_program
from .parser import parse_program_with_warnings
from .printer import print_program
from .refmachine import ref_run
from .runtime import FastResult, Runtime
from .store import Loc, Store, fmt_value
from .trace import dump
from .tracing import (canonical_result, canonicalize,
                      check_garbage_unreachable, non_garbage, propagate,
                      run_from_scratch)
from .wf import check_wf


class CliError(Exception):
    pass


def fmt_vals(vals) -> str:
    return "⟨" + ", ".join(fmt_value(v) for v in vals) + "⟩"


@dataclass
class LoadedProgram:
    program: A.Program
    store: Store
    labels: dict
    inputs: dict


def load_program(path: str, build: str | None = None,
                 fuel: int = DEFAULT_FUEL) -> LoadedProgram:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    prog, warnings = parse_program_with_warnings(text)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    diags = check_wf(prog)
    if diags:
        raise CliError("ill-formed program:\n  " +
                       "\n  ".join(str(d) for d in diags))
    store = Store()
    labels: dict = {}
    inputs: dict = {}
    builder_path = build
    if builder_path is None and path not in ("-", "/dev/stdin"):
        cand = path[:-3] + ".build.il" if path.endswith(".il") else path + ".build.il"
        if os.path.exists(cand):
            builder_path = cand
    if builder_path:
        bprog, _ = parse_program_with_warnings(Path(builder_path).read_text())
        bdiags = check_wf(bprog)
        if bdiags:
            raise CliError(f"ill-formed builder {builder_path}:\n  " +
                           "\n  ".join(str(d) for d in bdiags))
        r = ref_run(bprog, store, fuel=fuel, keep_log=False)
        labels = dict(zip(bprog.labels, r.values))
        missing = [name for name in prog.inputs if name not in labels]
        if missing:
            raise CliError(f"builder provides no labels for inputs: {missing}")
        inputs = {name: labels[name] for name in prog.inputs}
    elif prog.inputs:
        raise CliError(f"program declares inputs {list(prog.inputs)} but no "
                       f"builder file was found (use --build)")
    return LoadedProgram(prog, store, labels, inputs)


def parse_edits_args(args, labels) -> list[Edit]:
    edits = [parse_edit_line(line) for line in args.edit or []]
    if getattr(args, "edits", None):
        with open(args.edits) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith(";"):
                    edits.append(parse_edit_line(line))
    for e in edits:
        if e.label not in labels:
            raise CliError(f"unknown edit label {e.label!r}")
    return edits


def fuel_of(args) -> int:
    if args.fuel is not None:
        return args.fuel
    env = os.environ.get("SASM_FUEL")
    return int(env) if env else DEFAULT_FUEL


# -- subcommands -----------------------------------------------------------------


def cmd_run(args) -> int:
    lp = load_program(args.file, args.build, fuel_of(args))
    r = ref_run(lp.program, lp.store, fuel=fuel_of(args), inputs=lp.inputs,
                keep_log=False)
    if args.deref:
        n = args.deref_arity
        if n is None and len(r.values) == 1 and isinstance(r.values[0], Loc):
            n = r.store.sizes.get(r.values[0].id, 0)
        print(fmt_vals(deref_result(r.values, r.store, n or 0)))
    else:
        print(fmt_vals(r.values))
    if args.dump_store:
        for line in r.store.dump_lines():
            print(line)
    return 0


def cmd_trace(args) -> int:
    lp = load_program(args.file, args.build, fuel_of(args))
    t = run_from_scratch(lp.program, lp.store, inputs=lp.inputs,
                         fuel=fuel_of(args))
    sys.stdout.write(dump(t.trace))
    return 0


def _edited(store: Store, labels: dict, edits: list[Edit]) -> Store:
    """A copy of `store` with `edits` applied."""
    edited = store.copy()
    apply_edits(edited, labels, edits)
    return edited


def _fast(prog, store, labels, inputs, edits, fuel) -> FastResult:
    """The fast engine: build a Runtime on a copy of `store`, then propagate
    the edits through it."""
    rt = Runtime(prog, store.copy(), inputs=inputs, fuel=fuel)
    return rt.propagate([e.resolve(labels) for e in edits], fuel=fuel)


def _faithful(prog, store, edited, inputs, fuel):
    """The faithful engine: run from scratch on a copy of `store`, then
    propagate that trace over a copy of the edited store."""
    t1 = run_from_scratch(prog, store.copy(), inputs=inputs, fuel=fuel)
    return propagate(prog, t1.trace, edited.copy(), fuel)


def _rerun(prog, edited, inputs, fuel):
    """A fresh run on the edited store's live locations."""
    return run_from_scratch(prog, non_garbage(edited), inputs=inputs,
                            fuel=fuel)


def _agree(a, b, edited: Store) -> bool:
    """Equal observables (values, trace, live store) up to allocation
    renaming; `edited`'s locations keep their names."""
    return canonical_result(a, edited) == canonical_result(b, edited)


def cmd_propagate(args) -> int:
    fuel = fuel_of(args)
    lp = load_program(args.file, args.build, fuel)
    edits = parse_edits_args(args, lp.labels)
    edited = _edited(lp.store, lp.labels, edits)
    engines = ["fast", "faithful"] if args.verify else [args.engine]
    run = {"fast": lambda: _fast(lp.program, lp.store, lp.labels, lp.inputs,
                                 edits, fuel),
           "faithful": lambda: _faithful(lp.program, lp.store, edited,
                                         lp.inputs, fuel)}
    results = {engine: run[engine]() for engine in engines}
    result = results[engines[0]]
    realized = (result.realized if isinstance(result, FastResult)
                else cost_vector(result.log).realized)
    print(fmt_vals(result.values), f"realized={realized}")
    if args.verify:
        if not _agree(results["fast"], results["faithful"], edited):
            print("engine mismatch: fast and faithful observables differ",
                  file=sys.stderr)
            return 1
        print("engines agree")
    if args.compare_rerun:
        fresh = _rerun(lp.program, edited, lp.inputs, fuel)
        if not _agree(result, fresh, edited):
            print("propagation disagrees with a fresh run", file=sys.stderr)
            return 1
        print("propagation matches fresh run")
    return 0


def cmd_dps(args) -> int:
    lp = load_program(args.file, args.build, fuel_of(args))
    conv = dps_selective(lp.program) if args.selective else (
        dps_convert_program(lp.program))
    sys.stdout.write(print_program(conv))
    return 0


def cmd_analyze(args) -> int:
    lp = load_program(args.file, args.build, fuel_of(args))
    live = live_vars(lp.program)
    info = region_no_update(lp.program)
    for e in A.walk_program(lp.program):
        kind = type(e).__name__
        if isinstance(e, (A.Memo, A.Update)):
            names = sorted(live.vars_at(e.eid))
            print(f"#{e.eid} {kind}: live={{{', '.join(names)}}}")
        elif isinstance(e, A.Push):
            flag = "no-update" if info.region_no_update(e.eid) else "may-update"
            print(f"#{e.eid} Push {e.fname}: {flag}")
    return 0


def cmd_cost(args) -> int:
    fuel = fuel_of(args)
    lp = load_program(args.file, args.build, fuel)

    def ref_log(prog):
        return ref_run(prog, lp.store.copy(), fuel=fuel, inputs=lp.inputs).log

    prog = lp.program
    if args.dps:
        orig_log = ref_log(prog)
        prog = dps_convert_program(prog)
    if args.machine == "ref":
        log = ref_log(prog)
    else:
        log = run_from_scratch(prog, lp.store.copy(), inputs=lp.inputs,
                               fuel=fuel).log
    print(cost_vector(log).table())
    if args.dps:
        try:
            rep = check_dps_overhead(
                orig_log, log if args.machine == "ref" else ref_log(prog),
                max_pop_arity(lp.program))
            for line in rep.lines():
                print(line)
        except BoundViolated as exc:
            print(f"DPS overhead bound violated: {exc}", file=sys.stderr)
            return 1
    return 0


def _bench_by_name(name: str, n: int, variant: str, seed: int):
    if name == "exptrees":
        return exptrees_fixture()
    if name == "array_max":
        return gen_array_max(n, variant)
    if name.startswith("list_"):
        return gen_list(name[5:], n, seed)
    raise CliError(f"unknown benchmark {name!r} (exptrees, array_max, "
                   f"list_sum, list_minimum, list_map, list_filter, "
                   f"list_reverse)")


def cmd_bench(args) -> int:
    fuel = fuel_of(args)
    bench = _bench_by_name(args.name, args.n, args.variant, args.seed)
    store, labels, inputs = bench.build()
    rng = random.Random(args.seed)
    scratch = run_from_scratch(bench.program, store.copy(), inputs=inputs,
                               fuel=fuel)
    realized_total = 0
    matches_total = 0
    for _ in range(args.edits):
        edits = gen_edits(rng.randrange(1 << 30), store, labels,
                          bench.edit_slots, 1)
        if args.engine == "fast":
            fast = _fast(bench.program, store, labels, inputs, edits, fuel)
            realized_total += fast.realized
            matches_total += fast.matches
        else:
            # Every edit propagates over the one shared scratch trace.
            t2 = propagate(bench.program, scratch.trace,
                           _edited(store, labels, edits), fuel)
            realized_total += cost_vector(t2.log).realized
            matches_total += t2.log.count("E.P")
    avg = realized_total / max(1, args.edits)
    print(f"bench={args.name} n={args.n} engine={args.engine} "
          f"from_scratch_steps={scratch.steps} edits={args.edits} "
          f"avg_realized={avg:.1f} memo_matches={matches_total}")
    return 0


def battery(prog, store, labels, inputs, edits, fuel, native=False):
    """The consistency battery on one program and edit batch: yields
    (name, ok, detail) for each check in turn.  A stuck faithful
    propagation fails propagate-vs-rerun and ends the battery."""
    r = ref_run(prog, store.copy(), fuel=fuel, inputs=inputs)
    t = run_from_scratch(prog, store.copy(), inputs=inputs, fuel=fuel)
    yield ("ref-vs-trace", canonicalize(r.values, None, r.store, store)
           == canonicalize(t.values, None, t.store, store), "")
    cv_r, cv_t = cost_vector(r.log), cost_vector(t.log)
    yield ("cost-equivalence", (cv_r.steps, cv_r.store, cv_r.stack)
           == (cv_t.steps, cv_t.store, cv_t.stack), "")

    dp = dps_convert_program(prog)
    rd = ref_run(dp, store.copy(), fuel=fuel, inputs=inputs)
    yield ("dps-extensional",
           extensionally_preserved(r, rd, prog.arity, store), "")
    try:
        check_dps_overhead(r.log, rd.log, max_pop_arity(prog))
    except BoundViolated as exc:
        yield "dps-overhead", False, str(exc)
    else:
        yield "dps-overhead", True, ""

    # Propagation consistency is theorem-backed for CSA programs, so the
    # battery propagates the converted program unless `native` is set.
    if not native:
        prog = dp
    edited = _edited(store, labels, edits)
    try:
        t2 = _faithful(prog, store, edited, inputs, fuel)
        fresh = _rerun(prog, edited, inputs, fuel)
    except Stuck as exc:
        yield "propagate-vs-rerun", False, str(exc)
        return
    yield "propagate-vs-rerun", _agree(t2, fresh, edited), ""
    yield "garbage-unreachable", check_garbage_unreachable(t2), ""
    try:
        fast = _fast(prog, store, labels, inputs, edits, fuel)
    except Stuck as exc:
        yield "fast-vs-faithful", False, str(exc)
    else:
        yield "fast-vs-faithful", _agree(fast, t2, edited), ""


def cmd_check(args) -> int:
    """Print the consistency battery for one file."""
    fuel = fuel_of(args)
    lp = load_program(args.file, args.build, fuel)
    edits = parse_edits_args(args, lp.labels)
    failures = 0
    for name, ok, detail in battery(lp.program, lp.store, lp.labels,
                                    lp.inputs, edits, fuel, args.native):
        failures += not ok
        if args.porcelain:
            print(f"check={name} ok={'yes' if ok else 'no'}")
        else:
            mark = "ok" if ok else "FAIL"
            print(f"[{mark}] {name}" + (f": {detail}" if detail else ""))
    return 1 if failures else 0


# The last battery check each fuzz property runs.
FUZZ_LAST_CHECK = {"consistency": "ref-vs-trace",
                   "dps": "propagate-vs-rerun",
                   "fastvsfaithful": "fast-vs-faithful"}


def cmd_fuzz(args) -> int:
    """Run the battery on each fuzzed program and a random edit batch, up
    to the check the property names."""
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi) + 1)
    fuel = fuel_of(args)
    last = FUZZ_LAST_CHECK[args.prop]
    bad = []
    for seed in seeds:
        case = gen_program(seed)
        store, labels, inputs = case.build()
        edits = gen_edits(seed + 1, store, labels, case.edit_slots, 2)
        try:
            for name, ok, detail in battery(case.program, store, labels,
                                            inputs, edits, fuel):
                if not ok or name == last:
                    break
            if not ok:
                print(f"seed {seed}: {name} failed"
                      + (f": {detail}" if detail else ""), file=sys.stderr)
        except (Stuck, FuelExhausted) as exc:
            ok = False
            print(f"seed {seed}: {exc}", file=sys.stderr)
        if not ok:
            bad.append(seed)
    print(f"prop={args.prop} seeds={args.seeds} checked={len(seeds)} "
          f"failures={len(bad)}" + (f" bad={bad}" if bad else ""))
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sasm",
        description="Self-adjusting stack machine toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, edits=False):
        sp.add_argument("file", help="IL program file ('-' for stdin)")
        sp.add_argument("--build", help="input builder IL file", default=None)
        sp.add_argument("--fuel", type=int, default=None,
                        help="step budget (default 10^7 or $SASM_FUEL)")
        if edits:
            sp.add_argument("--edit", action="append",
                            help="edit line: 'write LABEL OFFSET VALUE'")
            sp.add_argument("--edits", help="edit script file")

    sp = sub.add_parser("run", help="run on the reference machine")
    common(sp)
    sp.add_argument("--dump-store", action="store_true")
    sp.add_argument("--deref", action="store_true",
                    help="dereference a location result")
    sp.add_argument("--deref-arity", type=int, default=None)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("trace", help="dump the from-scratch trace")
    common(sp)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("propagate", help="apply edits and propagate")
    common(sp, edits=True)
    sp.add_argument("--engine", choices=("faithful", "fast"),
                    default="faithful")
    sp.add_argument("--compare-rerun", action="store_true",
                    help="assert equality against a fresh run")
    sp.add_argument("--verify", action="store_true",
                    help="run both engines and diff observables")
    sp.set_defaults(func=cmd_propagate)

    sp = sub.add_parser("dps", help="destination-passing-style conversion")
    common(sp)
    sp.add_argument("--selective", action="store_true")
    sp.set_defaults(func=cmd_dps)

    sp = sub.add_parser("analyze", help="live sets and region flags")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("cost", help="cost-model table for one run")
    common(sp)
    sp.add_argument("--machine", choices=("ref", "trace"), default="ref")
    sp.add_argument("--dps", action="store_true",
                    help="convert first and report overhead bounds")
    sp.set_defaults(func=cmd_cost)

    sp = sub.add_parser("bench", help="benchmark row")
    sp.add_argument("name")
    sp.add_argument("--n", type=int, default=64)
    sp.add_argument("--variant", default="b")
    sp.add_argument("--edits", type=int, default=4)
    sp.add_argument("--engine", choices=("faithful", "fast"), default="fast")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fuel", type=int, default=None)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("check", help="full consistency battery on one file")
    common(sp, edits=True)
    sp.add_argument("--native", action="store_true",
                    help="propagate the original program instead of its "
                         "DPS conversion (sound only for CSA programs)")
    sp.add_argument("--porcelain", action="store_true")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("fuzz", help="randomized equivalence oracles")
    sp.add_argument("--seeds", default="0..99", help="A..B inclusive")
    sp.add_argument("--prop", choices=FUZZ_LAST_CHECK, default="consistency")
    sp.add_argument("--fuel", type=int, default=None)
    sp.set_defaults(func=cmd_fuzz)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (Stuck, FuelExhausted) as exc:
        print(f"machine error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
