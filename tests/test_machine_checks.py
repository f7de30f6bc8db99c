"""The lemma-check observer: it changes no run, and reports what the
faithful machine's former debug mode reported."""

import hashlib

from sasm import ilast as A
from sasm.corpus import apply_edits, corpus_benchmarks
from sasm.dps import dps_convert_program
from sasm.fuzz import gen_edits, gen_program
from sasm.refmachine import Frame
from sasm.store import Store
from sasm.trace import dump
from sasm.tracing import propagation_machine

from machine_checks import checked_run, scratch_machine

FUEL = 400_000

# SHA-256 of `_records` for each run kind, as the machine's debug mode
# reported them (its segments, CSA violations and leftover marks) before
# the checks moved into `machine_checks`.
DEBUG_MODE_DIGESTS = {
    "scratch":
        "cd3809eea455493fb80d1c8b5edea46c022144eece9180a573911d6987fc4010",
    "prop-dps":
        "347b66af535104c7c16e40846b7f79d34ed389820621a085c4ab5e360ecadeb7",
    "prop-native":
        "733a9db578a6e2cf4d0034fb4ee68dbfd37ae8aa73635c54b90955d21ae6d358",
}


def _cases():
    """(name, case, edit seed) for every corpus program and fuzz seeds
    0..199."""
    for bench in corpus_benchmarks():
        yield bench.name, bench, 17
    for seed in range(200):
        yield f"seed {seed}", gen_program(seed), seed + 7


def _fp(x):
    """A rendering of a check record that does not depend on the hash seed
    or on object identity."""
    if isinstance(x, Store):
        return ("store", sorted((k, _fp(v)) for k, v in x.cells.items()),
                sorted(x.sizes.items()), sorted(x.garbage), x.next_id)
    if isinstance(x, dict):
        return sorted((k, _fp(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_fp(v) for v in x]
    if isinstance(x, Frame):
        return ("frame", x.fname, _fp(x.env))
    if isinstance(x, A.FunDef):
        return ("fun", x.fname, x.eid)
    if isinstance(x, A.Expr):
        return (type(x).__name__, x.eid)
    return repr(x)


def _digest(records) -> str:
    return hashlib.sha256(repr(_fp(records)).encode()).hexdigest()


def _runs():
    """(kind, name, program, store, inputs, reuse) for each checked run: a
    native run from scratch, and a propagation of two edits through the
    converted and through the native program."""
    for name, case, edit_seed in _cases():
        store, labels, inputs = case.build()
        yield "scratch", name, case.program, store, inputs, None
        if not case.edit_slots:
            continue
        edited = store.copy()
        apply_edits(edited, labels, gen_edits(edit_seed, edited, labels,
                                              case.edit_slots, 2))
        for kind, prog in (("prop-dps", dps_convert_program(case.program)),
                           ("prop-native", case.program)):
            t1 = scratch_machine(prog, store.copy(), inputs).run(FUEL)
            yield kind, name, prog, edited, inputs, t1.trace


def _machine(prog, store, inputs, reuse):
    if reuse is None:
        return scratch_machine(prog, store.copy(), inputs)
    return propagation_machine(prog, reuse, store.copy())


def _outcome(run):
    try:
        return run()
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def test_the_observer_changes_no_run():
    """checked_run gives the values, log, trace and store that
    TracingMachine.run gives, or raises what it raises."""
    kinds = set()
    for kind, name, prog, store, inputs, reuse in _runs():
        def plain():
            r = _machine(prog, store, inputs, reuse).run(FUEL)
            return r.values, r.log, dump(r.trace), _fp(r.store)

        def checked():
            r = checked_run(_machine(prog, store, inputs, reuse), FUEL).result
            return r.values, r.log, dump(r.trace), _fp(r.store)

        assert _outcome(plain) == _outcome(checked), (kind, name)
        kinds.add(kind)
    assert kinds == set(DEBUG_MODE_DIGESTS)


def _records() -> dict[str, list]:
    """Per run kind, each run's segments, CSA violations and leftover
    marks, or the exception that ended it."""
    out: dict[str, list] = {kind: [] for kind in DEBUG_MODE_DIGESTS}
    for kind, name, prog, store, inputs, reuse in _runs():
        def run():
            c = checked_run(_machine(prog, store, inputs, reuse), FUEL)
            return c.segments, c.csa_violations, c.marks
        out[kind].append((name, _outcome(run)))
    return out


def test_the_observer_reports_what_the_debug_mode_reported():
    records = _records()
    assert {kind: _digest(r) for kind, r in records.items()} \
        == DEBUG_MODE_DIGESTS
    # Not vacuous: propagations re-evaluate, and native programs break CSA.
    finished = {kind: [o for _, o in r if not isinstance(o[0], str)]
                for kind, r in records.items()}
    assert sum(len(segments) for segments, _, _ in finished["prop-dps"]) > 0
    assert sum(len(csa) for _, csa, _ in finished["prop-native"]) > 0
