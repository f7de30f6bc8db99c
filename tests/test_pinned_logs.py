"""The rule-tag logs and Runtime counts of the corpus and of fuzzed programs,
pinned by SHA-256 digest.

The reference machine, the tracing machine and the Runtime take the steps
that the same rule compilers make (`refmachine.RULES`, with the operand
compilers of `store.py`, the primitive table and the saved environments), so
the differential oracles, which compare one engine with another, cannot see
a drift in those rules.  These digests can: a change to any rule's result,
tag or order changes a log.  Each digest is the first 16 hex digits of the
SHA-256 of the lines `_runs` yields; a deliberate change to the semantics
must recompute them.
"""

import hashlib

import pytest

from sasm.dps import dps_convert_program
from sasm.errors import Stuck
from sasm.fuzz import gen_edits, gen_program
from sasm.refmachine import ref_run
from sasm.runtime import Runtime
from sasm.tracing import propagate, run_from_scratch


def _line(r) -> str:
    """A run's rule-tag log, values and final store."""
    return " ".join([*r.log, repr(r.values), *r.store.dump_lines()])


def _runs(prog, store, labels, inputs, edits, native):
    """The reference run, the from-scratch tracing run, one faithful
    propagation and the Runtime's counts and store, one line each.  As in the
    `sasm check` battery, the propagations run the DPS-converted program
    unless `native` is set."""
    yield _line(ref_run(prog, store.copy(), inputs=inputs))
    t = run_from_scratch(prog, store.copy(), inputs=inputs)
    yield _line(t)
    if not native:
        prog = dps_convert_program(prog)
        t = run_from_scratch(prog, store.copy(), inputs=inputs)
    changes = [e.resolve(labels) for e in edits]
    edited = store.copy()
    for loc, off, val in changes:
        edited.write(loc, off, val)
    try:
        yield _line(propagate(prog, t.trace, edited))
    except Stuck as exc:
        yield f"stuck {exc}"
    try:
        rt = Runtime(prog, store.copy(), inputs=inputs)
        built = (rt.eval_steps, rt.live_entries)
        r = rt.propagate(changes)
        yield " ".join([f"{built} {r.values} {r.eval_steps} {r.undo_steps} "
                        f"{r.prop_equivalent} {r.reevaluated} {r.skipped} "
                        f"{r.matches}", *r.store.dump_lines()])
    except Stuck as exc:
        yield f"stuck {exc}"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _corpus_runs(b):
    store, labels, inputs = b.build()
    edits = next(iter(b.fixture_edits.values()), None)
    if edits is None:
        edits = gen_edits(1, store, labels, b.edit_slots, 2)
    return _runs(b.program, store, labels, inputs, edits, b.native_csa)


# (ref_run, run_from_scratch, faithful propagation, Runtime)
CORPUS = {
    "0-exptrees": ("68745d37321335aa", "9089c15cd3a110ff",
                   "957aab4a9ce810bf", "85de599e875ad7c8"),
    "1-exptrees": ("965e8ace650039ad", "3c401e5faf0cc721",
                   "efb2a4a5c81a4c48", "593844a045331e89"),
    "2-array_max_a": ("fdda9b7be5b13d0f", "2163e10e9b512c21",
                      "4aa87ec9e32a3eae", "69bc8899a11a5c88"),
    "3-array_max_b": ("9e70bf4435e17438", "811e13aa403ba6dd",
                      "fe4f31f2c54819bb", "42f2d6659ab020b8"),
    "4-array_max_c": ("2001fb3540d1cabc", "17fe52ec8f3dac02",
                      "af493dafa59a8ca1", "b0c7e3cf514b9eda"),
    "5-list_sum": ("2d5045bea990382c", "dc445be44543eccd",
                   "44444374fdb48969", "8726061902720eac"),
    "6-list_minimum": ("38f16b932c495390", "c51521dd10c96283",
                       "910872a67795e0b1", "1200fbadbd4b0ed6"),
    "7-list_map": ("2cc2fa1ae42d2c50", "cadd2cc667823d50",
                   "b903957d657c422f", "0d31a60c578f5390"),
    "8-list_filter": ("03d6c740c7ff64fa", "e5439287a1aa129b",
                      "9ed3066aad67c169", "3e95c62800b9534c"),
    "9-list_reverse": ("6af1920754558f14", "4d2fbcfc1240f3e2",
                       "406f0dde51040071", "1ee0311c7a6b85b9"),
    "10-list_quicksort": ("d6387d08cf3da341", "0bdb6f01654eba98",
                          "f650b7a44eafb96e", "b88fe1fa98383a45"),
    "11-list_mergesort": ("16b03bd67bab4c92", "532f612fe9176dd5",
                          "5e5de7818df5440e", "60f8ea823c6a806d"),
}

FUZZ_SEEDS_0_199 = "6ffd2a3f108a681e"


@pytest.mark.parametrize("i", range(len(CORPUS)), ids=list(CORPUS))
def test_corpus_logs_match_their_pinned_digests(corpus, i):
    b = corpus[i]
    name = f"{i}-{b.name}"
    assert tuple(_digest([line]) for line in _corpus_runs(b)) == CORPUS[name]


def test_fuzzed_logs_match_their_pinned_digest():
    def lines():
        for seed in range(200):
            case = gen_program(seed)
            store, labels, inputs = case.build()
            edits = gen_edits(seed + 1, store, labels, case.edit_slots, 2)
            yield from _runs(case.program, store, labels, inputs, edits,
                             native=False)

    assert _digest(lines()) == FUZZ_SEEDS_0_199
