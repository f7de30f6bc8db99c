"""Benchmark generators: golden values, host oracles, variant equivalence."""

import os

import pytest

from sasm.corpus import (Edit, apply_edits, emit_corpus_files,
                         eval_tree_shape, exptrees_fixture, gen_array_max,
                         gen_exptrees, gen_list, random_tree, NotPowerOfTwo,
                         UPPER_TREE)
from sasm.fuzz import gen_edits
from sasm.refmachine import ref_run
from sasm.tracing import propagate, run_from_scratch
import random


def test_upper_tree_shape_evaluates_to_six():
    assert eval_tree_shape(UPPER_TREE) == 6


def test_exptrees_upper_and_lower():
    bench = exptrees_fixture()
    store, labels, inputs = bench.build()
    t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    assert t1.values == (6,)
    # The lower tree: apply the structural edit, full rerun yields 11.
    s2 = store.copy()
    apply_edits(s2, labels, bench.fixture_edits["lower"])
    assert bench.oracle(s2, labels) == 11
    r = ref_run(bench.program, s2.copy(), inputs=inputs)
    assert r.values == (11,)


def test_single_leaf_tree():
    bench = gen_exptrees(("leaf", 5))
    store, labels, inputs = bench.build()
    assert run_from_scratch(bench.program, store, inputs=inputs).values == (5,)


def test_random_trees_match_host_oracle():
    rng = random.Random(3)
    for _ in range(20):
        shape = random_tree(rng, 4)
        bench = gen_exptrees(shape)
        store, labels, inputs = bench.build()
        t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        assert t.values == (eval_tree_shape(shape),)
        assert bench.oracle(store, labels) == t.values[0]


def test_array_max_golden_paper_values():
    for variant in "abc":
        bench = gen_array_max([2, 9, 3, 5, 4, 7, 1, 6], variant)
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        assert bench.observe(t1.values, t1.store, labels) == 9, variant
        s2 = store.copy()
        apply_edits(s2, labels, [Edit("arr", 2, 0)])
        t2 = propagate(bench.program, t1.trace, s2.copy())
        assert bench.observe(t2.values, t2.store, labels) == 7, variant


def test_array_max_affected_iterations_per_round():
    """Single input edit: at most one re-evaluated iteration per round under
    variants b and c (one pair update plus its after-write update)."""
    import math
    for variant in "bc":
        bench = gen_array_max(64, variant)
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        s2 = store.copy()
        cur = s2.read(labels["arr"], 5)
        apply_edits(s2, labels, [Edit("arr", 5, cur + 1000)])
        t2 = propagate(bench.program, t1.trace, s2.copy())
        rounds = int(math.log2(64))
        # Each affected iteration re-evaluates at most two update points
        # (the pair computation and the result write), plus the final cell.
        assert t2.log.count("P.E") <= 2 * rounds + 1, variant


def test_array_max_requires_power_of_two():
    with pytest.raises(NotPowerOfTwo):
        gen_array_max(6, "b")
    with pytest.raises(NotPowerOfTwo):
        gen_list("sum", 5, seed=0)


def test_array_variants_agree_on_outputs_and_edits():
    values = [2, 9, 3, 5, 4, 7, 1, 6]
    outs = []
    for variant in "abc":
        bench = gen_array_max(values, variant)
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        out1 = bench.observe(t1.values, t1.store, labels)
        s2 = store.copy()
        apply_edits(s2, labels, [Edit("arr", 6, -5), Edit("arr", 1, 50)])
        t2 = propagate(bench.program, t1.trace, s2.copy())
        out2 = bench.observe(t2.values, t2.store, labels)
        outs.append((out1, out2))
    assert len(set(outs)) == 1


def test_list_sum_trivial():
    bench = gen_list("sum", 2, seed=0)
    store, labels, inputs = bench.build()
    s = store.copy()
    s.write(labels["c1"], 1, 1)
    s.write(labels["c2"], 1, 2)
    t = run_from_scratch(bench.program, s, inputs=inputs)
    assert bench.observe(t.values, t.store, labels) == 3


def test_list_minimum_seeded_against_host_fold():
    bench = gen_list("minimum", 64, seed=100)
    store, labels, inputs = bench.build()
    t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    assert bench.observe(t.values, t.store, labels) == bench.oracle(store, labels)


def test_list_benchmarks_match_host_oracles(corpus):
    for bench in corpus:
        store, labels, inputs = bench.build()
        t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        assert bench.observe(t.values, t.store, labels) == \
            bench.oracle(store, labels), bench.name


def test_reverse_twice_is_identity():
    bench = gen_list("reverse", 9, seed=7)
    store, labels, inputs = bench.build()
    original = [store.read(labels[f"c{i}"], 1) for i in range(1, 10)]
    t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    once = list(bench.observe(t1.values, t1.store, labels))
    assert once == list(reversed(original))
    # Second reversal: run a fresh instance over the first output list.
    bench2 = gen_list("reverse", 9, seed=7)
    s2 = t1.store
    head = s2.read(labels["acell"], 1)
    # Rebind the input list head and a fresh accumulator cell.
    acell2 = s2.alloc(2)
    s2.write(acell2, 1, 0)
    s2.write(acell2, 2, 0)
    t2 = run_from_scratch(bench2.program, s2,
                          inputs={"lst": head, "acell": acell2})
    from sasm.corpus import walk_list
    assert walk_list(t2.store, t2.store.read(acell2, 1)) == original


def test_edits_propagate_consistently_across_list_benchmarks(corpus):
    for bench in corpus:
        if not (bench.name.startswith("list_") and bench.native_csa):
            continue
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(bench.program, store.copy(), inputs=inputs)
        s2 = store.copy()
        apply_edits(s2, labels, gen_edits(9, s2, labels, bench.edit_slots, 2))
        t2 = propagate(bench.program, t1.trace, s2.copy())
        assert bench.observe(t2.values, t2.store, labels) == \
            bench.oracle(s2, labels), bench.name


def test_sorting_stretch_benchmarks_against_host_oracle():
    from sasm.corpus import gen_sort
    for algo in ("quicksort", "mergesort"):
        for seed in (0, 6, 13):
            bench = gen_sort(algo, 9, seed=seed)
            store, labels, inputs = bench.build()
            t = run_from_scratch(bench.program, store.copy(), inputs=inputs)
            assert bench.observe(t.values, t.store, labels) == \
                bench.oracle(store, labels), (algo, seed)
        # Edits propagate consistently through the DPS-converted sort.
        from sasm.dps import dps_convert_program
        from sasm.tracing import canonical_result, non_garbage
        bench = gen_sort(algo, 8, seed=2)
        prog = dps_convert_program(bench.program)
        store, labels, inputs = bench.build()
        t1 = run_from_scratch(prog, store.copy(), inputs=inputs)
        s2 = store.copy()
        apply_edits(s2, labels, gen_edits(4, s2, labels, bench.edit_slots, 1))
        t2 = propagate(prog, t1.trace, s2.copy())
        fresh = run_from_scratch(prog, non_garbage(s2.copy()), inputs=inputs)
        assert canonical_result(t2, s2) == canonical_result(fresh, s2), algo


def test_checked_in_corpus_files_match_their_generator(tmp_path):
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    written = emit_corpus_files(str(tmp_path))
    names = sorted(os.path.basename(p) for p in written)
    assert names == sorted(os.listdir(corpus))
    for name in names:
        with open(tmp_path / name, "rb") as fresh, \
                open(os.path.join(corpus, name), "rb") as kept:
            assert fresh.read() == kept.read(), name
