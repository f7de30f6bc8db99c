"""The command-line interface: subcommands, exit codes, file conventions."""

import os
import random
import subprocess
import sys

import pytest

from sasm.cli import main
from sasm.corpus import apply_edits, gen_array_max, gen_list
from sasm.cost import BoundViolated, cost_vector
from sasm.errors import Stuck
from sasm.fuzz import gen_edits
from sasm.runtime import Runtime
from sasm.tracing import propagate, run_from_scratch

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, name)


def test_run_exptrees_prints_six(capsys):
    assert main(["run", corpus_path("exptrees.il")]) == 0
    assert capsys.readouterr().out.strip() == "⟨6⟩"


def test_run_standalone_exptrees(capsys):
    assert main(["run", corpus_path("exptrees_standalone.il")]) == 0
    assert capsys.readouterr().out.strip() == "⟨6⟩"


def test_run_dump_store_sorted(capsys):
    assert main(["run", corpus_path("array_max_b.il"), "--dump-store"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines[0].startswith("ℓ1[1] = ")
    assert lines == sorted(lines, key=lambda s: s.split(" = ")[0])


def test_dps_pipe_run_deref(capsys, tmp_path, monkeypatch):
    assert main(["dps", corpus_path("exptrees.il")]) == 0
    converted = capsys.readouterr().out
    conv_path = tmp_path / "exptrees_dps.il"
    conv_path.write_text(converted)
    assert main(["run", str(conv_path), "--build",
                 corpus_path("exptrees.build.il")]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("⟨ℓ")  # a location
    assert main(["run", str(conv_path), "--build",
                 corpus_path("exptrees.build.il"), "--deref"]) == 0
    assert capsys.readouterr().out.strip() == "⟨6⟩"


def test_check_exptrees_with_lower_tree_edits(capsys):
    rc = main(["check", corpus_path("exptrees.il"),
               "--edits", os.path.join(FIXTURES, "lower-tree.edits")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "FAIL" not in out


def test_check_porcelain(capsys):
    rc = main(["check", corpus_path("list_sum.il"), "--porcelain"])
    out = capsys.readouterr().out
    assert rc == 0
    assert all(line.startswith("check=") and "ok=yes" in line
               for line in out.splitlines())


def test_check_porcelain_names_the_battery_in_order(capsys):
    assert main(["check", corpus_path("list_sum.il"), "--porcelain",
                 "--edit", "write c3 1 99"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == ["check=ref-vs-trace", "check=cost-equivalence",
                     "check=dps-extensional", "check=dps-overhead",
                     "check=propagate-vs-rerun", "check=garbage-unreachable",
                     "check=fast-vs-faithful"]


def test_check_native_array_max(capsys):
    rc = main(["check", corpus_path("array_max_b.il"), "--native",
               "--edit", "write arr 2 0"])
    assert rc == 0, capsys.readouterr().out


def test_check_reports_a_stuck_runtime_as_fast_vs_faithful(capsys,
                                                           monkeypatch):
    def stuck(self, edits, fuel=None):
        raise Stuck("R.5", "injected")

    monkeypatch.setattr(Runtime, "propagate", stuck)
    rc = main(["check", corpus_path("list_sum.il"), "--edit", "write c3 1 99"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] fast-vs-faithful: stuck at R.5: injected" in out
    assert out.count("propagate-vs-rerun") == 1
    assert "[ok] propagate-vs-rerun" in out


def test_propagate_compare_rerun_and_verify(capsys):
    rc = main(["propagate", corpus_path("array_max_c.il"),
               "--edit", "write arr 2 0", "--compare-rerun", "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "engines agree" in out
    assert "propagation matches fresh run" in out


@pytest.mark.parametrize("engine, message", [
    ("faithful", "read from garbage location ℓ16"),
    ("fast", "read of ℓ16[1] unavailable")], ids=["faithful", "fast"])
def test_propagate_verify_reports_the_selected_engine(capsys, engine,
                                                      message):
    argv = ["propagate", corpus_path("list_mergesort.il"), "--engine", engine,
            "--edit", "write c3 1 99"]
    assert main(argv) == 1
    alone = capsys.readouterr().err
    assert main(argv + ["--verify"]) == 1
    assert capsys.readouterr().err == alone
    assert message in alone


def test_propagate_fast_engine(capsys):
    rc = main(["propagate", corpus_path("list_sum.il"), "--engine", "fast",
               "--edit", "write c3 1 99", "--compare-rerun"])
    assert rc == 0, capsys.readouterr().out


def test_trace_dump(capsys):
    assert main(["trace", corpus_path("exptrees.il")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("M #")


def test_analyze(capsys):
    assert main(["analyze", corpus_path("exptrees.il")]) == 0
    out = capsys.readouterr().out
    assert "live={t}" in out
    assert "may-update" in out


def test_cost_table_with_dps_report(capsys):
    assert main(["cost", corpus_path("exptrees.il"), "--dps"]) == 0
    out = capsys.readouterr().out
    assert "stack quadruples equal: True" in out
    assert "alloc delta" in out


def test_bench_row(capsys):
    assert main(["bench", "array_max", "--n", "32", "--edits", "2"]) == 0
    out = capsys.readouterr().out
    assert "from_scratch_steps=" in out and "avg_realized=" in out


@pytest.mark.parametrize("name, bench", [
    ("array_max", lambda: gen_array_max(32, "b")),
    ("list_sum", lambda: gen_list("sum", 32, 0))],
    ids=["array_max", "list_sum"])
def test_bench_row_equals_a_faithful_propagation(capsys, name, bench):
    """The row's figures, recomputed on the faithful machine: the row's
    edits (default seed 0, 4 edits), each propagated over the one shared
    from-scratch trace."""
    bench = bench()
    store, labels, inputs = bench.build()
    scratch = run_from_scratch(bench.program, store.copy(), inputs=inputs)
    rng = random.Random(0)
    realized = matches = 0
    for _ in range(4):
        edits = gen_edits(rng.randrange(1 << 30), store, labels,
                          bench.edit_slots, 1)
        edited = store.copy()
        apply_edits(edited, labels, edits)
        t2 = propagate(bench.program, scratch.trace, edited)
        realized += cost_vector(t2.log).realized
        matches += t2.log.count("E.P")
    assert main(["bench", name, "--n", "32"]) == 0
    row = dict(f.split("=") for f in capsys.readouterr().out.split())
    assert row["from_scratch_steps"] == str(scratch.steps)
    assert row["avg_realized"] == f"{realized / 4:.1f}"
    assert row["memo_matches"] == str(matches)


@pytest.mark.parametrize("argv, message", [
    (["list_quicksort"], "unknown benchmark 'list_quicksort'"),
    (["list_mergesort"], "unknown benchmark 'list_mergesort'"),
    (["list_bogus"], "unknown benchmark 'list_bogus'"),
    (["list_sum", "--n", "48"], "list length 48 is not a power of two"),
    (["array_max", "--n", "6"], "array length 6 is not a power of two"),
    (["list_map", "--n", "0"], "list length must be at least 1"),
    (["list_reverse", "--n", "-3"], "list length must be at least 1"),
    (["exptrees", "--edits", "2"], "benchmark 'exptrees' has no edit slots")],
    ids=["list_quicksort", "list_mergesort", "list_bogus", "list_sum-48",
         "array_max-6", "list_map-0", "list_reverse--3", "exptrees"])
def test_bench_bad_name_or_size_is_an_error_line(argv, message):
    assert_error_line(["bench", *argv], message)


def assert_error_line(argv, message, **env):
    """Run the CLI as a subprocess: exit 1 with an `error:` line, no
    traceback."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run([sys.executable, "-m", "sasm.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("cmd, edit, message", [
    ("propagate", "bogus", "bad edit line 'bogus'"),
    ("check", "bogus", "bad edit line 'bogus'"),
    ("propagate", "write arr x 1", "bad edit line 'write arr x 1'"),
    ("check", "write arr 1 @nolabel", "edit value '@nolabel' names no label"),
    ("propagate", "write len 1 5", "label 'len' is not a location"),
    ("propagate", "write nolabel 1 5", "unknown edit label 'nolabel'")],
    ids=["propagate-bogus", "check-bogus", "offset-x", "value-nolabel",
         "not-a-location", "unknown-label"])
def test_malformed_edit_is_an_error_line(cmd, edit, message):
    assert_error_line([cmd, corpus_path("array_max_b.il"), "--edit", edit],
                      message)


def test_malformed_edits_file_line_is_an_error_line(tmp_path):
    script = tmp_path / "bad.edits"
    script.write_text("; a comment\nwrite arr 1 7\nwrite arr 1 zz\n")
    assert_error_line(["propagate", corpus_path("array_max_b.il"),
                       "--edits", str(script)],
                      "bad edit line 'write arr 1 zz'")


BAD_SOURCES = {
    "syntax": ("let x = in\npop(x)\narity 1\n",
               "1:9: expected 'prim', 'alloc', 'read' or 'write'"),
    "unknown-prim": ("let x = prim foo(1, 2) in\npop(x)\narity 1\n",
                     "1:14: unknown primitive 'foo'"),
    "pop-arity": ("pop(1, 2)\narity 1\n",
                  "1:1: program arity mismatch: pop of 2 values at 1:1 "
                  "but 1 expected"),
}


@pytest.mark.parametrize("cmd", ["run", "check", "propagate"])
@pytest.mark.parametrize("bad", list(BAD_SOURCES))
def test_unparsable_program_is_an_error_line(tmp_path, cmd, bad):
    text, message = BAD_SOURCES[bad]
    path = tmp_path / "bad.il"
    path.write_text(text)
    assert_error_line([cmd, str(path)], f"{path}: {message}")


@pytest.mark.parametrize("bad", list(BAD_SOURCES))
def test_unparsable_builder_is_an_error_line(tmp_path, bad):
    text, message = BAD_SOURCES[bad]
    build = tmp_path / "bad.build.il"
    build.write_text(text)
    assert_error_line(["run", corpus_path("array_max_b.il"), "--build",
                       str(build)], f"{build}: {message}")


@pytest.mark.parametrize("seeds", ["5", "a..b", "3..1"])
def test_fuzz_bad_seed_range_is_an_error_line(seeds):
    assert_error_line(["fuzz", "--seeds", seeds],
                      f"bad seed range {seeds!r}")


@pytest.mark.parametrize("argv, env, message", [
    (["bench", "array_max", "--n", "8", "--edits", "-2"], {},
     "--edits must not be negative, not -2"),
    (["run", corpus_path("exptrees.il"), "--fuel", "-3"], {},
     "--fuel must be at least 1, not -3"),
    (["fuzz", "--seeds", "0..1", "--fuel", "0"], {},
     "--fuel must be at least 1, not 0"),
    (["run", corpus_path("exptrees.il")], {"SASM_FUEL": "0"},
     "SASM_FUEL must be at least 1, not 0"),
])
def test_negative_edits_or_fuel_below_one_is_an_error_line(argv, env,
                                                          message):
    assert_error_line(argv, message, **env)


def test_non_integer_sasm_fuel_is_an_error_line():
    assert_error_line(["run", corpus_path("exptrees.il")],
                      "SASM_FUEL is not an integer: 'lots'", SASM_FUEL="lots")


@pytest.mark.parametrize("prop", ["consistency", "dps", "fastvsfaithful"])
def test_fuzz_command(capsys, prop):
    assert main(["fuzz", "--seeds", "0..19", "--prop", prop]) == 0
    assert "failures=0" in capsys.readouterr().out


def test_fuzz_fails_on_any_check_before_the_one_it_names(capsys,
                                                         monkeypatch):
    def violated(*args):
        raise BoundViolated("injected")

    monkeypatch.setattr("sasm.cli.check_dps_overhead", violated)
    assert main(["fuzz", "--seeds", "0..0", "--prop", "fastvsfaithful"]) == 1
    out, err = capsys.readouterr()
    assert "failures=1" in out
    assert "seed 0: dps-overhead failed: injected" in err


def test_missing_builder_for_inputs_is_semantic_error(capsys, tmp_path):
    path = tmp_path / "needs_input.il"
    path.write_text("input x\npop(x)\narity 1\n")
    assert main(["run", str(path)]) == 1
    assert "builder" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_ill_formed_file_is_semantic_error(capsys, tmp_path):
    path = tmp_path / "bad.il"
    path.write_text("g(x)\narity 0\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unbound" in err


def test_env_var_fuel(capsys, tmp_path, monkeypatch):
    path = tmp_path / "spin.il"
    path.write_text("let fun spin() =\n spin()\nspin()\narity 0\n")
    monkeypatch.setenv("SASM_FUEL", "50")
    assert main(["run", str(path)]) == 1
    assert "fuel exhausted" in capsys.readouterr().err
