"""The command-line interface: subcommands, exit codes, file conventions."""

import os

import pytest

from sasm.cli import main
from sasm.cost import BoundViolated
from sasm.errors import Stuck
from sasm.runtime import Runtime

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
    assert main(["bench", "array_max", "--n", "32", "--edits", "2",
                 "--engine", "fast"]) == 0
    out = capsys.readouterr().out
    assert "from_scratch_steps=" in out and "avg_realized=" in out


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
