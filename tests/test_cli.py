"""CLI surface: subcommands, exit codes, output shapes."""

import dataclasses

import pytest

from adtxn import cli, manager, monitor, tables
from adtxn.cli import main
from adtxn.history import History
from adtxn.workload import parse_workload
from helpers import undo_oldest_first

DEDUCTION = """\
object s stack ()
txn T1
  op s EMPTY
end commit
txn T2
  op s POP
end commit
schedule steps T1 T2 T2 T1 T2
"""

ABORTER = """\
object s stack a
txn T1
  op s PUSH b
end abort
schedule steps T1 T1
"""


@pytest.fixture
def wl(tmp_path):
    def write(text, name="w.wl"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_run_prints_the_trace(wl, capsys):
    assert main(["run", wl(DEDUCTION)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0 BEGIN txn=T1")
    assert "5 DEDUCE txn=T2 obj=s op=POP in=[] out=[_,EmptyStack]" in out


def test_run_trace_file_and_summary(wl, tmp_path, capsys):
    trace_path = tmp_path / "out.trace"
    assert main(["run", wl(DEDUCTION), "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "txn T1 committed" in out and "txn T2 committed" in out
    assert "final s = ()" in out
    assert trace_path.read_text().splitlines()[-1].startswith("7 COMMIT")


def test_run_refuses_an_unwritable_trace_path(wl, tmp_path, capsys):
    # a missing directory is unusable input, exit 2, not a failed oracle
    trace_path = tmp_path / "missing" / "out.trace"
    assert main(["run", wl(DEDUCTION), "--trace", str(trace_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "missing" in err and err.count("\n") == 1
    assert not trace_path.parent.exists()


def test_run_metrics_flag(wl, capsys):
    assert main(["run", wl(DEDUCTION), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "deductions 1" in out
    assert "max_in_execution s 1" in out


def test_run_rejects_a_bad_file(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(tmp_path / "missing.wl")])
    assert exc.value.code == 2
    bad = tmp_path / "bad.wl"
    bad.write_text("object s bogus\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(bad)])
    assert exc.value.code == 2
    assert "line 1" in capsys.readouterr().err


def test_run_propagates_simulation_errors(wl, capsys):
    text = "object s stack\ntxn T\n op s PUSH a\n op s POP\nend commit\n" \
           "schedule seed 1 steps 1\n"
    assert main(["run", wl(text)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_explicit_schedule_single_run(wl, capsys):
    assert main(["check", wl(DEDUCTION)]) == 0
    out = capsys.readouterr().out
    assert "PASS seed=- serial_order=" in out
    assert "checked 1 run(s), 0 failure(s)" in out


def test_check_sweeps_seeds_for_random_schedules(wl, capsys):
    text = """\
object s stack ()
txn T1
  op s PUSH a
end commit
txn T2
  op s POP
end commit
schedule seed 10 steps 100
"""
    assert main(["check", wl(text), "--runs", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    for k in range(5):
        assert f"seed={10 + k}" in out


def test_check_covers_transparency_for_aborting_workloads(wl, capsys):
    assert main(["check", wl(ABORTER)]) == 0
    assert "PASS" in capsys.readouterr().out


NINE_STACKS = "".join(f"object s{i} stack ()\n" for i in range(1, 10)) + \
    "".join(f"txn T{i}\n  op s{i} PUSH a\nend commit\n" for i in range(1, 10)) + \
    "schedule seed 1 steps 100\n"


def test_check_of_nine_committed_txns_passes_in_commit_order(wl, capsys):
    assert main(["check", wl(NINE_STACKS), "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS seed=1 serial_order=T2,T9,T5,T3,T1,T8,T6,T7,T4" in out


def test_check_fails_a_run_its_commit_order_does_not_explain(wl, capsys, monkeypatch):
    run = cli.run_simulated

    def tampered(workload, seed=None):
        # T1 and T2 trade names throughout the history, so T1 pushed on s2:
        # a step the history replay, which issues T1's declared steps, does
        # not owe; nine committed txns are no excuse
        result = run(workload, seed=seed)
        swap = {"T1": "T2", "T2": "T1"}
        return dataclasses.replace(result, history=History(
            [e._replace(txn=swap.get(e.txn, e.txn)) for e in result.history]))

    monkeypatch.setattr(cli, "run_simulated", tampered)
    assert main(["check", wl(NINE_STACKS), "--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ("FAIL seed=1 replay: event 4 (4 INVOKE txn=T1 obj=s2 op=PUSH in=[a] "
            "out=[]): owed INVOKE txn=T1 obj=s1 op=PUSH in=[a] out=[], "
            "invocation 2\n" in captured.out)
    assert "checked 1 run(s), 1 failure(s)" in captured.out


DIRTY_READ = """\
object s set {}
txn T1
  op s INSERT a
end abort
txn T2
  op s IN a
end commit
schedule seed 4 steps 100
"""


def test_check_fails_a_table_lie_at_serializability(wl, capsys, monkeypatch):
    # set INSERT and IN always commute, in the run's monitors and the
    # history replay's alike: T2 reads T1's insert, commits, and T1 aborts.
    # The history replays, and only the serial replay sees the dirty read
    assert main(["check", wl(DIRTY_READ), "--runs", "1"]) == 0
    capsys.readouterr()

    def lie(query):
        return lambda tables, a, b: {a.op, b.op} == {"INSERT", "IN"} or query(tables, a, b)

    monkeypatch.setattr(monitor, "commute_with_in", lie(tables.commute_with_in))
    monkeypatch.setattr(monitor, "commute_with_in_out", lie(tables.commute_with_in_out))
    assert main(["check", wl(DIRTY_READ), "--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "FAIL seed=4 serializability: commit order ['T2'] is no witness: T2 step 0 "
        "saw s IN [a] -> [true], the serial replay gives s IN [a] -> [false]\n"
        "checked 1 run(s), 1 failure(s)\n")


def test_check_reports_replay_drift_as_a_failed_stage(wl, capsys, monkeypatch):
    run = cli.run_simulated

    def truncated(workload, seed=None):
        # drop the last COMMIT, so the replay ends with work still held
        result = run(workload, seed=seed)
        return dataclasses.replace(
            result, history=History(result.history.events[:-1]))

    monkeypatch.setattr(cli, "run_simulated", truncated)
    text = "object s stack ()\ntxn T1\n  op s PUSH a\nend commit\n" \
           "schedule seed 10 steps 100\n"
    assert main(["check", wl(text), "--runs", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL seed=10 replay: end of history" in out
    assert "FAIL seed=11 replay: " in out
    assert "checked 2 run(s), 2 failure(s)" in out


def test_check_reports_an_engine_fault_as_a_failed_run_and_goes_on(wl, capsys, monkeypatch):
    def enter_execution(self, inv):
        self.running += 1       # planted: the op never moves to in-execution

    monkeypatch.setattr(monitor.ManagedObject, "_enter_execution", enter_execution)
    text = "object s stack ()\ntxn T1\n  op s PUSH a\nend commit\n" \
           "schedule seed 10 steps 100\n"
    assert main(["check", wl(text), "--runs", "2"]) == 1
    fault = "run: MonitorInvariantError: inv#1(txn=1 s.PUSH[a]->? new) misfiled"
    assert capsys.readouterr().out == (
        f"FAIL seed=10 {fault}\n"
        f"FAIL seed=11 {fault}\n"
        "checked 2 run(s), 2 failure(s)\n")


def test_check_of_a_workload_the_simulator_cannot_run_exits_2(wl, capsys):
    text = "object s stack\ntxn T\n op s PUSH a\n op s POP\nend commit\n" \
           "schedule seed 1 steps 1\n"
    assert main(["check", wl(text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: needed more than 1 scheduler steps")


SWEEP_AT_DEPTH_3 = """\
PASS boolean translation cases=10 violations=0
PASS boolean inverses cases=8 violations=0
PASS boolean in-table cases=4 violations=0
PASS boolean out-table cases=8 violations=0
PASS real translation cases=15 violations=0
PASS real inverses cases=126 violations=0
PASS real in-table cases=602 violations=0
PASS real out-table cases=16 violations=0
PASS set translation cases=10 violations=0
PASS set inverses cases=80 violations=0
PASS set in-table cases=512 violations=0
PASS set out-table cases=104 violations=0
PASS set keys cases=432 violations=0
PASS stack translation cases=5 violations=0
PASS stack inverses cases=300 violations=0
PASS stack in-table cases=45 violations=0
PASS stack out-table cases=23 violations=0
"""


def test_verify_tables_single_and_unknown(capsys):
    assert main(["verify-tables", "boolean"]) == 0
    out = capsys.readouterr().out
    assert "PASS boolean translation" in out
    assert main(["verify-tables", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_verify_tables_all(capsys):
    assert main(["verify-tables", "all", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    # 4 types x 4 checks, plus the key check of the one type with keys,
    # every line a PASS with counted cases
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 17
    assert any(l.startswith("PASS set keys ") for l in lines)
    assert all(l.startswith("PASS") and "cases=" in l for l in lines)
    # every count at depth 3 is pinned, so a probe that drops out shows here
    assert main(["verify-tables", "all", "--depth", "3"]) == 0
    assert capsys.readouterr().out == SWEEP_AT_DEPTH_3


def test_fuzz_smoke(capsys):
    assert main(["fuzz", "--runs", "10", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "mode=commit: 10/10 runs passed" in out
    assert "mode=abort: 10/10 runs passed" in out


def test_fuzz_prints_each_failure_minimized_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(manager, "abort_plan", undo_oldest_first)
    assert main(["fuzz", "--seed", "0", "--runs", "50"]) == 1
    out = capsys.readouterr().out
    assert "mode=commit: 50/50 runs passed" in out
    assert "mode=abort: 47/50 runs passed" in out
    fails = [l for l in out.splitlines() if l.startswith("FAIL ")]
    assert len(fails) == 3
    assert all(l.startswith("FAIL mode=abort run=") and " stage=serializability: " in l
               for l in fails)
    # each failure is followed by its minimized workload, which parses
    for text in out.split("  minimized workload:\n")[1:]:
        lines = [l[4:] for l in text.splitlines() if l.startswith("    ")]
        assert lines and parse_workload("\n".join(lines)).txns


def test_fuzz_no_aborts_skips_the_second_mode(capsys):
    assert main(["fuzz", "--runs", "5", "--no-aborts"]) == 0
    out = capsys.readouterr().out
    assert "mode=commit" in out and "mode=abort" not in out


def test_fuzz_runs_workloads_of_up_to_twelve_txns(capsys):
    assert main(["fuzz", "--txns", "12", "--runs", "3"]) == 0
    out = capsys.readouterr().out
    assert "mode=commit: 3/3 runs passed" in out
    assert "mode=abort: 3/3 runs passed" in out


@pytest.mark.parametrize("argv,message", [
    (["fuzz", "--txns", "1"], "--txns must be at least 2"),
    (["fuzz", "--ops", "0"], "--ops must be at least 1"),
    (["fuzz", "--runs", "0"], "--runs must be at least 1"),
    (["check", "{file}", "--runs", "0"], "--runs must be at least 1"),
    (["verify-tables", "stack", "--depth", "-1"], "--depth must be at least 0"),
])
def test_unusable_flag_values_exit_2_with_one_line(wl, capsys, argv, message):
    # each of these once crashed or passed vacuously
    argv = [a.format(file=wl(DEDUCTION)) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_the_usage_text_names_every_flag_of_each_subcommand():
    # the module docstring is the command line's usage text; one line per
    # subcommand, which must name each of its flags
    usage = {line.split()[1]: line for line in cli.__doc__.splitlines()
             if line.startswith("    adtxn ")}
    subcommands = next(a for a in cli.build_parser()._actions if a.choices)
    assert usage.keys() == subcommands.choices.keys()
    missing = [f"{name} {flag}" for name, parser in subcommands.choices.items()
               for action in parser._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help" and flag not in usage[name]]
    assert missing == []
