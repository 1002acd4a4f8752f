import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import resource
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairdiv
from fairdiv import instances, oracles, serialize
from fairdiv.algorithms import CcgIteration, cut_and_choose_graph_procedure
from fairdiv.cli import CLAIMS, SOLVERS, _parse, build_parser, main
from fairdiv.core import (
    MAX_ITEMS,
    MAX_TABLE_ENTRIES,
    Additive,
    BinaryTable,
    FairnessNotion,
    Instance,
    PairDemand,
    is_monotone,
    mask_of,
)


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one command; argparse's usage
    errors exit through SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.instance_to_doc(inst)))
    return str(path)


def write_allocation(tmp_path, bundles, name="alloc.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.allocation_to_doc(bundles)))
    return str(path)


def test_gen_separation3(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "separation3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["m"] == 6


def test_gen_stars(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "stars", "--n", "3")
    assert code == 0
    assert json.loads(out)["m"] == 5


def test_gen_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["gen", "--kind", "random-bivalued", "--n", "3", "--m", "6",
                 "--seed", "7", "--out", a]) == 0
    assert main(["gen", "--kind", "random-bivalued", "--n", "3", "--m", "6",
                 "--seed", "7", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


# The direct call each generator kind stands for, at --n 2 --m 4 --seed 3.
DIRECT_CALLS = {
    "stars": lambda: instances.gen_nonexistence_stars(2),
    "separation3": instances.gen_separation3,
    "mnw": instances.gen_mnw_counterexample,
    "pmms-not-efx": instances.gen_pmms_not_efx_example,
    "table1": instances.gen_table1_example,
    "random-bivalued": lambda: instances.random_bivalued(2, 4, 3),
    "random-factored-bivalued": lambda: instances.random_bivalued(2, 4, 3, factored=True),
    "random-pair-demand": lambda: instances.random_pair_demand(2, 4, 3),
    "random-binary-mms-feasible": lambda: instances.random_binary_mms_feasible(2, 4, 3),
    "random-binary-additive": lambda: instances.random_binary_additive(2, 4, 3),
    "random-additive": lambda: instances.random_additive(2, 4, 3),
}


@pytest.mark.parametrize("kind", tuple(instances.GENERATORS))
def test_gen_kind_prints_direct_call(capsys, kind):
    code, out, _ = run(capsys, "gen", "--kind", kind, "--n", "2", "--m", "4", "--seed", "3")
    assert code == 0
    assert out == serialize.dumps(serialize.instance_to_doc(DIRECT_CALLS[kind]()))


def run_module(*argv, python_flags=(), env=None, **kwargs):
    """Run ``python -m fairdiv`` in a child process, importing the same
    package as this test run, with ``python_flags`` for the interpreter
    and ``env`` over this process's environment; ``kwargs`` go to
    ``subprocess.run``."""
    env = {**os.environ, **(env or {})}
    root = os.path.dirname(os.path.dirname(fairdiv.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *python_flags, "-m", "fairdiv", *argv], env=env,
                          text=True, timeout=60, **kwargs)


def test_module_entry_point(tmp_path):
    done = run_module("gen", "--kind", "separation3")
    assert done.returncode == 0 and json.loads(done.stdout)["n"] == 3
    done = run_module("solve", "--algo", "maf", "--in", str(tmp_path / "missing.json"))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")


@contextlib.contextmanager
def standard_output(target):
    """A descriptor for a child's standard output that refuses every write:
    /dev/full (ENOSPC), or a pipe whose reading end is closed (EPIPE)."""
    if target == "full":
        with open("/dev/full", "w") as full:
            yield full
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            yield write
        finally:
            os.close(write)


# A failed write to standard output is one "error:" line and exit 2, as a
# failed --out is, whether stdout is buffered (the failure surfaces when the
# command flushes it) or not (when it writes); trace lines take the same write.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("target", ["full", "closed-pipe"])
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["gen", "solve-trace"])
def test_a_failed_write_to_standard_output_exits_2(tmp_path, target, unbuffered, command):
    argv = ["gen", "--kind", "separation3"]
    if command == "solve-trace":
        inst = str(tmp_path / "t1.json")
        assert main(["gen", "--kind", "table1", "--out", inst]) == 0
        argv = ["solve", "--algo", "maf", "--trace", "--in", inst,
                "--out", str(tmp_path / "alloc.json")]
    with standard_output(target) as out:
        done = run_module(*argv, env={"PYTHONUNBUFFERED": unbuffered}, stdout=out)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write standard output: ")
    assert done.stderr.count("\n") == 1


# Help takes the same write: to a full standard output it is one "error:"
# line and exit 2, where argparse's own print lost it (exit 0, or exit 120
# and an "Exception ignored" report from the flush at exit); to a pipe it is
# argparse's help, byte for byte.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["-h"], ["gen", "-h"]], ids=["fairdiv", "gen"])
def test_help_to_a_full_standard_output_exits_2(argv, unbuffered):
    with standard_output("full") as out:
        done = run_module(*argv, env={"PYTHONUNBUFFERED": unbuffered}, stdout=out)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write standard output: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["-h"], ["gen", "-h"]], ids=["fairdiv", "gen"])
def test_help_to_a_pipe_is_argparses_own(monkeypatch, argv, unbuffered):
    monkeypatch.setenv("COLUMNS", "100")  # the child's width too
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected), pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    done = run_module(*argv, env={"PYTHONUNBUFFERED": unbuffered})
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == expected.getvalue() != ""


def test_gen_unknown_kind_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "nope"])
    assert exc.value.code == 2


def test_gen_missing_param_exits_2(capsys):
    code, _, err = run(capsys, "gen", "--kind", "stars")
    assert code == 2 and "requires parameter" in err


def parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr, namespace) of one parse; the exit code is
    None when the parse returns."""
    try:
        code, args = None, vars(parse(list(argv)))
    except SystemExit as exc:
        code, args = exc.code, None
    out = capsys.readouterr()
    return code, out.out, out.err, args


# Each argv parsed by its command's own parser gives what the top-level
# parser gives: the same namespace, or the same help or error and exit code.
@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "separation3"],
    ["gen", "--kind", "random-bivalued", "--n", "3", "--m", "6", "--seed", "7", "--out", "i.json"],
    ["gen", "--kind=stars", "--n=4"],
    ["gen", "--ki", "stars", "--mono", "--non"],
    ["gen", "--kind", "stars", "--n", "3", "--n", "4"],
    ["gen", "--kind", "stars", "--n", "-3"],
    ["solve", "--algo", "maf", "--in", "i.json", "--trace", "--out", "a.json"],
    ["solve", "--algo", "rrr", "--in", "i.json", "--left", "1"],
    ["check", "--notion", "efx+", "--in", "i.json", "--alloc", "a.json"],
    ["verify", "--claim", "no-pmms", "--in", "i.json", "--in", "j.json"],
    ["export-graph", "--in", "i.json", "--kind", "ccg", "--alloc", "a.json", "--agent", "0",
     "--dot", "g.dot"],
    ["gen"],
    ["solve", "--algo", "maf"],
    ["gen", "--kind", "nope"],
    ["gen", "--kind", "stars", "--n", "three"],
    ["gen", "--kind", "stars", "extra"],
    ["gen", "--kind", "stars", "--bogus"],
    ["gen", "--kind", "stars", "-n", "3"],
    ["gen", "--kind", "stars", "--", "extra"],
    ["gen", "--", "--kind", "stars"],
    ["check", "--notion", "pmms", "--in", "i.json", "--alloc", "a.json", "--out"],
    ["export-graph", "--in", "i.json", "--kind", "ccg", "--a", "0"],
    ["-h"],
    ["--help"],
    ["gen", "-h"],
    ["solve", "--kind", "x", "--help"],
    [],
    ["nope"],
    ["ge", "--kind", "stars"],
    ["--", "gen", "--kind", "stars"],
    ["--kind", "stars", "gen"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_a_command_parses_as_the_top_level_parser_parses_it(capsys, argv):
    assert (parse_outcome(capsys, _parse, argv)
            == parse_outcome(capsys, build_parser().parse_args, argv))


PLAIN = build_parser().table


def actions_of(plain):
    """The actions of one command's table, each once, in declaration order."""
    return list(dict.fromkeys(plain.options.values()))


# Each action a command declares is one the table reads right: a plain store
# (nargs None) that sets its dest to the value, or a flag (nargs 0) that sets
# it to its const; and no str default has a type, which argparse would
# convert when the option is absent. An append, a count or a string default
# with a type fails here rather than being misread.
def test_each_command_action_is_a_plain_store_or_a_flag():
    parser = build_parser()
    for plain in PLAIN.values():
        for action in actions_of(plain):
            option = action.option_strings[0]
            namespace = argparse.Namespace()
            if action.nargs is None:
                action(parser, namespace, "v", option)
                assert vars(namespace) == {action.dest: "v"}, option
            else:
                assert action.nargs == 0, option
                action(parser, namespace, [], option)
                assert vars(namespace) == {action.dest: action.const}, option
            assert not (isinstance(action.default, str) and action.type is not None), option


def parse_result(parse, argv):
    """``parse_outcome`` without a fixture, for hypothesis, and with any
    other exception (argparse's on a non-str token) as its type and text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, args = None, vars(parse(list(argv)))
        except SystemExit as exc:
            code, args = exc.code, None
        except Exception as exc:
            code, args = None, (type(exc), str(exc))
    return code, out.getvalue(), err.getvalue(), args


# Values argparse reads in its own way, or refuses, for some option.
ODD_VALUES = ("-1", "-x", "-", "--", "--out", "-h", "nope", "three", "", " 7", "0x1", "1_0", 3, None)
# Tokens no plain argv holds anywhere.
STRAY = ("extra", "--", "-h", "--help", "-n", "--bogus", "--kind=stars", 3, None)


def option_values(action, odd):
    """Values a store option accepts and, if ``odd``, ones it may not."""
    if action.choices is not None:
        good = st.sampled_from(action.choices)
    elif action.type is int:
        good = st.integers(0, 12).map(str)
    else:
        good = st.text("ab. =-", max_size=4).filter(lambda text: not text.startswith("-"))
    return st.one_of(good, good, st.sampled_from(ODD_VALUES)) if odd else good


@st.composite
def option_tokens(draw, action, mode):
    """One option of a command as argv tokens: in its plain form, or, in
    the mixed mode, perhaps in a form the table leaves to argparse."""
    option = action.option_strings[0]
    form = "plain"
    if mode == "mixed":
        form = draw(st.sampled_from(("plain", "=", "abbreviated", "bare")))
    if form == "abbreviated" and len(option) > 3:
        option = option[:draw(st.integers(3, len(option) - 1))]
    if action.nargs == 0:
        if form == "=":
            return [option + "=x"]
        return [option, "x"] if form == "bare" else [option]
    if form == "bare":  # a missing value
        return [option]
    value = draw(option_values(action, odd=mode != "clean"))
    return [f"{option}={value}"] if form == "=" else [option, value]


@st.composite
def argvs(draw):
    """A command, mostly, and some of its options, each required one mostly
    present, in one of three modes: clean (plain forms, accepted values),
    plain (plain forms, any value) or mixed (any form or value, perhaps a
    stray token)."""
    name = draw(st.sampled_from(sorted(PLAIN) * 4 + ["ge", "nope", "--", "-h", 3]))
    actions = actions_of(PLAIN.get(name, PLAIN["gen"]))
    picked = [a for a in actions if a.required and draw(st.integers(0, 5))]
    picked += draw(st.lists(st.sampled_from(actions), max_size=3))
    mode = draw(st.sampled_from(("clean", "plain", "mixed")))
    argv = [name]
    for action in draw(st.permutations(picked)):
        argv += draw(option_tokens(action, mode))
    if mode == "mixed" and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


# What the table reads, argparse reads the same: for argvs drawn from each
# command's option strings, with values each option accepts or refuses and
# every form the table leaves to argparse, both give the same exit code,
# output, error and namespace.
@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(argvs())
def test_the_table_parses_as_argparse_parses(argv):
    assert parse_result(_parse, argv) == parse_result(build_parser().parse_args, argv)


def test_solve_maf_trace_golden(tmp_path, capsys):
    inst_path = str(tmp_path / "t1.json")
    main(["gen", "--kind", "table1", "--out", inst_path])
    capsys.readouterr()
    out_path = str(tmp_path / "alloc.json")
    code, out, _ = run(capsys, "solve", "--algo", "maf", "--in", inst_path,
                       "--trace", "--out", out_path)
    assert code == 0
    golden = (Path(__file__).parent / "data" / "table1_trace.txt").read_text()
    assert out == golden
    doc = json.loads(Path(out_path).read_text())
    assert sorted(itertools.chain.from_iterable(doc["bundles"])) == list(range(18))


def parse_ccg_iteration(line):
    """A CcgIteration from one ``iter=`` line of ``solve --algo ccg --trace``."""
    fields = dict(field.split("=") for field in line.split())
    ints = lambda text: tuple(int(x) for x in text.split(","))
    return int(fields["iter"]), CcgIteration(
        int(fields["s"]), ints(fields["pi"]), ints(fields["walk"]), fields["case"],
        {"0": False, "1": True}[fields["swap"]], int(fields["W"]), int(fields["E"]))


@pytest.mark.parametrize("n,m,seed,cases", [
    (5, 7, 12, ("cycle", "cycle")),
    (4, 7, 12, ("lollipop",)),
], ids=["cycles", "lollipop"])
def test_solve_ccg_trace_round_trips(tmp_path, capsys, n, m, seed, cases):
    inst_path, alloc_path = str(tmp_path / "inst.json"), str(tmp_path / "alloc.json")
    assert main(["gen", "--kind", "random-binary-mms-feasible", "--n", str(n), "--m", str(m),
                 "--seed", str(seed), "--out", inst_path]) == 0
    code, out, _ = run(capsys, "solve", "--algo", "ccg", "--in", inst_path, "--trace",
                       "--out", alloc_path)
    assert code == 0
    inst = serialize.instance_from_doc(json.loads(Path(inst_path).read_text()))
    bundles, trace = cut_and_choose_graph_procedure(inst)
    head, *lines = out.splitlines()
    assert head == f"init W={trace.initial_W} E={trace.initial_E}"
    parsed = [parse_ccg_iteration(line) for line in lines]
    assert [t for t, _ in parsed] == list(range(1, len(trace.iterations) + 1))
    assert tuple(it for _, it in parsed) == trace.iterations
    assert tuple(it.case for it in trace.iterations) == cases
    assert json.loads(Path(alloc_path).read_text()) == serialize.allocation_to_doc(bundles)


def test_solve_rrr_single_agent(tmp_path, capsys):
    inst = Instance(1, 3, (PairDemand.of([3, 1, 2]),))
    path = write_instance(tmp_path, inst)
    code, out, _ = run(capsys, "solve", "--algo", "rrr", "--in", path)
    assert code == 0
    assert json.loads(out)["bundles"] == [[0, 1, 2]]


def test_solve_ccg_infeasible_exits_3(tmp_path, capsys):
    inst = Instance(
        2, 3,
        (BinaryTable(3, frozenset({1})), BinaryTable(3, frozenset({1, 4, 6}))),
        monotone_required=False, normalized_required=False,
    )
    path = write_instance(tmp_path, inst)
    code, _, err = run(capsys, "solve", "--algo", "ccg", "--in", path)
    assert code == 3 and "not MMS-feasible" in err


def test_solve_class_mismatch_exits_2(tmp_path, capsys):
    inst = Instance(2, 2, (Additive.of([1, 1]), Additive.of([1, 1])))
    path = write_instance(tmp_path, inst)
    code, _, err = run(capsys, "solve", "--algo", "maf", "--in", path)
    assert code == 2 and "PersonalizedBivalued" in err


def test_check_pmms_and_efx_exit_codes(tmp_path, capsys):
    v = Additive.of([0, 0, 2])
    inst = Instance(2, 3, (v, v))
    inst_path = write_instance(tmp_path, inst)
    alloc_path = write_allocation(tmp_path, (0b001, 0b110))
    code, out, _ = run(capsys, "check", "--notion", "pmms", "--in", inst_path,
                       "--alloc", alloc_path)
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run(capsys, "check", "--notion", "efx", "--in", inst_path,
                       "--alloc", alloc_path)
    assert code == 1 and json.loads(out)["holds"] is False
    code, out, _ = run(capsys, "check", "--notion", "efx+", "--in", inst_path,
                       "--alloc", alloc_path)
    assert code == 0


@pytest.mark.parametrize("notion", ["pmms", "mms"])
def test_check_reports_partition_witnesses(tmp_path, capsys, notion):
    inst = Instance(3, 5, (Additive.of([3, 1, 2, 2, 1]),) * 3)
    bundles = (0b00010, 0b00101, 0b11000)
    code, out, _ = run(capsys, "check", "--notion", notion,
                       "--in", write_instance(tmp_path, inst),
                       "--alloc", write_allocation(tmp_path, bundles))
    report = oracles.check(inst, bundles, FairnessNotion(notion))
    assert code == 1 and not report.holds
    listed = json.loads(out)["violations"]
    assert [(v["envier"], v["envied"]) for v in listed] == [
        (f.envier, f.envied) for f in report.violations]
    for v, f in zip(listed, report.violations):
        assert all(part == sorted(part) for part in v["witness"])
        assert tuple(mask_of(part) for part in v["witness"]) == f.witness


def test_gen_binary_flags(capsys):
    """--monotone draws monotone tables and --non-normalized lets v(empty) = 1;
    at this seed the default draw has neither. Either way the document asks
    for neither property of the instance."""
    drawn = {}
    for flags in ((), ("--monotone",), ("--non-normalized",)):
        code, out, _ = run(capsys, "gen", "--kind", "random-binary-mms-feasible", "--n", "4",
                           "--m", "4", "--seed", "1", *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["flags"] == {"monotone_required": False, "normalized_required": False}
        drawn[flags] = serialize.instance_from_doc(doc).valuations
    assert not all(is_monotone(v) for v in drawn[()])
    assert all(v.value(0) == 0 for v in drawn[()])
    assert all(is_monotone(v) for v in drawn[("--monotone",)])
    assert any(v.value(0) == 1 for v in drawn[("--non-normalized",)])


def test_verify_mms_feasible(tmp_path, capsys):
    inst = Instance(2, 3, (Additive.of([1, 2, 3]), Additive.of([3, 2, 1])))
    code, out, _ = run(capsys, "verify", "--claim", "mms-feasible",
                       "--in", write_instance(tmp_path, inst))
    assert code == 0
    assert json.loads(out) == {"claim": "mms-feasible", "holds": True, "per_agent": [True, True]}
    # v(S) = 1 iff S holds {0, 1} or {2, 3}: {0, 1, 2, 3} splits into two
    # bundles worth 1 and also into two worth 0
    ones = frozenset(S for S in range(1 << 4) if S & 0b0011 == 0b0011 or S & 0b1100 == 0b1100)
    inst = Instance(2, 4, (Additive.of([1] * 4), BinaryTable(4, ones)))
    code, out, _ = run(capsys, "verify", "--claim", "mms-feasible",
                       "--in", write_instance(tmp_path, inst))
    assert code == 1
    assert json.loads(out) == {"claim": "mms-feasible", "holds": False,
                               "per_agent": [True, False]}


def test_check_feasible_is_not_a_notion(tmp_path, capsys):
    path = write_instance(tmp_path, Instance(1, 1, (Additive.of([1]),)))
    code, out, err = run(capsys, "check", "--notion", "feasible", "--in", path)
    assert code == 2 and out == "" and "invalid choice" in err and "feasible" in err


def test_check_requires_alloc(tmp_path, capsys):
    inst = Instance(1, 1, (Additive.of([1]),))
    path = write_instance(tmp_path, inst)
    code, _, err = run(capsys, "check", "--notion", "efx", "--in", path)
    assert code == 2 and "--alloc" in err


def test_verify_no_pmms_separation(tmp_path, capsys):
    inst_path = str(tmp_path / "sep.json")
    main(["gen", "--kind", "separation3", "--out", inst_path])
    code, out, _ = run(capsys, "verify", "--claim", "no-pmms", "--in", inst_path)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"claim": "no-pmms", "found": None, "holds": True}


def test_verify_efx_exists_separation(tmp_path, capsys):
    # the EFX half of the separation: no PMMS allocation, yet an EFX one
    inst_path = str(tmp_path / "sep.json")
    main(["gen", "--kind", "separation3", "--out", inst_path])
    code, out, _ = run(capsys, "verify", "--claim", "efx-exists", "--in", inst_path)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"claim": "efx-exists", "found": [[0, 1], [2, 3], [4, 5]], "holds": True}


def test_verify_efx_exists_with_many_agents(tmp_path, capsys):
    # the search's recursion is at most m + 1 deep, whatever the number of agents
    inst_path = str(tmp_path / "many.json")
    main(["gen", "--kind", "random-bivalued", "--n", "1000", "--m", "2", "--seed", "1",
          "--out", inst_path])
    code, out, err = run(capsys, "verify", "--claim", "efx-exists", "--in", inst_path)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["holds"] and doc["found"] is not None and len(doc["found"]) == 1000


def test_verify_mnw(tmp_path, capsys):
    inst_path = str(tmp_path / "mnw.json")
    main(["gen", "--kind", "mnw", "--out", inst_path])
    code, out, _ = run(capsys, "verify", "--claim", "mnw-not-efx", "--in", inst_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_nash_welfare"] == 25
    assert len(doc["maximizers"]) == 2


def test_verify_mnw_decides_without_building_reports(tmp_path, capsys, monkeypatch):
    # EFX is decided for each maximizer by allocation_satisfies, which builds
    # no witness; the documents are pinned, with every maximizer listed
    def no_report(*args):
        raise AssertionError("mnw-not-efx built a fairness report")

    monkeypatch.setattr(oracles, "check", no_report)
    mnw_path = str(tmp_path / "mnw.json")
    main(["gen", "--kind", "mnw", "--out", mnw_path])
    code, out, err = run(capsys, "verify", "--claim", "mnw-not-efx", "--in", mnw_path)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"claim": "mnw-not-efx", "holds": True, "max_nash_welfare": 25,
                               "maximizers": [[[0], [1, 2, 3]], [[1], [0, 2, 3]]]}
    # one agent values nothing, so all 27 allocations maximize the product 0,
    # and some of them are EFX
    zero = Instance(3, 3, (Additive.of([1, 3, 0]), Additive.of([0, 3, 1]), Additive.of([0, 0, 0])))
    code, out, err = run(capsys, "verify", "--claim", "mnw-not-efx",
                         "--in", write_instance(tmp_path, zero, "zero.json"))
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert (doc["holds"], doc["max_nash_welfare"], len(doc["maximizers"])) == (False, 0, 27)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8a04e0d2b741fb2de1aa2f3821cdb59db77ab4281fa2ab0c4fca6c3f171e36ff")


def test_verify_budget_exceeded_exits_3(tmp_path, capsys, monkeypatch):
    inst_path = str(tmp_path / "sep.json")
    main(["gen", "--kind", "separation3", "--out", inst_path])
    monkeypatch.setenv("FAIRDIV_BUDGET", "10")
    code, _, err = run(capsys, "verify", "--claim", "no-pmms", "--in", inst_path)
    assert code == 3 and "budget" in err


# 5000 nines are decimal, but more digits than int() reads
@pytest.mark.parametrize("budget", ["abc", "-1", "1.5",
                                    pytest.param("9" * 5000, id="5000-nines")])
def test_malformed_budget_exits_2(tmp_path, capsys, monkeypatch, budget):
    inst = Instance(2, 3, (Additive.of([0, 0, 2]),) * 2)
    inst_path = write_instance(tmp_path, inst)
    alloc_path = write_allocation(tmp_path, (0b001, 0b110))
    monkeypatch.setenv("FAIRDIV_BUDGET", budget)
    code, _, err = run(capsys, "check", "--notion", "pmms", "--in", inst_path,
                       "--alloc", alloc_path)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: FAIRDIV_BUDGET")


def write_ccg_inputs(tmp_path):
    """A binary MMS-feasible instance and its round-robin allocation; each
    PMMS envy test on it enumerates 2^2 splits."""
    ones = frozenset(range(1, 1 << 3))
    inst = Instance(3, 3, (BinaryTable(3, ones),) * 3, monotone_required=False)
    return {"inst": write_instance(tmp_path, inst),
            "alloc": write_allocation(tmp_path, (0b001, 0b010, 0b100))}


CCG_COMMANDS = {
    "solve": ["solve", "--algo", "ccg", "--in", "{inst}"],
    "export-graph": ["export-graph", "--in", "{inst}", "--kind", "ccg", "--alloc", "{alloc}",
                     "--agent", "0"],
    "check": ["check", "--notion", "pmms", "--in", "{inst}", "--alloc", "{alloc}"],
}


# A cap of 0 is a cap, not an unset budget. The cap holds for the one
# command: after main returns, the caller's cap is back.
@pytest.mark.parametrize("budget", ["0", "1"])
@pytest.mark.parametrize("command", list(CCG_COMMANDS))
def test_budget_caps_every_command(tmp_path, capsys, monkeypatch, command, budget):
    paths = write_ccg_inputs(tmp_path)
    monkeypatch.setenv("FAIRDIV_BUDGET", budget)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in CCG_COMMANDS[command]))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "budget" in err
    assert oracles.BUDGET.get() == oracles.DEFAULT_BUDGET


# A check under the default cap leaves no share behind that a later check
# under a smaller cap could use uncharged.
def test_pmms_check_after_a_default_run_obeys_a_small_cap(tmp_path, capsys, monkeypatch):
    paths = write_ccg_inputs(tmp_path)
    argv = [arg.format(**paths) for arg in CCG_COMMANDS["check"]]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv("FAIRDIV_BUDGET", "3")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: enumeration of size 2^2 exceeds budget 3\n"


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "separation3"],
    CCG_COMMANDS["solve"],
    CCG_COMMANDS["export-graph"],
], ids=["gen", "solve", "export-graph"])
def test_malformed_budget_exits_2_in_every_command(tmp_path, capsys, monkeypatch, argv):
    paths = write_ccg_inputs(tmp_path)
    monkeypatch.setenv("FAIRDIV_BUDGET", "abc")
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: FAIRDIV_BUDGET")


def test_gen_feasibility_check_obeys_the_cap(capsys, monkeypatch):
    # each draw's MMS-feasibility check enumerates 3^4 = 81 splits
    argv = ["gen", "--kind", "random-binary-mms-feasible", "--n", "1", "--m", "4"]
    monkeypatch.setenv("FAIRDIV_BUDGET", "80")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "budget 80" in err
    monkeypatch.setenv("FAIRDIV_BUDGET", "81")
    assert run(capsys, *argv)[0] == 0


def test_gen_over_feasibility_budget_exits_3(capsys):
    # at 17 items a draw's check enumerates 3^17 splits, over the default budget
    code, out, err = run(capsys, "gen", "--kind", "random-binary-mms-feasible", "--n", "1",
                         "--m", "17", "--seed", "1")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "budget" in err


# Stars n = 7 has 11 items: each fair share walks at most the 665,479
# partitions into at most 7 parts, charged that count, not 7^11, so the
# check runs under the default budget. The stated MMS allocation gives the
# five stars to agents 0-4, then agent 5's special split of the commons.
def test_check_mms_on_stars_7_runs_under_the_default_budget(tmp_path, capsys):
    inst_path = str(tmp_path / "stars7.json")
    assert main(["gen", "--kind", "stars", "--n", "7", "--out", inst_path]) == 0
    A, B = mask_of([5, 7, 9]), mask_of([6, 8, 10])
    assert instances.gen_nonexistence_stars(7).valuations[5].value(A) == 4  # k + 1
    alloc_path = write_allocation(tmp_path, (1, 2, 4, 8, 16, A, B))
    code, out, err = run(capsys, "check", "--notion", "mms", "--in", inst_path,
                         "--alloc", alloc_path)
    assert (code, err) == (0, "") and json.loads(out)["holds"] is True


# The pair-demand and bivalued share values are closed forms that enumerate
# no splits, so checking a 30-item pair costs nothing against the budget.
@pytest.mark.parametrize("kind,algo", [("random-factored-bivalued", "maf"),
                                       ("random-pair-demand", "rrr")])
def test_closed_form_pmms_check_is_not_charged(tmp_path, capsys, kind, algo):
    inst_path, alloc_path = str(tmp_path / "inst.json"), str(tmp_path / "alloc.json")
    assert main(["gen", "--kind", kind, "--n", "2", "--m", "30", "--seed", "1",
                 "--out", inst_path]) == 0
    assert main(["solve", "--algo", algo, "--in", inst_path, "--out", alloc_path]) == 0
    code, out, _ = run(capsys, "check", "--notion", "pmms", "--in", inst_path,
                       "--alloc", alloc_path)
    assert code == 0 and json.loads(out)["holds"] is True


PAIR_DEMAND = Instance(2, 3, (PairDemand.of([1, 2, 3]),) * 2)
PAIR_DEMAND_DOC = serialize.instance_to_doc(PAIR_DEMAND)

# Documents that parse as JSON but are not an instance or an allocation.
MALFORMED_DOCS = {
    "partial": {"n": 1},
    "zero-denominator": {**PAIR_DEMAND_DOC, "valuations": [
        {"type": "pair_demand", "values": ["1/0", 2, 3]}] * 2},
    "list-doc": [PAIR_DEMAND_DOC],
    "list-flags": {**PAIR_DEMAND_DOC, "flags": []},
    "float-n": {**PAIR_DEMAND_DOC, "n": 2.0},
    "float-m": {**PAIR_DEMAND_DOC, "m": 3.0},
    # with one valuation, n = true would load as one agent
    "bool-n": {**serialize.instance_to_doc(Instance(1, 3, (PairDemand.of([1, 2, 3]),))),
               "n": True},
    "bool-item": {"bundles": [[0, 2], [True]]},  # true would load as item 1
    "list-alloc": [[0, 2], [1]],
    # each would load: true as mask 1 (and dump back as true), a string as
    # one label per character, and "no" as a truthy flag
    "bool-mask": {"n": 1, "m": 1,
                  "valuations": [{"type": "binary_table", "m": 1, "ones": [True]}]},
    "string-labels": {**PAIR_DEMAND_DOC, "labels": "abc"},
    "string-flag": {**PAIR_DEMAND_DOC, "flags": {"monotone_required": "no"}},
    # each would load: a string as one item per character, and an object's
    # keys as the values
    "string-values": {"n": 1, "m": 3, "valuations": [{"type": "additive", "values": "123"}]},
    "string-table": {"n": 1, "m": 2, "valuations": [{"type": "table", "table": "0123"}]},
    "object-values": {"n": 1, "m": 2,
                      "valuations": [{"type": "additive", "values": {"4": 0, "5": 1}}]},
    # values of 4000 digits load, but their Nash welfare has 8000, past
    # the digits Python will print
    "huge-values": {"n": 2, "m": 2, "valuations": [
        {"type": "additive", "values": [int("9" * 4000)] * 2}] * 2},
}


# Documents that are not JSON Python can parse, as raw text.
MALFORMED_TEXTS = {
    # nested past the interpreter's recursion limit
    "deep-nesting": "[" * 200000 + "]" * 200000,
}


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "--notion", "efx", "--in", "{absent}", "--alloc", "{alloc}"],
                 id="check-no-file"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{deep-nesting}"],
                 id="deep-nesting"),
    pytest.param(["solve", "--algo", "rrr", "--in", "{absent}"], id="solve-no-file"),
    pytest.param(["verify", "--claim", "no-pmms", "--in", "{absent}"], id="verify-no-file"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{partial}"], id="missing-key"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{zero-denominator}"],
                 id="zero-denominator"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{list-doc}"], id="list-document"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{list-flags}"], id="list-flags"),
    pytest.param(["check", "--notion", "efx", "--in", "{float-n}", "--alloc", "{alloc}"],
                 id="float-n-check"),
    pytest.param(["solve", "--algo", "rrr", "--in", "{float-n}"], id="float-n-solve"),
    pytest.param(["verify", "--claim", "no-pmms", "--in", "{float-n}"], id="float-n-verify"),
    pytest.param(["export-graph", "--in", "{float-m}", "--kind", "compat"], id="float-m-export"),
    pytest.param(["check", "--notion", "efx", "--in", "{float-m}", "--alloc", "{alloc}"],
                 id="float-m-check"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{bool-n}"], id="bool-n"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{bool-mask}"], id="bool-mask"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{string-labels}"],
                 id="string-labels"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{string-flag}"], id="string-flag"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{string-values}"],
                 id="string-values"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{string-table}"],
                 id="string-table"),
    pytest.param(["verify", "--claim", "mms-feasible", "--in", "{object-values}"],
                 id="object-values"),
    pytest.param(["verify", "--claim", "mnw-not-efx", "--in", "{huge-values}"],
                 id="huge-values"),
    pytest.param(["check", "--notion", "efx", "--in", "{inst}", "--alloc", "{bool-item}"],
                 id="bool-item"),
    pytest.param(["check", "--notion", "efx", "--in", "{inst}", "--alloc", "{list-alloc}"],
                 id="list-allocation"),
    pytest.param(["check", "--notion", "efx", "--in", "{inst}", "--alloc", "{overlap}"],
                 id="overlapping-alloc"),
    pytest.param(["solve", "--algo", "rrr", "--in", "{inst}", "--leftover-agent", "9"],
                 id="leftover-agent"),
    pytest.param(["export-graph", "--in", "{inst}", "--kind", "ccg", "--alloc", "{alloc}",
                  "--agent", "9"], id="export-agent"),
    # tables over MAX_TABLE_ITEMS are refused before any entry is built
    pytest.param(["gen", "--kind", "stars", "--n", "19"], id="stars-over-cap"),
    pytest.param(["gen", "--kind", "random-binary-mms-feasible", "--n", "1", "--m", "25",
                  "--seed", "1"], id="binary-over-cap"),
    # ... and so are instances whose n tables of 2^m entries total over
    # MAX_TABLE_ENTRIES: 11 * 2^17 and 2 * 2^20 entries here
    pytest.param(["gen", "--kind", "stars", "--n", "11"], id="stars-over-entry-cap"),
    pytest.param(["gen", "--kind", "random-binary-mms-feasible", "--n", "2", "--m", "20",
                  "--seed", "1"], id="binary-over-entry-cap"),
    pytest.param(["gen", "--kind", "separation3", "--out", "{unwritable}"], id="gen-out-dir"),
    pytest.param(["export-graph", "--in", "{inst}", "--kind", "compat", "--dot",
                  "{unwritable}"], id="export-dot-dir"),
    pytest.param(["gen", "--kind", "separation3", "--out", "{dir}"], id="gen-out-is-a-dir"),
    # an empty path names no file; stdout is for an absent flag only
    pytest.param(["gen", "--kind", "separation3", "--out", ""], id="gen-out-empty"),
    pytest.param(["export-graph", "--in", "{inst}", "--kind", "compat", "--dot", ""],
                 id="export-dot-empty"),
])
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    paths = {}
    for name, doc in MALFORMED_DOCS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    for name, text in MALFORMED_TEXTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    paths |= {
        "absent": str(tmp_path / "absent.json"),
        "inst": write_instance(tmp_path, PAIR_DEMAND),
        "overlap": write_allocation(tmp_path, (0b011, 0b110), "overlap.json"),
        "alloc": write_allocation(tmp_path, (0b001, 0b110)),
        "unwritable": str(tmp_path / "absent-dir" / "out.txt"),
        "dir": str(tmp_path),
    }
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


# Every command that writes a file, with its output flag last.
WRITERS = {
    "gen": ["gen", "--kind", "random-pair-demand", "--n", "2", "--m", "4", "--seed", "3",
            "--out"],
    "solve": ["solve", "--algo", "rrr", "--in", "{inst}", "--out"],
    "check": ["check", "--notion", "pmms", "--in", "{inst}", "--alloc", "{alloc}", "--out"],
    "verify": ["verify", "--claim", "efx-exists", "--in", "{inst}", "--out"],
    "export-graph": ["export-graph", "--in", "{inst}", "--kind", "compat", "--dot"],
}


# An output path that holds a file is rewritten in place and cut to the
# new length, so what is left is exactly what a write into an empty
# directory gives, whatever the old file's length.
@pytest.mark.parametrize("old_size", ["longer", "same", "shorter"])
@pytest.mark.parametrize("command", list(WRITERS))
def test_rewritten_output_equals_a_fresh_write(tmp_path, command, old_size):
    inputs = {"inst": write_instance(tmp_path, PAIR_DEMAND),
              "alloc": write_allocation(tmp_path, (0b011, 0b100))}
    argv = [arg.format(**inputs) for arg in WRITERS[command]]
    fresh = tmp_path / "empty" / "out"
    fresh.parent.mkdir()
    code = main([*argv, str(fresh)])
    expected = fresh.read_bytes()
    target = tmp_path / "out"
    size = {"longer": 1 << 16, "same": len(expected), "shorter": len(expected) // 2}[old_size]
    target.write_bytes(b"x" * size)
    assert main([*argv, str(target)]) == code
    assert target.read_bytes() == expected


# Every mode of every command, with its output flag last: each gen kind,
# solve algorithm, check notion and verify claim, and both export-graph kinds.
SOLVE_INPUTS = {"maf": "{bivalued}", "ccg": "{binary}", "rrr": "{pair_demand}"}
MODES = {
    **{f"gen-{kind}": ["gen", "--kind", kind, "--n", "2", "--m", "4", "--seed", "3", "--out"]
       for kind in instances.GENERATORS},
    **{f"solve-{algo}": ["solve", "--algo", algo, "--in", SOLVE_INPUTS[algo], "--out"]
       for algo in SOLVERS},
    **{f"check-{notion.value}": ["check", "--notion", notion.value, "--in", "{additive}",
                                 "--alloc", "{additive_alloc}", "--out"]
       for notion in FairnessNotion},
    **{f"verify-{claim}": ["verify", "--claim", claim, "--in", "{separation3}", "--out"]
       for claim in CLAIMS},
    "export-graph-compat": ["export-graph", "--in", "{separation3}", "--kind", "compat", "--dot"],
    "export-graph-ccg": ["export-graph", "--in", "{binary}", "--kind", "ccg",
                         "--alloc", "{binary_alloc}", "--agent", "0", "--dot"],
}


# A document depends on the command's inputs alone: two writes give the
# same bytes even under a clock that moves on by a different amount at
# every reading.
@pytest.mark.parametrize("mode", list(MODES))
def test_every_document_is_a_function_of_its_inputs(tmp_path, monkeypatch, mode):
    binary = write_ccg_inputs(tmp_path)
    additive = Instance(2, 3, (Additive.of([0, 0, 2]),) * 2)
    inputs = {
        "bivalued": write_instance(tmp_path, instances.random_bivalued(3, 6, 1), "bivalued.json"),
        "binary": binary["inst"],
        "binary_alloc": binary["alloc"],
        "pair_demand": write_instance(tmp_path, PAIR_DEMAND, "pair-demand.json"),
        "additive": write_instance(tmp_path, additive, "additive.json"),
        "additive_alloc": write_allocation(tmp_path, (0b001, 0b110), "additive-alloc.json"),
        "separation3": write_instance(tmp_path, instances.gen_separation3(), "sep.json"),
    }
    readings = itertools.accumulate(itertools.count(1))
    for name in ("monotonic", "perf_counter", "time"):
        monkeypatch.setattr(time, name, lambda: next(readings))
    argv = [arg.format(**inputs) for arg in MODES[mode]]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, str(first)]) == main([*argv, str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_out_dev_null_exits_0(capsys):
    assert run(capsys, "gen", "--kind", "mnw", "--out", os.devnull) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_out_fifo_receives_the_whole_document(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = main(["gen", "--kind", "mnw", "--out", str(fifo)])
    reader.join(timeout=30)
    fresh = tmp_path / "fresh.json"
    main(["gen", "--kind", "mnw", "--out", str(fresh)])
    assert code == 0 and received == [fresh.read_bytes()]


def test_new_output_has_the_mode_open_gives(tmp_path):
    previous = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert main(["gen", "--kind", "mnw", "--out", str(tmp_path / "made.json")]) == 0
    finally:
        os.umask(previous)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain", "made.json")}
    assert modes == {0o666 & ~0o027}


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# An item index of 10^12 would set bit 10^12 (a 125 GB mask) if it were not
# bounded by the item count first; the child runs under a 1 GB address
# space, so a regression fails fast instead of exhausting the host.
@pytest.mark.parametrize("where", ["allocation", "high_items"])
def test_huge_item_index_exits_2(tmp_path, where):
    huge = 10**12
    if where == "allocation":
        inst_path = write_instance(tmp_path, PAIR_DEMAND)
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text(json.dumps({"bundles": [[0], [huge]]}))
        argv = ["check", "--notion", "efx", "--in", inst_path, "--alloc", str(alloc_path)]
    else:
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps({"n": 1, "m": 3, "valuations": [
            {"type": "personalized_bivalued", "a": 2, "b": 1, "high_items": [huge], "m": 3}]}))
        argv = ["verify", "--claim", "mms-feasible", "--in", str(inst_path)]
    done = run_module(*argv, preexec_fn=_limit_address_space)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
    assert str(huge) in done.stderr


def _bivalued_doc(n, m, high_items=(0,)):
    return {"n": n, "m": m, "valuations": [{"type": "personalized_bivalued", "a": 2, "b": 1,
                                            "high_items": list(high_items), "m": m}] * n}


# A bivalued document carries no table, so only its m says how large the
# masks built from it get: an m past MAX_ITEMS is refused before any is
# built. Under the child's 1 GB address space, m = 10^12 was a MemoryError
# (full_mask in match_and_freeze and validate_allocation, the high_items
# mask), a 4000-digit m a ValueError from printing a budget size, and a
# generator's m = 10^12 an OverflowError from drawing its high items.
@pytest.mark.parametrize("argv,doc", [
    (["check", "--notion", "efx", "--alloc", "{alloc}"], _bivalued_doc(2, 10**12)),
    (["solve", "--algo", "maf"], _bivalued_doc(2, 10**12)),
    (["verify", "--claim", "mms-feasible"], _bivalued_doc(1, 10**12, [10**11])),
    (["export-graph", "--kind", "compat"], _bivalued_doc(2, int("9" * 4000))),
    (["gen", "--kind", "random-bivalued", "--n", "1", "--m", str(10**12)], None),
], ids=["check-efx", "solve-maf", "verify-mms-feasible", "export-compat", "gen"])
def test_huge_item_count_exits_2(tmp_path, argv, doc):
    alloc_path = write_allocation(tmp_path, (0b01, 0b10))
    argv = [arg.format(alloc=alloc_path) for arg in argv]
    if doc is not None:
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(doc))
        argv += ["--in", str(inst_path)]
    done = run_module(*argv, preexec_fn=_limit_address_space)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: ") and f"m must be in 0..{MAX_ITEMS}" in done.stderr


# A document's tables are capped as gen caps them, before any is built:
# 64 binary tables over 24 items (16 MB each) from a 3 KB document died in
# a MemoryError traceback and exit 1 under the child's 1 GB address space,
# and 16 of them, from 855 bytes, ran past 120 s without an answer.
@pytest.mark.parametrize("n", [64, 16])
def test_document_tables_over_the_entry_cap_exit_2(tmp_path, n):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"n": n, "m": 24, "valuations": [
        {"type": "binary_table", "m": 24, "ones": []}] * n}))
    done = run_module("verify", "--claim", "mms-feasible", "--in", str(inst_path),
                      preexec_fn=_limit_address_space)
    gen = run_module("gen", "--kind", "random-binary-mms-feasible", "--n", str(n), "--m", "24")
    cap = f"{n} binary tables over 24 items exceed the cap of {MAX_TABLE_ENTRIES} entries"
    assert gen.returncode == 2 and gen.stderr == f"error: {cap}\n"
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: invalid instance document {str(inst_path)!r}: {cap}\n"


# A cap that admits the EFX search of 2 agents over 1,200 items (2^1200
# allocations) would let it recurse 1,201 calls deep: it is refused with
# exit 3 and one line, where a RecursionError traceback exited 1.
def test_a_search_too_deep_for_the_stack_exits_3(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_bivalued_doc(2, 1200)))
    done = run_module("verify", "--claim", "efx-exists", "--in", str(inst_path),
                      env={"FAIRDIV_BUDGET": str(10**400)})
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("error: search depth 1201 exceeds ")
    assert done.stderr.count("\n") == 1


# A generator's n is bounded like its m, before anything is drawn: at
# n = 10^12 the additive generator drew valuations until it was killed.
@pytest.mark.parametrize("n", ["0", str(10**12)])
def test_gen_agent_count_out_of_range_exits_2(n):
    done = run_module("gen", "--kind", "random-additive", "--n", n, "--m", "1",
                      preexec_fn=_limit_address_space)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: n must be in 1..{MAX_ITEMS}, got {n}\n"


# n and m each within 1..MAX_ITEMS can still ask for 2^32 item values: a
# random kind is refused past MAX_TABLE_ENTRIES values, before any is drawn.
@pytest.mark.parametrize("kind,n,m", [
    ("random-additive", 65536, 65536),
    ("random-bivalued", 1025, 1024),
    ("random-pair-demand", 17, 65536),
], ids=["additive-2^32", "bivalued-just-over", "pair-demand-17-agents"])
def test_gen_value_count_over_cap_exits_2(kind, n, m):
    done = run_module("gen", "--kind", kind, "--n", str(n), "--m", str(m),
                      preexec_fn=_limit_address_space)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: n * m must be at most {MAX_TABLE_ENTRIES}, got {n * m}\n"


# Bivalued documents within MAX_ITEMS carry no table, so no table cap
# applies: the budget alone refuses these, at once, with one line.
# 3^10000 and 2^15000 are past the 4300 digits Python will print, and the
# compatibility graph of 2 agents over 200 items has C(2 * C(200, 2), 2)
# node pairs.
@pytest.mark.parametrize("n,m,argv,size", [
    (1, 10_000, ["verify", "--claim", "mms-feasible"], "3^10000"),
    (2, 15_000, ["verify", "--claim", "no-pmms"], "2^15000"),
    (2, 200, ["export-graph", "--kind", "compat"], "792000100"),
], ids=["feasible", "no-pmms", "compat"])
def test_oversized_enumeration_exits_3(tmp_path, capsys, n, m, argv, size):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_bivalued_doc(n, m)))
    code, out, err = run(capsys, *argv, "--in", str(inst_path))
    assert code == 3 and out == ""
    assert err == f"error: enumeration of size {size} exceeds budget {oracles.DEFAULT_BUDGET}\n"


def test_verify_triangle_found_exits_1(tmp_path, capsys):
    inst_path = write_instance(tmp_path, Instance(3, 6, (Additive.of([1] * 6),) * 3))
    code, out, _ = run(capsys, "verify", "--claim", "triangle-free", "--in", inst_path)
    doc = json.loads(out)
    assert code == 1
    assert doc["triangle"] is True and doc["holds"] is False and doc["edges"] == 270


def _parse_dot_edges(text):
    edges = []
    for line in text.splitlines():
        if " -- " in line:
            left, right = line.strip().rstrip(";").split(" -- ")
            edges.append((left, right))
    return edges


def test_export_compat_dot_triangle_free(tmp_path, capsys):
    inst_path = str(tmp_path / "sep.json")
    dot_path = str(tmp_path / "sep.dot")
    main(["gen", "--kind", "separation3", "--out", inst_path])
    assert main(["export-graph", "--in", inst_path, "--kind", "compat",
                 "--dot", dot_path]) == 0
    text = Path(dot_path).read_text()
    assert text.startswith("graph compat {") and text.rstrip().endswith("}")
    edges = _parse_dot_edges(text)
    assert len(edges) == 93
    adj = {}
    for u, w in edges:
        adj.setdefault(u, set()).add(w)
        adj.setdefault(w, set()).add(u)
    agent = lambda node: node.split("_")[0]
    for u, w in edges:
        for x in adj[u] & adj[w]:
            assert len({agent(u), agent(w), agent(x)}) < 3, "triangle found"


def test_separation3_compat_graph_is_pinned(tmp_path, capsys):
    # 9 of the 45 (agent, pair) nodes have no edge and are left out of both
    inst_path = str(tmp_path / "sep.json")
    main(["gen", "--kind", "separation3", "--out", inst_path])
    code, out, _ = run(capsys, "verify", "--claim", "triangle-free", "--in", inst_path)
    doc = json.loads(out)
    assert code == 0
    assert (doc["nodes"], doc["edges"], doc["triangle"], doc["holds"]) == (36, 93, False, True)
    code, out, _ = run(capsys, "export-graph", "--in", inst_path, "--kind", "compat")
    assert code == 0
    assert sum("[label=" in line for line in out.splitlines()) == 36
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2e47a0cf1d57d32a554ab5f4aa7f16c8c0d1256656a235093e20fe4f7b5f91f3")


def test_export_compat_escapes_labels(tmp_path, capsys):
    inst = Instance(2, 4, (Additive.of([1] * 4),) * 2, labels=('a"b', "c\\", "d", "e"))
    inst_path = write_instance(tmp_path, inst)
    code, out, _ = run(capsys, "export-graph", "--in", inst_path, "--kind", "compat")
    assert code == 0
    nodes = [line for line in out.splitlines() if "[label=" in line]
    assert nodes
    # one quoted string per label: quotes and backslashes inside it escaped
    quoted = r'"(?:[^"\\]|\\.)*"'
    for line in nodes:
        assert re.fullmatch(rf"  a\d+_\d+ \[label={quoted}, color=\w+\];", line), line
    assert '[label="0:{a\\"b,c\\\\}", color=red];' in out


# The C locale with neither locale coercion nor UTF-8 mode: the standard
# streams and the locale's default file encoding are ASCII.
ASCII_LOCALE = {"python_flags": ("-X", "utf8=0"),
                "env": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": ""}}


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path, capsys):
    inst = Instance(2, 4, (Additive.of([1] * 4),) * 2, labels=("é", "b", "ç", "d"))
    inst_path = write_instance(tmp_path, inst)
    argv = ("export-graph", "--in", inst_path, "--kind", "compat")
    code, dot, _ = run(capsys, *argv)
    assert code == 0 and "é" in dot
    # a file gets the text as UTF-8, whatever the locale
    done = run_module(*argv, "--dot", str(tmp_path / "compat.dot"), **ASCII_LOCALE)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert (tmp_path / "compat.dot").read_bytes() == dot.encode("utf-8")
    # a stream that cannot take the text refuses all of it, with one line
    done = run_module(*argv, **ASCII_LOCALE)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
    # an instance document is ASCII, so the stream takes it byte for byte
    done = run_module("gen", "--kind", "separation3", **ASCII_LOCALE)
    code, doc, _ = run(capsys, "gen", "--kind", "separation3")
    assert done.returncode == code == 0 and done.stdout == doc and doc.isascii()
    assert serialize.dumps(serialize.instance_to_doc(inst)).isascii()


def test_export_compat_empty_body(tmp_path, capsys):
    # with m = 2 no two disjoint pairs exist, so the graph has no edges
    inst = Instance(2, 2, (Additive.of([1, 1]), Additive.of([1, 1])))
    inst_path = write_instance(tmp_path, inst)
    code, out, _ = run(capsys, "export-graph", "--in", inst_path, "--kind", "compat")
    assert code == 0
    assert out.strip() == "graph compat {\n}"


def test_export_ccg_one_out_edge_per_agent(tmp_path, capsys):
    ones = {mask for mask in range(1, 1 << 3)}
    inst = Instance(3, 3, (BinaryTable(3, frozenset(ones)),) * 3,
                    monotone_required=False)
    inst_path = write_instance(tmp_path, inst)
    alloc_path = write_allocation(tmp_path, (0b001, 0b010, 0b100))
    code, out, _ = run(capsys, "export-graph", "--in", inst_path, "--kind", "ccg",
                       "--alloc", alloc_path, "--agent", "0")
    assert code == 0
    arrows = [line for line in out.splitlines() if " -> " in line]
    assert len(arrows) == 3
    sources = [line.strip().split(" -> ")[0] for line in arrows]
    assert sorted(sources) == ["a0", "a1", "a2"]


def test_export_ccg_requires_alloc_and_agent(tmp_path, capsys):
    inst = Instance(1, 1, (BinaryTable(1, frozenset({1})),))
    inst_path = write_instance(tmp_path, inst)
    code, _, err = run(capsys, "export-graph", "--in", inst_path, "--kind", "ccg")
    assert code == 2 and "--alloc" in err


@pytest.mark.parametrize("kind", ["compat", "ccg"])
def test_export_budget_exceeded_exits_3(tmp_path, capsys, monkeypatch, kind):
    if kind == "compat":
        # every fair share in separation3's compatibility graph enumerates 2^4 splits
        inst_path = str(tmp_path / "sep.json")
        main(["gen", "--kind", "separation3", "--out", inst_path])
        monkeypatch.setenv("FAIRDIV_BUDGET", "1")
        argv = ["export-graph", "--in", inst_path, "--kind", "compat"]
    else:
        # the PMMS share of all 28 items enumerates 2^28 splits, past the default budget
        inst_path = str(tmp_path / "additive.json")
        main(["gen", "--kind", "random-additive", "--n", "2", "--m", "28", "--out", inst_path])
        alloc_path = write_allocation(tmp_path, ((1 << 28) - 1, 0))
        argv = ["export-graph", "--in", inst_path, "--kind", "ccg",
                "--alloc", alloc_path, "--agent", "0"]
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "budget" in err
