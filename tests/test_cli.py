import itertools
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fairdiv
from fairdiv import instances, oracles, serialize
from fairdiv.algorithms import CcgIteration, cut_and_choose_graph_procedure
from fairdiv.cli import main
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
    code = main(list(argv))
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


def run_module(*argv, **kwargs):
    """Run ``python -m fairdiv`` in a child process, importing the same
    package as this test run; ``kwargs`` go to ``subprocess.run``."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(fairdiv.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fairdiv", *argv], env=env,
                          capture_output=True, text=True, timeout=60, **kwargs)


def test_module_entry_point(tmp_path):
    done = run_module("gen", "--kind", "separation3")
    assert done.returncode == 0 and json.loads(done.stdout)["n"] == 3
    done = run_module("solve", "--algo", "maf", "--in", str(tmp_path / "missing.json"))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")


def test_gen_unknown_kind_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "nope"])
    assert exc.value.code == 2


def test_gen_missing_param_exits_2(capsys):
    code, _, err = run(capsys, "gen", "--kind", "stars")
    assert code == 2 and "requires parameter" in err


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


def test_check_feasible_additive(tmp_path, capsys):
    inst = Instance(2, 3, (Additive.of([1, 2, 3]), Additive.of([3, 2, 1])))
    path = write_instance(tmp_path, inst)
    code, out, _ = run(capsys, "check", "--notion", "feasible", "--in", path)
    assert code == 0 and json.loads(out)["holds"] is True


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
    assert doc["scanned"] == 729 and doc["found"] is None and doc["holds"]


def test_verify_efx_exists_separation(tmp_path, capsys):
    # the EFX half of the separation: no PMMS allocation, yet an EFX one
    inst_path = str(tmp_path / "sep.json")
    main(["gen", "--kind", "separation3", "--out", inst_path])
    code, out, _ = run(capsys, "verify", "--claim", "efx-exists", "--in", inst_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["scanned"] == 729 and doc["found"] == [[0, 1], [2, 3], [4, 5]] and doc["holds"]


def test_verify_mnw(tmp_path, capsys):
    inst_path = str(tmp_path / "mnw.json")
    main(["gen", "--kind", "mnw", "--out", inst_path])
    code, out, _ = run(capsys, "verify", "--claim", "mnw-not-efx", "--in", inst_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_nash_welfare"] == 25
    assert len(doc["maximizers"]) == 2


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
    pytest.param(["check", "--notion", "feasible", "--in", "{absent}"], id="check-no-file"),
    pytest.param(["check", "--notion", "feasible", "--in", "{deep-nesting}"],
                 id="deep-nesting"),
    pytest.param(["solve", "--algo", "rrr", "--in", "{absent}"], id="solve-no-file"),
    pytest.param(["verify", "--claim", "no-pmms", "--in", "{absent}"], id="verify-no-file"),
    pytest.param(["check", "--notion", "feasible", "--in", "{partial}"], id="missing-key"),
    pytest.param(["check", "--notion", "feasible", "--in", "{zero-denominator}"],
                 id="zero-denominator"),
    pytest.param(["check", "--notion", "feasible", "--in", "{list-doc}"], id="list-document"),
    pytest.param(["check", "--notion", "feasible", "--in", "{list-flags}"], id="list-flags"),
    pytest.param(["check", "--notion", "feasible", "--in", "{float-n}"], id="float-n-check"),
    pytest.param(["solve", "--algo", "rrr", "--in", "{float-n}"], id="float-n-solve"),
    pytest.param(["verify", "--claim", "no-pmms", "--in", "{float-n}"], id="float-n-verify"),
    pytest.param(["export-graph", "--in", "{float-m}", "--kind", "compat"], id="float-m-export"),
    pytest.param(["check", "--notion", "feasible", "--in", "{float-m}"], id="float-m-check"),
    pytest.param(["check", "--notion", "feasible", "--in", "{bool-n}"], id="bool-n"),
    pytest.param(["check", "--notion", "feasible", "--in", "{bool-mask}"], id="bool-mask"),
    pytest.param(["check", "--notion", "feasible", "--in", "{string-labels}"],
                 id="string-labels"),
    pytest.param(["check", "--notion", "feasible", "--in", "{string-flag}"], id="string-flag"),
    pytest.param(["check", "--notion", "feasible", "--in", "{string-values}"],
                 id="string-values"),
    pytest.param(["check", "--notion", "feasible", "--in", "{string-table}"],
                 id="string-table"),
    pytest.param(["check", "--notion", "feasible", "--in", "{object-values}"],
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
    }
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


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
        argv = ["check", "--notion", "feasible", "--in", str(inst_path)]
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
    (["check", "--notion", "feasible"], _bivalued_doc(1, 10**12, [10**11])),
    (["export-graph", "--kind", "compat"], _bivalued_doc(2, int("9" * 4000))),
    (["gen", "--kind", "random-bivalued", "--n", "1", "--m", str(10**12)], None),
], ids=["check-efx", "solve-maf", "check-feasible", "export-compat", "gen"])
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
    (1, 10_000, ["check", "--notion", "feasible"], "3^10000"),
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
