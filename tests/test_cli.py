"""End-to-end tests of the command-line interface, run in-process."""

import argparse
import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from divint import (antichains, cli, errors, families, lattice, report,
                    restricted)
from divint._version import __version__

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def env(monkeypatch, tmp_path):
    """Isolated cwd with no DIVINT_* variables leaking in."""
    for key in list(os.environ):
        if key.startswith("DIVINT_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_bound_text(env, capsys):
    code, out, err = run(["bound", "--sig", "2,1,1,1"], capsys)
    assert code == 0
    assert out == "12\n"
    assert "elapsed:" in err
    assert "elapsed" not in out


def test_bound_normalization_note(env, capsys):
    code, out, _ = run(["bound", "--sig", "1,2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "note: signature normalized from 1,2 to 2,1", "3"]


def test_bound_from_integer(env, capsys):
    code, out, _ = run(["bound", "--n", "420"], capsys)
    assert code == 0
    assert out.strip() == "12"


def test_json_envelope(env, capsys):
    code, out, _ = run(["bound", "--sig", "2,1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "parameters", "results", "tool_version"}
    assert doc["command"] == "bound"
    assert doc["parameters"] == {"sig": "2,1"}
    assert doc["results"]["min_size"] == 3
    assert doc["results"]["signature"]["exponents"] == [2, 1]
    assert doc["tool_version"] == __version__


def test_json_is_its_own_canonical_form(env, capsys):
    _, out, _ = run(["extremal", "--n", "420", "--format", "json"], capsys)
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_csv_output(env, capsys):
    code, out, _ = run(["bound", "--sig", "2,1", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["signature,min_size", '"2,1",3']


def test_count(env, capsys):
    code, out, _ = run(["count", "--n", "420"], capsys)
    assert code == 0
    assert out.strip() == "4"


def test_extremal_text(env, capsys):
    code, out, _ = run(["extremal", "--n", "420"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("signature 2,1,1,1: flat regime, minimum size 12, "
                        "4 minimum-size maximal families")
    assert lines[1] == "  [1] generators {3}"
    assert lines[2] == "  [2] generators {5}"
    assert lines[3] == "  [3] generators {7}"
    assert lines[4] == "  [4] generators {15, 21, 35}"


def test_antichains_listing(env, capsys):
    code, out, _ = run(["antichains", "--k", "3", "--list"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "4 generating antichains on 3 primes",
        "  [1] p1",
        "  [2] p2",
        "  [3] p3",
        "  [4] p1*p2, p1*p3, p2*p3",
    ]


def test_oracle_text(env, capsys):
    code, out, _ = run(["oracle", "--n", "420"], capsys)
    assert code == 0
    assert out.strip() == (
        "signature 2,1,1,1: 12 maximal families (radical-lift); "
        "min size 12 attained by 4; sizes: 12x4 13x3 14x3 15 16")


def test_oracle_methods_same_summary(env, capsys):
    _, lift, _ = run(["oracle", "--sig", "2,2", "--format", "csv"], capsys)
    _, direct, _ = run(["oracle", "--sig", "2,2", "--method", "direct-clique",
                        "--format", "csv"], capsys)
    assert lift.replace("radical-lift", "X") == direct.replace(
        "direct-clique", "X")


def test_matching_ground(env, capsys):
    code, out, _ = run(["matching", "--k", "3"], capsys)
    assert code == 0
    assert out.strip() == ("ground of 3 primes: 18 upward-closed families, "
                           "all with certified complement permutations")


def test_matching_ground_of_five(env, capsys):
    code, out, _ = run(["matching", "--k", "5", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 7579
    assert len(doc["results"]["families"]) == 7579


def test_matching_ground_above_cap_exits_3(env, capsys):
    code, out, err = run(["matching", "--k", "6"], capsys)
    assert code == 3
    assert out == ""
    assert "resource limit" in err


def test_matching_signature(env, capsys):
    code, out, _ = run(["matching", "--sig", "2,2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == (
        "signature 2,2: weight-preserving pairings on all 2 "
        "minimum-size families")


def test_matching_argument_exclusivity(env, capsys):
    code, _, err = run(["matching", "--k", "2", "--sig", "1,1"], capsys)
    assert code == 2
    assert "not both" in err
    code, _, err = run(["matching"], capsys)
    assert code == 2


def test_openprob_single_cell(env, capsys):
    code, out, _ = run(["openprob", "--mode", "omega", "--t", "2",
                        "--sig", "1,1,1"], capsys)
    assert code == 0
    assert out.strip() == ("m(1,1,1; t=2, restricted) = 3; 1 attaining "
                           "families; universe size 3")


def test_openprob_bigomega_letter(env, capsys):
    code, out, _ = run(["openprob", "--mode", "bigomega", "--t", "2",
                        "--sig", "2,1"], capsys)
    assert code == 0
    assert out.startswith("M(2,1; t=2, restricted) = 2")


def test_openprob_t1_gate(env, capsys):
    code, _, err = run(["openprob", "--mode", "omega", "--t", "1",
                        "--sig", "1,1"], capsys)
    assert code == 2
    assert "allow" in err
    code, out, _ = run(["openprob", "--mode", "omega", "--t", "1",
                        "--sig", "1,1", "--allow-t1"], capsys)
    assert code == 0
    assert "note:" in out


def test_openprob_sweep_csv(env, capsys):
    code, out, _ = run(["openprob", "--mode", "omega", "--t", "2,3",
                        "--max-n", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("signature,n,mode,t,maximality,universe_size,"
                        "status,value,attaining_count,error")
    assert len(lines) == 1 + 5 * 2  # five signatures, two t values


def test_openprob_usage_errors(env, capsys):
    base = ["openprob", "--mode", "omega"]
    assert run(base + ["--sig", "1,1"], capsys)[0] == 2  # --t missing
    assert run(base + ["--t", "x", "--sig", "1,1"], capsys)[0] == 2
    assert run(base + ["--t", "2"], capsys)[0] == 2  # no sig, no sweep
    assert run(base + ["--t", "2", "--sig", "1,1", "--max-n", "2"],
               capsys)[0] == 2
    assert run(base + ["--t", "2,3", "--sig", "1,1"], capsys)[0] == 2


@pytest.mark.parametrize("text", ["2,", ",2", "2,,3"])
def test_empty_t_component_is_a_usage_error(env, capsys, text):
    """`--t 2,` is refused, not read as `--t 2`, as `--sig` refuses `2,1,`."""
    code, out, err = run(["openprob", "--mode", "omega", "--max-n", "2",
                          "--max-exp", "1", "--t", text], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot parse --t value {text!r}" in err


@pytest.mark.parametrize("text", ["", " "])
def test_empty_t_is_a_usage_error(env, capsys, text):
    code, out, err = run(["openprob", "--mode", "omega", "--sig", "1,1",
                          "--t", text], capsys)
    assert (code, out) == (2, "")
    assert "error: --t is empty" in err


@pytest.mark.parametrize("text", ["1 2", "1_2", "+2", "2,3 4"])
def test_t_joins_no_numbers(env, capsys, text):
    """A space or an underscore inside a value does not join two numbers."""
    code, out, err = run(["openprob", "--mode", "omega", "--max-n", "2",
                          "--max-exp", "1", "--t", text], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot parse --t value {text!r}" in err


def test_t_ignores_spaces(env, capsys):
    args = ["openprob", "--mode", "omega", "--max-n", "2", "--max-exp", "1"]
    assert run(args + ["--t", " 3 , 2 "], capsys)[:2] == \
        run(args + ["--t", "2,3"], capsys)[:2]


def test_usage_errors(env, capsys):
    code, _, err = run(["bound"], capsys)
    assert code == 2
    assert "error:" in err
    assert run(["bound", "--sig", "1,1", "--n", "6"], capsys)[0] == 2
    assert run(["bound", "--sig", "a,b"], capsys)[0] == 2
    assert run(["bound", "--sig", "0,1"], capsys)[0] == 2


@pytest.mark.parametrize("text", ["2,,1", "2,1,", ",2,1"])
def test_empty_signature_component_is_a_usage_error(env, capsys, text):
    """A typo such as `2,,1` is refused, not read as another signature."""
    code, out, err = run(["bound", "--sig", text], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot parse signature {text!r}" in err


@pytest.mark.parametrize("text", ["2 1", "1_0", "1,1 1", "+2", "-1", "\uff12"])
def test_signature_joins_no_numbers(env, capsys, text):
    """`--sig "2 1"` is refused, not read as the signature 21, and only
    ASCII digits make a number."""
    code, out, err = run(["bound", "--sig", text], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot parse signature {text!r}" in err


def test_signature_components_may_carry_spaces(env, capsys):
    assert run(["bound", "--sig", " 2 , 1 "], capsys)[:2] == (0, "3\n")


@pytest.mark.parametrize("bad", [["--format", "xml"], ["--threads", "0"],
                                 ["--format", ""]])
def test_run_config_refuses_bad_values(env, capsys, bad):
    """A bad setting is a usage error that names it: the parser refuses a
    format outside its choices, and `main` a thread count below 1."""
    try:
        code = cli.main(["bound", "--sig", "1,1", *bad])
    except SystemExit as exc:  # argparse's own refusal
        code = exc.code
    cap = capsys.readouterr()
    assert (code, cap.out) == (2, "")
    assert bad[0].lstrip("-") in cap.err


def test_importing_the_cli_loads_every_layer_and_no_heavy_module():
    """`import divint.cli` stays cheap at start-up and still imports every
    layer that the benchmark's child process rebinds spans on."""
    child = ROOT / "divbench" / "child.py"
    spec = importlib.util.spec_from_file_location("divbench_child", child)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import divint.cli\n"
              "print(json.dumps([sorted(set(sys.modules) - before),"
              " sorted(sys.modules)]))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    new, loaded = json.loads(proc.stdout)
    assert not {"dataclasses", "inspect", "csv"} & set(new)
    assert {f"divint.{name}" for name in module.SPANS} <= set(loaded)


def test_resource_exit_codes(env, capsys):
    code, _, err = run(["antichains", "--k", "9"], capsys)
    assert code == 3
    assert "resource limit" in err
    assert run(["oracle", "--sig", "1,1,1,1,1,1,1"], capsys)[0] == 3


def test_universe_cap_via_env(env, capsys, monkeypatch):
    """The knob is gone: DIVINT_UNIVERSE_CAP is ignored like any unknown
    variable, and the cell answers."""
    monkeypatch.setenv("DIVINT_UNIVERSE_CAP", "1")
    code, out, _ = run(["openprob", "--mode", "omega", "--t", "2",
                        "--sig", "1,1,1"], capsys)
    assert code == 0
    assert out.startswith("m(1,1,1; t=2, restricted) = 3;")


def test_radical_cap_bounds_sweeps(env, capsys, monkeypatch):
    monkeypatch.setattr(restricted, "RADICAL_CAP", 2)
    code, out, _ = run(["openprob", "--mode", "omega", "--max-n", "3",
                        "--max-exp", "2", "--t", "2", "--format", "json"],
                       capsys)
    assert code == 0
    rows = {r["signature"]: r for r in json.loads(out)["results"]["rows"]}
    assert rows["2,1"]["status"] == "ok"
    assert rows["2,2"]["status"] == "ok"  # 4 divisors on one radical
    assert rows["2,2,2"]["status"] == "error"
    assert "restricted.RADICAL_CAP" in rows["2,2,2"]["error"]


def test_list_above_materialize_cap_exits_3(env, capsys, monkeypatch):
    """Both listings are held against the one member cap, and the refusal
    states the member total: 1 family of 3 for the cell, 4 of 4 for the
    census."""
    monkeypatch.setattr(families, "MEMBER_CAP", 1)
    cell = ["openprob", "--mode", "omega", "--sig", "1,1,1", "--t", "2"]
    assert run(cell, capsys)[0] == 0
    code, out, err = run(cell + ["--list"], capsys)
    assert (code, out) == (3, "")
    assert ("the member count of the families to list is 3, above the cap "
            "of 1 (families.MEMBER_CAP, a fixed constant)") in err
    code, out, err = run(["oracle", "--sig", "1,1,1", "--list"], capsys)
    assert (code, out) == (3, "")
    assert "is 16, above the cap of 1 (families.MEMBER_CAP" in err


def test_every_listing_shares_one_member_cap(env, capsys):
    """The census of 1^6 lists the same 84672 members as its minimum
    families; 2,2,2,1,1,1 would list 368838, past the cap."""
    for command in ("oracle", "extremal"):
        code, out, _ = run([command, "--sig", "1,1,1,1,1,1", "--list",
                            "--format", "json"], capsys)
        fams = json.loads(out)["results"]["families"]
        assert (code, sum(f["size"] for f in fams)) == (0, 84672)
    code, out, err = run(["oracle", "--sig", "2,2,2,1,1,1", "--list"],
                         capsys)
    assert (code, out) == (3, "")
    assert ("is 368838, above the cap of 300000 (families.MEMBER_CAP, a "
            "fixed constant)") in err


def test_openprob_cell_builds_no_witness_without_list(env, capsys,
                                                      monkeypatch):
    """A single cell prints counts only, so it builds and sorts no witness
    family unless --list asks for them."""
    from divint import oracle

    calls = []
    real = oracle.family_sort_key
    monkeypatch.setattr(oracle, "family_sort_key",
                        lambda fam: calls.append(1) or real(fam))
    cell = ["openprob", "--mode", "omega", "--sig", "1,1,1,1,1,1,1,1",
            "--t", "3"]
    for fmt in ("text", "json", "csv"):
        assert run(cell + ["--format", fmt], capsys)[0] == 0
    assert calls == []
    assert run(cell + ["--list"], capsys)[0] == 0
    assert len(calls) == 240


@pytest.mark.parametrize("sig,t,answer", [
    ("3,3,3,3,3,3", 3, "270; 1024 attaining families; universe size 540"),
    ("2,2,2,2,2,2,2,2", 4,
     "560; 34359738368 attaining families; universe size 1120"),
    ("20,20", 2, "400; 1 attaining families; universe size 400"),
])
def test_cells_with_many_divisors_per_radical_answer(env, capsys, sig, t,
                                                     answer):
    """Closed forms: 10 complementary pairs of 3-sets with 27 divisors on
    each radical; 35 pairs of 4-sets with 16; one radical with 400."""
    start = time.perf_counter()
    code, out, _ = run(["openprob", "--mode", "omega", "--sig", sig,
                        "--t", str(t)], capsys)
    assert (code, out.split(" = ")[1]) == (0, answer + "\n")
    assert time.perf_counter() - start < 1.0


def test_radical_cap_refuses_before_the_graph(env, capsys, monkeypatch):
    """1^11 at t=5: 462 radicals, one per divisor, past RADICAL_CAP."""
    def boom(rads):
        raise AssertionError("the coprimality graph was built")

    monkeypatch.setattr(lattice, "meet_rows", boom)
    start = time.perf_counter()
    code, out, err = run(["openprob", "--mode", "omega", "--sig",
                          ",".join("1" * 11), "--t", "5"], capsys)
    assert (code, out) == (3, "")
    assert ("the number of distinct radicals in the universe is 462, above "
            "the cap of 300 (restricted.RADICAL_CAP, a fixed constant)") in err
    assert time.perf_counter() - start < 1.0


def test_fixed_lattice_caps_name_their_constants(env, capsys):
    code, _, err = run(["extremal", "--sig", "30,30,30,30", "--list"],
                       capsys)
    assert code == 3
    assert "(lattice.MAX_DIVISORS, a fixed constant)" in err
    code, _, err = run(["bound", "--sig", ",".join(["1"] * 17)], capsys)
    assert code == 3
    assert "(lattice.MAX_PRIMES, a fixed constant)" in err


def test_divisor_cap_default_refuses_large_lattice(env, capsys):
    args = ["oracle", "--sig", "25,19", "--method", "direct-clique"]
    code, _, err = run(args, capsys)
    assert code == 3
    assert "(oracle.DIRECT_DIVISOR_CAP, a fixed constant)" in err


def test_divisor_cap_can_be_raised(env, capsys, monkeypatch):
    from divint import oracle

    monkeypatch.setattr(oracle, "DIRECT_DIVISOR_CAP", 600)
    code, out, _ = run(["oracle", "--sig", "25,19", "--method",
                        "direct-clique", "--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["total_maximal"] == 2
    assert results["min_size"] == 494


def test_k_cap_message_names_a_real_knob(env, capsys):
    """The cap on the ground size k is the listing walk's fixed constant."""
    code, _, err = run(["antichains", "--k", "7"], capsys)
    assert code == 3
    assert "(antichains.LIST_CAP, a fixed constant)" in err
    assert "raise" not in err


def test_radical_lift_refusal_names_k_cap(env, capsys):
    """The radical lift on 7 primes is refused by the cap on k."""
    code, _, err = run(["oracle", "--sig", "1,1,1,1,1,1,1"], capsys)
    assert code == 3
    assert "antichains.LIST_CAP" in err
    assert "n_cap" not in err


def test_count_answers_past_the_listing_cap(env, capsys):
    """k = 7 is past LIST_CAP and within COUNT_CAP: OEIS A001206."""
    for argv in (["count", "--sig", "1,1,1,1,1,1,1"],
                 ["count", "--n", "510510"]):  # 2*3*5*7*11*13*17
        code, out, _ = run(argv, capsys)
        assert (code, out) == (0, "1422564\n")


@pytest.mark.parametrize("argv", [
    ["extremal", "--list"], ["matching"],
])
def test_listing_member_cap_refuses_at_once(env, capsys, argv):
    """2646 minimum families of 23328 members each, refused from the
    closed forms before any family is lifted."""
    start = time.perf_counter()
    code, out, err = run(argv + ["--sig", "2,2,2,2,2,2,1,1,1,1,1,1"], capsys)
    assert (code, out) == (3, "")
    assert "families.MEMBER_CAP" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("method", ["radical-lift", "direct-clique"])
def test_oracle_builds_no_family_without_list(env, capsys, monkeypatch,
                                              method):
    from divint import oracle

    built = []
    real = oracle.DivisorFamily

    class Counted:
        def __new__(cls, divisors):
            built.append(1)
            return real(divisors)

        @staticmethod
        def lift(sig, masks):
            built.append(1)
            return real.lift(sig, masks)

    monkeypatch.setattr(oracle, "DivisorFamily", Counted)
    argv = ["oracle", "--sig", "1,1,1,1,1", "--method", method]
    code, out, _ = run(argv, capsys)
    assert (code, built) == (0, [])
    assert "81 maximal families" in out
    code, _, _ = run(argv + ["--list"], capsys)
    assert (code, len(built)) == (0, 81)


def test_count_walk_cap_refuses_at_once(env, capsys):
    start = time.perf_counter()
    code, _, err = run(["count", "--sig", "1,1,1,1,1,1,1,1"], capsys)
    assert code == 3
    assert "antichains.COUNT_CAP" in err
    assert time.perf_counter() - start < 1.0


def test_listing_walk_cap_refuses_at_once(env, capsys):
    start = time.perf_counter()
    code, _, err = run(["antichains", "--k", "7"], capsys)
    assert code == 3
    assert "antichains.LIST_CAP" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    # 191 divisors, under DIRECT_DIVISOR_CAP; more cliques than CLIQUE_CAP
    ["oracle", "--method", "direct-clique", "--sig", "2," + ",".join("1" * 6)],
    # 127 divisors, under DIRECT_DIVISOR_CAP; 1422564 maximal cliques
    ["oracle", "--method", "direct-clique", "--sig", ",".join("1" * 7)],
])
def test_clique_cap_stops_a_runaway_search(env, capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "oracle.CLIQUE_CAP" in err


def test_node_cap_stops_a_runaway_search(env, capsys):
    # the odd graph O_5: 126 radicals, one component, no answer in the budget
    start = time.perf_counter()
    code, out, err = run(["openprob", "--mode", "omega", "--t", "4",
                          "--sig", ",".join("1" * 9)], capsys)
    assert (code, out) == (3, "")
    assert "restricted.NODE_CAP" in err
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("n", [8, 10])
def test_openprob_answers_squarefree_at_twice_t(env, capsys, n):
    """n = 2t primes: C(2t-1, t-1) complementary pairs, one set of each."""
    t = n // 2
    start = time.perf_counter()
    code, out, _ = run(["openprob", "--mode", "omega", "--t", str(t),
                        "--sig", ",".join("1" * n), "--format", "json"],
                       capsys)
    assert code == 0
    res = json.loads(out)["results"]
    pairs = {8: 35, 10: 126}[n]
    assert (res["status"], res["value"], res["attaining_count"]) == \
        ("ok", pairs, 2 ** pairs)
    assert time.perf_counter() - start < 1.0


def test_verify_honours_k_cap(env, capsys):
    """verify on 7 primes is refused by the cap on k, LIST_CAP."""
    code, out, err = run(["verify", "--max-n", "7", "--max-exp", "1"], capsys)
    assert (code, out) == (3, "")
    assert "antichains.LIST_CAP" in err


@pytest.mark.parametrize("argv,cap", [
    (["verify", "--max-n", "7", "--max-exp", "24"], "antichains.LIST_CAP"),
    (["verify", "--max-n", "6", "--max-exp", "24"], "lattice.GRID_CAP"),
    (["openprob", "--mode", "omega", "--max-n", "6", "--max-exp", "24",
      "--t", "2"], "lattice.GRID_CAP"),
], ids=["verify 7/24", "verify 6/24", "openprob 6/24"])
def test_sweep_refusals_come_before_the_grid(env, capsys, monkeypatch, argv,
                                             cap):
    """A sweep past the ground cap or the grid cap exits 3 at once, and no
    signature of its grid is built."""
    def boom(*args):
        raise AssertionError("a signature of the grid was built")

    monkeypatch.setattr(lattice, "Signature", boom)
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert f"({cap}, a fixed constant)" in err
    assert time.perf_counter() - start < 1.0


def test_threads_zero_is_a_usage_error(env, capsys):
    code, _, err = run(["bound", "--sig", "1,1", "--threads", "0"], capsys)
    assert code == 2
    assert "threads" in err


def test_threads_key_in_config_file_still_loads(env, capsys):
    (env / "divisor-intersect.toml").write_text("threads = 3\n")
    code, out, _ = run(["bound", "--sig", "1,1"], capsys)
    assert code == 0
    assert out == "2\n"


def _readme_examples():
    """Every `$ divint ...` line in the README's code blocks, with the lines
    printed under it: (line, environment, argv, tail, expected lines).

    A line may start with VAR=value assignments and may end in `| tail -N`.
    The printed lines run to the next `$` line, a blank line or the end of
    the block.
    """
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    examples = []
    in_block = False
    for i, line in enumerate(lines):
        if line.startswith("```"):
            in_block = not in_block
        if not (in_block and line.startswith("$ ")):
            continue
        words = line[2:].split()
        environ = {}
        while "=" in words[0]:
            key, value = words.pop(0).split("=", 1)
            environ[key] = value
        assert words.pop(0) == "divint", line
        tail = None
        if "|" in words:
            cut = words.index("|")
            assert words[cut + 1] == "tail", line
            tail = int(words[cut + 2].lstrip("-"))
            words = words[:cut]
        expected = []
        for printed in lines[i + 1:]:
            if not printed or printed.startswith(("$ ", "```")):
                break
            expected.append(printed)
        examples.append((line[2:], environ, words, tail, expected))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_examples_are_found():
    assert len(README_EXAMPLES) >= 10
    assert any(environ for _, environ, _, _, _ in README_EXAMPLES)
    assert any(tail for _, _, _, tail, _ in README_EXAMPLES)


@pytest.mark.parametrize("line,environ,argv,tail,expected", README_EXAMPLES,
                         ids=[e[0] for e in README_EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(
        env, capsys, monkeypatch, line, environ, argv, tail, expected):
    """stdout (its last `tail` lines, for a `| tail -N` example), then
    stderr without the elapsed-time line."""
    for key, value in environ.items():
        monkeypatch.setenv(key, value)
    _, out, err = run(argv, capsys)
    out_lines = out.splitlines()
    if tail is not None:
        out_lines = out_lines[-tail:]
    err_lines = [x for x in err.splitlines() if not x.startswith("elapsed: ")]
    assert out_lines + err_lines == expected


def test_readme_names_exist():
    """Every `module.name` the README cites for a divint module is an
    attribute of that module, followed through any further dots."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    package = Path(cli.__file__).parent
    modules = {p.stem for p in package.glob("*.py") if p.stem[0] != "_"}
    cited = {name for name in re.findall(r"`(\w+(?:\.\w+)+)`", text)
             if name.split(".")[0] in modules}
    assert len(cited) >= 13
    for name in sorted(cited):
        head, *rest = name.split(".")
        obj = importlib.import_module(f"divint.{head}")
        for attr in rest:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


def test_version_flag(env, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_integer_and_signature_agree(env, capsys):
    _, by_n, _ = run(["extremal", "--n", "420", "--list", "--format", "json"],
                     capsys)
    _, by_sig, _ = run(["extremal", "--sig", "2,1,1,1", "--list",
                        "--format", "json"], capsys)
    assert by_n == by_sig


def test_thread_count_never_changes_json(env, capsys):
    args = ["verify", "--max-n", "2", "--max-exp", "2", "--format", "json"]
    _, one, _ = run(args + ["--threads", "1"], capsys)
    _, four, _ = run(args + ["--threads", "4"], capsys)
    assert one == four
    doc = json.loads(one)
    assert "threads" not in doc["parameters"]


def test_k_cap_key_in_config_file_is_unknown(env, capsys, monkeypatch):
    """The knob is gone, and no file or variable is read: neither its old
    file key nor its environment variable changes anything."""
    (env / "divisor-intersect.toml").write_text("k_cap = 7\n")
    assert run(["bound", "--sig", "1,1"], capsys)[:2] == (0, "2\n")
    (env / "divisor-intersect.toml").unlink()
    monkeypatch.setenv("DIVINT_K_CAP", "3")
    code, out, _ = run(["count", "--sig", "1,1,1,1,1,1,1"], capsys)
    assert (code, out) == (0, "1422564\n")


def test_settings_are_read_from_flags_only(env, capsys, monkeypatch):
    """No variable and no file in the working directory is read: not the
    old settings, nor a value or key that the old file layer refused."""
    monkeypatch.setenv("DIVINT_FORMAT", "json")
    monkeypatch.setenv("DIVINT_THREADS", "abc")
    (env / "divisor-intersect.toml").write_text(
        'format = "json"\nsurprise = 1\n')
    assert run(["bound", "--sig", "1,1"], capsys)[:2] == (0, "2\n")


def test_bad_config_file_is_a_usage_error(env, capsys):
    """A divisor-intersect.toml with bad values once exited 2. No file is
    read now, so the run answers as if it were absent; only a flag can make
    a usage error."""
    (env / "divisor-intersect.toml").write_text('format = "xml"\nthreads = 0\n')
    code, out, err = run(["bound", "--sig", "1,1"], capsys)
    assert (code, out) == (0, "2\n")
    assert "xml" not in err and "threads" not in err
    with pytest.raises(SystemExit) as exc:  # argparse's own refusal
        cli.main(["bound", "--sig", "1,1", "--format", "xml"])
    assert exc.value.code == 2


def test_config_file_env_flag_precedence(env, capsys, monkeypatch):
    """The flag is the only layer: a file and a variable that name other
    formats change neither the default nor what the flag picks."""
    (env / "divisor-intersect.toml").write_text('format = "json"\n')
    monkeypatch.setenv("DIVINT_FORMAT", "csv")
    _, out, _ = run(["bound", "--sig", "1,1"], capsys)
    assert out == "2\n"
    _, out, _ = run(["bound", "--sig", "1,1", "--format", "csv"], capsys)
    assert out.splitlines()[0] == "signature,min_size"
    _, out, _ = run(["bound", "--sig", "1,1", "--format", "json"], capsys)
    assert out.startswith("{")


def test_config_keys_are_the_run_config_fields():
    """The settings are the two options of the shared parser, with the
    defaults and the choices that the README states."""
    assert _common_options() == {"--format", "--threads"}
    args = cli._build_parser().parse_args(["bound", "--sig", "1"])
    assert (args.format, args.threads) == ("text", 1)
    assert cli.FORMATS == ("text", "json", "csv")


def test_integer_knob_from_env_names_the_knob(env, capsys, monkeypatch):
    """DIVINT_THREADS is not read, so a non-integer there changes nothing;
    the same value given by flag is refused with the knob's name."""
    monkeypatch.setenv("DIVINT_THREADS", "abc")
    assert run(["bound", "--sig", "1"], capsys)[:2] == (0, "1\n")
    try:
        code = cli.main(["bound", "--sig", "1", "--threads", "abc"])
    except SystemExit as exc:  # argparse's own refusal
        code = exc.code
    cap = capsys.readouterr()
    assert (code, cap.out) == (2, "")
    assert "--threads" in cap.err and "'abc'" in cap.err


def test_readme_config_example_loads(env, capsys):
    """Every value that the README's options paragraph documents is taken
    by a run: each named format, and a positive thread count."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("## Options\n\n") + len("## Options\n\n")
    paragraph = text[start:text.index("\n\n", start)]
    formats = re.findall(r"`([a-z]+)`", paragraph)
    assert formats == list(cli.FORMATS)
    for fmt in formats:
        code, out, _ = run(["bound", "--sig", "1,1", "--format", fmt,
                            "--threads", "2"], capsys)
        assert code == 0 and out


def _common_options() -> set[str]:
    """The options every subcommand takes: those of the shared parent."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return set.intersection(*(
        {o for a in p._actions for o in a.option_strings}
        for p in sub.choices.values())) - {"-h", "--help"}


def test_readme_options_are_the_common_options():
    """The README's options paragraph names exactly the options that every
    subcommand shares, so a setting cannot be documented and missing, nor
    added and undocumented."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("## Options\n\n") + len("## Options\n\n")
    paragraph = text[start:text.index("\n\n", start)]
    named = set(re.findall(r"`(--[a-z][a-z-]*)`", paragraph))
    assert named == _common_options() == {"--format", "--threads"}


@pytest.mark.parametrize("argv", [
    ["extremal", "--sig", "1,1,1,1,1,1"],
    ["oracle", "--sig", "1,1,1,1,1,1"],
    ["openprob", "--mode", "omega", "--sig", "1,1,1,1,1,1", "--t", "3"],
    # with --list these listings used to pass families.MEMBER_CAP, and the
    # extremal one lattice.MAX_DIVISORS
    ["oracle", "--sig", "3,3,3,3,3,3"],
    ["extremal", "--sig", "30,30,30,30"],
    ["openprob", "--mode", "omega", "--sig", "1,1,1,1,1,1,1,1", "--t", "4"],
])
def test_csv_list_changes_nothing(env, capsys, argv):
    """The CSV rows never show families, so under CSV --list gives the bytes
    and the exit code of the same run without it."""
    plain = run(argv + ["--format", "csv"], capsys)[:2]
    assert plain[0] == 0
    assert run(argv + ["--list", "--format", "csv"], capsys)[:2] == plain


def test_csv_list_lifts_no_family(env, capsys, monkeypatch):
    """Under CSV, extremal --list lifts none of the 2646 minimum families of
    1^6 and shapes none of them: report.family_obj serves only the 2646
    generators that the rows show, as it does without --list."""
    calls = {"lift": 0, "family_obj": 0}
    lift = families.DivisorFamily.lift
    family_obj = report.family_obj

    def counted_lift(cls, sig, masks):
        calls["lift"] += 1
        return lift(sig, masks)

    def counted_family_obj(fam, primes=None):
        calls["family_obj"] += 1
        return family_obj(fam, primes)

    monkeypatch.setattr(families.DivisorFamily, "lift",
                        classmethod(counted_lift))
    monkeypatch.setattr(report, "family_obj", counted_family_obj)
    argv = ["extremal", "--sig", "1,1,1,1,1,1", "--format", "csv"]
    assert run(argv + ["--list"], capsys)[0] == 0
    assert calls == {"lift": 0, "family_obj": 2646}
    assert run(argv, capsys)[0] == 0
    assert calls == {"lift": 0, "family_obj": 2 * 2646}


def test_extremal_builds_no_generator_family(env, capsys, monkeypatch):
    """extremal --sig prints its generators from their radical masks: the
    listing of 1^6 builds no DivisorFamily through its constructor (2646,
    one per generator, when they were built) and keeps its golden bytes."""
    golden = json.loads((ROOT / "divbench" / "golden.json").read_text())
    argv = ["extremal", "--sig", "1,1,1,1,1,1", "--list", "--format", "json"]
    inits = 0
    init = families.DivisorFamily.__init__

    def counted_init(self, divisors):
        nonlocal inits
        inits += 1
        init(self, divisors)

    monkeypatch.setattr(families.DivisorFamily, "__init__", counted_init)
    code, out, _ = run(argv, capsys)
    assert code == golden[" ".join(argv)]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        golden[" ".join(argv)]["sha256"]
    assert inits == 0


def test_extremal_listing_lifts_no_family(env, capsys, monkeypatch):
    """extremal --list selects each family's members from one list of
    divisor_obj dicts per lattice: the 2646 families of 1^6 take no
    DivisorFamily.lift (2646 when each was lifted) and no divisor_obj
    lookup beyond the 64 of that list and the generators' own, and the
    listing keeps its golden bytes."""
    golden = json.loads((ROOT / "divbench" / "golden.json").read_text())
    argv = ["extremal", "--sig", "1,1,1,1,1,1", "--list", "--format", "json"]
    calls = {"lift": 0, "divisor_obj": 0}
    lift = families.DivisorFamily.lift
    divisor_obj = report.divisor_obj

    def counted_lift(cls, sig, masks):
        calls["lift"] += 1
        return lift(sig, masks)

    def counted_divisor_obj(d, primes=None):
        calls["divisor_obj"] += 1
        return divisor_obj(d, primes)

    monkeypatch.setattr(families.DivisorFamily, "lift",
                        classmethod(counted_lift))
    monkeypatch.setattr(report, "divisor_obj", counted_divisor_obj)
    code, out, _ = run(argv, capsys)
    assert code == golden[" ".join(argv)]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        golden[" ".join(argv)]["sha256"]
    members = sum(len(ac) for ac in antichains.enumerate_antichains(6))
    assert calls == {"lift": 0, "divisor_obj": 64 + members}


def test_verify_text_and_exit(env, capsys):
    code, out, _ = run(["verify", "--max-n", "2", "--max-exp", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_failure_exits_4(env, capsys, monkeypatch, fmt):
    real = lattice.min_size_bound
    monkeypatch.setattr(lattice, "min_size_bound", lambda sig: real(sig) + 1)
    code, out, _ = run(["verify", "--max-n", "2", "--max-exp", "1",
                        "--format", fmt], capsys)
    assert code == 4
    assert {"text": "FAIL min-size-equality [1]",
            "json": '"status": "fail"',
            "csv": "min-size-equality,1,fail"}[fmt] in out


def test_openprob_max_exp_refuses_a_single_cell(env, capsys):
    """--max-exp bounds a sweep; a single cell refuses it, as it refuses
    --max-n, instead of ignoring it."""
    code, out, err = run(["openprob", "--mode", "omega", "--sig", "1,1,1",
                          "--t", "2", "--max-exp", "5"], capsys)
    assert (code, out) == (2, "")
    assert "error: --max-exp bounds a sweep, not a single cell" in err
    code, out, _ = run(["openprob", "--mode", "omega", "--max-n", "1",
                        "--t", "2", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["parameters"]["max_exp"] == 2


def test_openprob_list_refuses_sweeps(env, capsys):
    code, out, err = run(["openprob", "--mode", "omega", "--max-n", "2",
                          "--t", "2", "--list"], capsys)
    assert (code, out) == (2, "")
    assert "--list" in err


def test_lattice_cap_refuses_before_any_closure(env, capsys, monkeypatch):
    from divint import families

    built = []
    closure = families.upward_closure

    def counted(gens, sig):
        built.append(closure(gens, sig))
        return built[-1]

    monkeypatch.setattr(families, "upward_closure", counted)
    errors = []
    for argv in (["matching", "--sig", "30,30,30,30"],
                 ["extremal", "--sig", "30,30,30,30", "--list"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert "lattice.MAX_DIVISORS" in err
        errors.append(err)
    assert built == []
    assert errors[0] == errors[1]


def test_json_listings_lift_closures_and_build_no_text(env, capsys,
                                                     monkeypatch):
    """A JSON run of every command builds no text line and no CSV row: the
    text and CSV views are never called.  At 1^6 the JSON listings take
    every minimum family from its radical set, not from
    `families.upward_closure`."""
    from divint import families

    calls = []
    closure = families.upward_closure
    monkeypatch.setattr(families, "upward_closure",
                        lambda gens, sig: calls.append(1) or closure(gens, sig))

    def refuse(*args):
        raise AssertionError("a JSON run called a text or CSV view")

    monkeypatch.setattr(cli, "_text", refuse)
    monkeypatch.setattr(cli, "_csv", refuse)
    for argv in (["bound", "--sig", "2,1"],
                 ["count", "--sig", "1,1,1"],
                 ["extremal", "--sig", "1,1,1,1,1,1", "--list"],
                 ["antichains", "--k", "3", "--list"],
                 ["oracle", "--sig", "2,1,1", "--list"],
                 ["matching", "--k", "3", "--list"],
                 ["matching", "--sig", "1,1,1,1,1,1", "--list"],
                 ["openprob", "--mode", "omega", "--sig", "1,1,1", "--t", "2",
                  "--list"],
                 ["openprob", "--mode", "omega", "--max-n", "2", "--t", "2"],
                 ["verify", "--max-n", "2", "--max-exp", "1"]):
        calls.clear()
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["command"] == argv[0]
        if "1,1,1,1,1,1" in argv:
            assert calls == []


def test_openprob_sweep_honours_allow_t1(env, capsys):
    code, out, _ = run(["openprob", "--mode", "omega", "--max-n", "2",
                        "--max-exp", "1", "--t", "1", "--allow-t1",
                        "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [(r["signature"], r["t"], r["status"], r["value"]) for r in rows] \
        == [("1", 1, "ok", 1), ("1,1", 1, "ok", 1)]


SRC = Path(__file__).resolve().parents[1] / "src" / "divint"
CAP_NOTE = re.compile(
    r"the cap of (\d+) \(([a-z]+)\.(\w+), a fixed constant\)")


def _calls(name):
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == name:
                yield node


def _cap_names():
    """Every cap name a refusal can carry: the literal `name` argument of
    each `errors.limit_error` call, and of each `antichains._check_k` call,
    which passes its walk's fixed cap on to the one non-literal call."""
    names = set()
    forwarded = 0
    for fn, at in (("limit_error", 3), ("_check_k", 2)):
        for node in _calls(fn):
            arg = node.args[at]
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            else:
                forwarded += 1
    assert forwarded == 1
    return names


def _cap_value(name):
    """The value of a `module.CONST`."""
    module, const = name.split(".")
    return getattr(importlib.import_module(f"divint.{module}"), const)


def test_one_place_builds_a_resource_limit_error():
    sites = list(_calls("ResourceLimitError"))
    assert len(sites) == 1


def test_limit_error_words_each_kind_of_cap():
    for name in _cap_names():
        assert isinstance(_cap_value(name), int)
        assert str(errors.limit_error("the count", 9, 8, name)) == (
            f"the count is 9, above the cap of 8 ({name}, a fixed constant)")
    assert str(errors.limit_error("the count", None, 8, "oracle.CLIQUE_CAP")) \
        == ("the count exceeds the cap of 8 "
            "(oracle.CLIQUE_CAP, a fixed constant)")


def test_readme_cap_table_matches_the_code():
    """Each cap in the README's table is a constant with the default shown,
    and every cap a refusal can name has a row."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    start = text.index("| walk | commands | cap | default |")
    rows = []
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    table = set()
    for _, _, cap, default in rows:
        name = cap.strip("`")
        assert _cap_value(name) == int(default), name
        table.add(name)
    assert _cap_names() <= table


# Between them these commands reach every refusal site of the package.
# `setup` holds `module.CONST` values to patch first.
REFUSALS = [
    (["antichains", "--k", "7"], {}),
    (["oracle", "--sig", ",".join("1" * 7)], {}),
    (["count", "--sig", ",".join("1" * 8)], {}),
    (["verify", "--max-n", "7", "--max-exp", "1"], {}),
    (["matching", "--k", "6"], {}),
    (["oracle", "--sig", "25,19", "--method", "direct-clique"], {}),
    (["openprob", "--mode", "omega", "--sig", ",".join("1" * 11), "--t", "5"],
     {}),
    (["openprob", "--mode", "omega", "--t", "5", "--sig", ",".join("1" * 10)],
     {"restricted.NODE_CAP": 100}),
    (["oracle", "--method", "direct-clique", "--sig", ",".join("1" * 7)], {}),
    (["oracle", "--sig", "1,1", "--list"], {"families.MEMBER_CAP": 1}),
    (["openprob", "--mode", "omega", "--sig", "1,1,1", "--t", "2", "--list"],
     {"families.MEMBER_CAP": 1}),
    (["extremal", "--sig", "30,30,30,30", "--list"], {}),
    (["matching", "--sig", "2,2,2,2,2,2,1,1,1,1,1,1"], {}),
    (["bound", "--sig", ",".join("1" * 17)], {}),
    (["verify", "--max-n", "2", "--max-exp", "1"], {"verify.MEMBER_CAP": 1}),
    (["openprob", "--mode", "omega", "--max-n", "6", "--max-exp", "24",
      "--t", "2"], {}),
    (["openprob", "--mode", "omega", "--max-n", "8000", "--max-exp", "8000",
      "--t", "2"], {}),
]


@pytest.mark.parametrize("argv,setup", REFUSALS,
                         ids=[" ".join(a)[:40] for a, _ in REFUSALS])
def test_no_refusal_points_at_a_knob_that_cannot_help(env, capsys,
                                                      monkeypatch, argv,
                                                      setup):
    """Every refusal names a fixed constant and its value, and advises
    raising nothing."""
    for key, value in setup.items():
        module, const = key.split(".")
        monkeypatch.setattr(importlib.import_module(f"divint.{module}"),
                            const, value)
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    stated, module, const = CAP_NOTE.search(err).groups()
    assert _cap_value(f"{module}.{const}") == int(stated)
    assert "raise" not in err


# Runs that the argument parser answers: help, --version and its refusals,
# with COLUMNS=80.  Each maps to its exit code and the SHA-256 of its stdout,
# a NUL and its stderr, as recorded when every run built the whole parser,
# on CPython 3.11; argparse words its output differently in other versions.
PARSER_RUNS = {
    "":
        (2, "296566d4271e1dbb47532da5179468ba444e508a29ab055d411864d23e9eaa90"),
    "--help":
        (0, "566352549010e184d1468d6d486b40c080631a9a58fe566aa4aacf98378b06d7"),
    "-h":
        (0, "566352549010e184d1468d6d486b40c080631a9a58fe566aa4aacf98378b06d7"),
    "--version":
        (0, "be13e7c9b587f7dd5846e33bc98c04eebd9ebb0cbacf620b4252b9cdccb55a07"),
    "bogus":
        (2, "0836290fbdd68e9df67d174ba08ce478e989df48c33b47471789968942db6f37"),
    "--bogus":
        (2, "296566d4271e1dbb47532da5179468ba444e508a29ab055d411864d23e9eaa90"),
    "--format json bound":
        (2, "440c4bbbfdd74a2755370eb8771e7f872c06c9c54ba74377c4bc6b1838b5396a"),
    "bound extremal":
        (2, "00fc3d818454728acd76a19d90066fb46d3be3a597da1a641c344dd73a659594"),
    "bound --help":
        (0, "a37a06c872b51bc53287475491ccec30d8bf53e8c28dacd52ed88e210cdf9221"),
    "extremal --help":
        (0, "8af558eca1b77a18dafd78457f2deb216d2485a6a571443b088d8a0317a5d8c4"),
    "count --help":
        (0, "c0e5c4c0c811c424346e0f7c03eff15d768592af7584a257a75e8ae63c1391c0"),
    "antichains --help":
        (0, "40e959a884c6e3dc30e160cf00eedb21fd2f7354d173012ee5d1cfbd46c36c84"),
    "oracle --help":
        (0, "a16f78d294ea3481bb869f5ecb22c6cf9b38dea3de0173461668a2199c871025"),
    "matching --help":
        (0, "d9546fccf38b40ba72bc87e579604a1bc553aa5990823c110a8523728969bbd6"),
    "openprob --help":
        (0, "b550346f448fbf5aad7472db138c9188e7ebe4da3bce087929fbf15ce445805a"),
    "verify --help":
        (0, "63ed288c77b6110e829831cfccf185857c000ff3c6b6fce95787a4f26ef8f6c1"),
    "bound --bogus":
        (2, "a7dca016b905bea1c42bba026e2c75752d342446af15543d8c7b02b90ebb6661"),
    "extremal --bogus":
        (2, "a7dca016b905bea1c42bba026e2c75752d342446af15543d8c7b02b90ebb6661"),
    "count --bogus":
        (2, "a7dca016b905bea1c42bba026e2c75752d342446af15543d8c7b02b90ebb6661"),
    "antichains --bogus":
        (2, "f81639e1316a2b5c144f97fc986c10e0afb47feb3b19f295e3d4ca78677df550"),
    "oracle --bogus":
        (2, "a7dca016b905bea1c42bba026e2c75752d342446af15543d8c7b02b90ebb6661"),
    "matching --bogus":
        (2, "a7dca016b905bea1c42bba026e2c75752d342446af15543d8c7b02b90ebb6661"),
    "openprob --bogus":
        (2, "e08138117fc1368b5ae1c7010c0716cd8c2a82c754ca16dd62d88954da13ad55"),
    "verify --bogus":
        (2, "a7dca016b905bea1c42bba026e2c75752d342446af15543d8c7b02b90ebb6661"),
    "bound --format xml":
        (2, "0e53f87b475e6786bcc6f129be1e4c26327148ee3d93d07c4e1cd500f28c7fc8"),
    "extremal --format xml":
        (2, "456e32f9fc25cb2009e5fc07f7488e49ff06706cae2aa6865cd8685bae0da0e4"),
    "count --format xml":
        (2, "86be707355992512e71423a922459f6ef5776bde5cf0860e81015752f9ada1b0"),
    "antichains --format xml":
        (2, "c6a7cf2dff69af3d3c02be27db23dd2291bbfdaee8033c6c7dc6525685b1efb1"),
    "oracle --format xml":
        (2, "b655c5c40eb99fcb603cfb56eb49ccd5fc580e7933ec1c128a3c091994d28b59"),
    "matching --format xml":
        (2, "5022a71c69ac083b6240b1db6d652ab0ad7bcff61db8806fd195833a66dcebb6"),
    "openprob --format xml":
        (2, "f5bd0c3e415b9b321f98e623fa2a39ba02d6070cf819fa2b47dc42adc3104b49"),
    "verify --format xml":
        (2, "68e36ac3d724aa646f1685a89042a900cf4b07692ab7bc4e1db679bd51c3b107"),
    "bound --sig":
        (2, "7843dd6c7521d6a8fa75cd4c4e7d34b576909013715305c54d11227a8d256ea8"),
    "count --n":
        (2, "c35e002ce0da9d720a8dac43fc5570a92609fe71801de4e90e53c5d26fa65b02"),
    "count --n x":
        (2, "51e0ee0bc7f0110757fe6fb9514954bade861b721ad4d13e5e0d4151b02ea953"),
    "bound --threads abc":
        (2, "a22da1dedf9f81e73b4e47ccff686ac2d85931caf426e61cb8ed49472717d695"),
    "antichains":
        (2, "f81639e1316a2b5c144f97fc986c10e0afb47feb3b19f295e3d4ca78677df550"),
    "antichains --k x":
        (2, "c0d18214d6499272809387a0e71f592596c8459942dfb50af2c4df4ecbe92539"),
    "oracle --sig 1 --method x":
        (2, "c6ba0a36d6eef7d824ee1b5324a1dd69764bed35662fc9c3187035a68ec65bf9"),
    "openprob --sig 1":
        (2, "e08138117fc1368b5ae1c7010c0716cd8c2a82c754ca16dd62d88954da13ad55"),
    "openprob --mode x":
        (2, "1e0e148936f00697a7a8015fd4021947bf0ccd8adf5f48e8fc237227d1cbfa96"),
    "verify --max-n x":
        (2, "b98abf8030d5455992971c5f6c2c24090cac0f72ce7aca358a22652474ff6178"),
    "verify --max 2":
        (2, "e4e7775a5ce26e0624d26d80231b0c2fb2669229f9ea039f75aea94dd02c8825"),
    "openprob --m omega":
        (2, "5be112a215127ce24b3d89b521f9bea41c8c3a12d7260aa073df0e0b28898032"),
    "matching --k x":
        (2, "b81144b6efe4c5b47dc0aeeb26bc82ddf2cd426a91ea743d4365a383e27817e9"),
    "extremal --list x":
        (2, "dcb21831c059fbc826b8f492777408964a725516891e7f4d90c336dee957ec40"),
    "openprob --mode omega --maximality y":
        (2, "bd5e5425908c3423cb2cef013e60216e456b6ab6010c156fa165e38f20e3ae93"),
}


def _parser_run(line, capsys):
    try:
        code = cli.main(line.split())
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out + "\0" + cap.err


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="recorded on CPython 3.11")
@pytest.mark.parametrize("line", sorted(PARSER_RUNS))
def test_parser_runs_keep_their_output(env, capsys, monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    code, text = _parser_run(line, capsys)
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == \
        PARSER_RUNS[line]


@pytest.mark.parametrize("line", sorted(PARSER_RUNS))
def test_command_parser_answers_as_the_whole_tree(env, capsys, monkeypatch,
                                                  line):
    """Building only the options of the command that argv names changes
    no help, version or refusal, on any Python version."""
    monkeypatch.setenv("COLUMNS", "80")
    lazy = _parser_run(line, capsys)
    monkeypatch.setattr(cli, "_command_in", lambda argv: None)
    assert _parser_run(line, capsys) == lazy


@pytest.mark.parametrize("argv, command", [
    (["bound", "--sig", "1"], "bound"),
    (["-x", "verify", "--max-n", "2"], "verify"),
    (["--format", "json", "verify"], "json"),  # refused as a command
    (["bogus", "bound"], "bogus"),
    (["--help"], None),
    ([], None),
])
def test_command_in(argv, command):
    assert cli._command_in(argv) == command
