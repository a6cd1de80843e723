"""Tests for the restricted-universe minimum solvers."""

from math import comb

import pytest

from divint import antichains, families, lattice, oracle, restricted
from divint.errors import DivintError, ResourceLimitError
from divint.families import DivisorFamily, check_maximal
from divint.lattice import Signature
from divint.restricted import build_universe, solve_restricted, sweep_tables


def test_universe_omega_three_primes():
    uni = build_universe(Signature((1, 1, 1)), "omega", 2)
    assert uni == ((1, 1, 0), (1, 0, 1), (0, 1, 1))


def test_universe_bigomega():
    uni = build_universe(Signature((2, 1)), "bigomega", 2)
    assert uni == ((2, 0), (1, 1))


def test_universe_omega_vs_bigomega():
    # (2,0) has one distinct prime but two with multiplicity
    uni = build_universe(Signature((2, 1)), "omega", 2)
    assert uni == ((1, 1), (2, 1))


def test_universe_empty_for_large_t():
    uni = build_universe(Signature((1, 1)), "omega", 5)
    assert uni == ()


def test_t_one_needs_opt_in():
    with pytest.raises(ValueError, match="allow_t1"):
        solve_restricted(Signature((1, 1)), "omega", 1)
    res = solve_restricted(Signature((1, 1)), "omega", 1, allow_t1=True)
    # two isolated primes: two singleton maximal families
    assert res.value == 1
    assert res.attaining_count == 2
    assert res.note is not None


def test_unknown_mode_and_maximality():
    with pytest.raises(ValueError, match="unknown mode"):
        solve_restricted(Signature((1, 1)), "count", 2)
    with pytest.raises(ValueError, match="unknown maximality"):
        solve_restricted(Signature((1, 1)), "omega", 2, maximality="local")


def test_solve_three_primes_omega():
    res = solve_restricted(Signature((1, 1, 1)), "omega", 2)
    assert res.status == "ok"
    assert res.value == 3
    assert res.attaining_count == 1
    assert res.universe_size == 3
    assert res.witnesses[0].members == ((1, 1, 0), (1, 0, 1), (0, 1, 1))


def test_solve_bigomega_examples():
    res = solve_restricted(Signature((2, 1)), "bigomega", 2)
    assert (res.value, res.attaining_count, res.universe_size) == (2, 1, 2)
    res = solve_restricted(Signature((2, 2)), "bigomega", 2)
    # path p1^2 -- p1p2 -- p2^2: two maximal edges
    assert (res.value, res.attaining_count, res.universe_size) == (2, 2, 3)


def test_solve_four_primes_omega():
    """Pairs from four primes: stars and triangles, all of size three."""
    res = solve_restricted(Signature((1, 1, 1, 1)), "omega", 2)
    assert res.status == "ok"
    assert res.value == 3
    assert res.attaining_count == 8
    assert res.universe_size == 6
    for fam in res.witnesses:
        assert len(fam) == 3


def test_full_support_universe_is_one_clique():
    """With t = n every member uses all primes, so the graph is complete."""
    res = solve_restricted(Signature((2, 2, 1)), "omega", 3)
    assert res.status == "ok"
    assert res.value == res.universe_size == 4
    assert res.attaining_count == 1


def test_empty_universe_status():
    res = solve_restricted(Signature((1, 1)), "omega", 5)
    assert res.status == "empty-universe"
    assert res.value == 0
    assert res.attaining_count == 0
    assert res.universe_size == 0
    assert res.witnesses == ()


def test_global_maximality_can_filter_everything():
    # {p1p2} cannot be maximal among all divisors of p1p2: p1 extends it
    res = solve_restricted(Signature((1, 1)), "omega", 2, maximality="global")
    assert res.status == "no-maximal-family"
    assert res.value == 0


def test_global_maximality_rejects_all_bounded_support():
    # whatever family of prime pairs we pick, the product of all four
    # primes extends it, so nothing here is maximal among all divisors
    res = solve_restricted(
        Signature((1, 1, 1, 1)), "omega", 2, maximality="global")
    assert res.status == "no-maximal-family"
    assert res.universe_size == 6


def test_global_maximality_needs_every_full_divisor():
    """p1...p8 meets every divisor > 1, so a family maximal among all
    divisors holds it; no family of 3- or 4-sets does."""
    for t in (3, 4):
        res = solve_restricted(Signature((1,) * 8), "omega", t,
                               maximality="global")
        assert (res.status, res.nodes) == ("no-maximal-family", 0)


def test_global_maximality_runs_no_search():
    """The global reading is decided by the radical-lift argument: every
    cell of the grid, both modes and every t, visits no search node, and
    only universes of every divisor > 1 (n = 1) have a family."""
    grid = lattice.signature_grid(5, 3) + [
        sig for sig in lattice.signature_grid(6, 2) if sig.n == 6] + [
        Signature((1,) * 7), Signature((1,) * 8)]
    cells = 0
    for sig in grid:
        for mode in restricted.MODES:
            for t in range(1, min(sum(sig.alphas), 9) + 1):
                res = solve_restricted(sig, mode, t, maximality="global",
                                       allow_t1=True)
                assert res.nodes == 0, (sig, mode, t)
                assert (res.status == "ok") == (
                    res.universe_size == sig.divisor_count() - 1), \
                    (sig, mode, t)
                cells += 1
    assert cells == 902


def test_global_maximality_can_succeed():
    # one prime, t=1: the universe is every divisor above 1, and that
    # whole set is trivially maximal in the full lattice
    res = solve_restricted(Signature((1,)), "bigomega", 1,
                           maximality="global", allow_t1=True)
    assert res.status == "ok"
    assert res.value == 1
    assert res.attaining_count == 1


def test_universe_cap(monkeypatch):
    """The cap counts the universe's distinct radicals, not its divisors:
    2,2,1 at t=2 has 8 divisors on 3 radicals."""
    sig = Signature((2, 2, 1))
    monkeypatch.setattr(restricted, "RADICAL_CAP", 3)
    assert solve_restricted(sig, "omega", 2).universe_size == 8
    monkeypatch.setattr(restricted, "RADICAL_CAP", 2)
    with pytest.raises(ResourceLimitError,
                       match=r"distinct radicals in the universe is 3, above "
                             r"the cap of 2 \(restricted\.RADICAL_CAP"):
        solve_restricted(sig, "omega", 2)


def test_materialize_cap_hides_witnesses_only():
    res = solve_restricted(Signature((1, 1, 1)), "omega", 2,
                           materialize_cap=2)
    assert res.witnesses is None
    assert res.value == 3
    assert res.attaining_count == 1


def test_witnesses_are_unextendable_in_universe():
    for alphas, mode, t in [((1, 1, 1), "omega", 2),
                            ((2, 2), "bigomega", 2),
                            ((2, 1, 1), "omega", 2)]:
        sig = Signature(alphas)
        res = solve_restricted(sig, mode, t)
        uni = build_universe(sig, mode, t)
        for fam in res.witnesses:
            for d in uni:
                if d in fam:
                    continue
                assert any(is_coprime(d, q) for q in fam)


def test_two_order_guard_catches_engine_faults(monkeypatch):
    """A search that loses one minimum set, finds one twice, or misreads
    the weight, under the reversed order only is caught."""
    real = restricted._lightest
    faults = {
        "a set lost": lambda value, sets: (value, sets[1:]),
        "a set twice": lambda value, sets: (value, sets + sets[:1]),
        "the weight": lambda value, sets: (value + 1, sets),
    }
    for fault in faults.values():
        calls = {"n": 0}

        def flaky(*args, fault=fault):
            value, sets, spent = real(*args)
            calls["n"] += 1
            if calls["n"] == 2:
                value, sets = fault(value, sets)
            return value, sets, spent

        monkeypatch.setattr(restricted, "_lightest", flaky)
        # pairs from four primes: one component with 8 minimum sets
        with pytest.raises(DivintError, match="unsound"):
            solve_restricted(Signature((1, 1, 1, 1)), "omega", 2)


def test_sweep_shape_and_order():
    rows = sweep_tables(2, 2, [2], "omega")
    assert [r["signature"] for r in rows] == ["1", "2", "1,1", "2,1", "2,2"]
    for row in rows:
        assert set(row) == {"signature", "n", "mode", "t", "maximality",
                            "universe_size", "status", "value",
                            "attaining_count", "error"}
        assert row["mode"] == "omega"
        assert row["t"] == 2
        assert row["error"] is None
    by_sig = {r["signature"]: r for r in rows}
    assert by_sig["1"]["status"] == "empty-universe"
    assert by_sig["2"]["status"] == "empty-universe"
    assert by_sig["1,1"]["value"] == 1
    assert by_sig["2,1"]["value"] == 2
    assert by_sig["2,2"]["value"] == 4


def test_sweep_multiple_t_sorted():
    rows = sweep_tables(1, 3, [3, 2], "bigomega")
    # per signature, t cells appear in ascending order
    assert [(r["signature"], r["t"]) for r in rows] == [
        ("1", 2), ("1", 3), ("2", 2), ("2", 3), ("3", 2), ("3", 3)]


def test_sweep_empty_t_values():
    assert sweep_tables(2, 2, [], "omega") == []


def test_sweep_builds_no_witness_families(monkeypatch):
    """A sweep row carries counts only, so no cell lifts or sorts its
    minimum sets."""
    calls = []
    real = oracle.family_sort_key

    def spy(fam):
        calls.append(fam)
        return real(fam)

    monkeypatch.setattr(oracle, "family_sort_key", spy)
    rows = sweep_tables(3, 2, [1, 2, 3], "omega", allow_t1=True)
    assert sum(r["status"] == "ok" for r in rows) > 0
    assert calls == []
    solve_restricted(Signature((1, 1, 1)), "omega", 2)
    assert len(calls) == 1


def test_sweep_records_resource_errors(monkeypatch):
    monkeypatch.setattr(restricted, "RADICAL_CAP", 1)
    rows = sweep_tables(3, 1, [2, 3], "omega")
    cells = {(r["signature"], r["t"]): r for r in rows}
    failed = cells["1,1,1", 2]  # three radicals
    assert failed["status"] == "error"
    assert "radicals" in failed["error"]
    assert failed["value"] is None
    # the sweep keeps going past the failed cell
    assert cells["1,1,1", 3]["status"] == "ok"
    assert len(rows) == 6


def test_sweep_honours_universe_cap(monkeypatch):
    monkeypatch.setattr(restricted, "RADICAL_CAP", 2)
    rows = sweep_tables(3, 2, [2], "omega")
    by_sig = {r["signature"]: r for r in rows}
    assert by_sig["2,1"]["status"] == "ok"  # universe of 2
    assert by_sig["2,2"]["status"] == "ok"  # 4 divisors on one radical
    refused = [r for r in rows if r["status"] == "error"]
    assert {r["signature"] for r in refused} == {
        "1,1,1", "2,1,1", "2,2,1", "2,2,2"}
    assert all("restricted.RADICAL_CAP" in r["error"] for r in refused)
    assert all(r["universe_size"] is None for r in refused)


def reference_cell(sig, mode, t, maximality, allow_t1=False):
    """The full-universe solver: both vertex orders over every divisor of the
    universe, and one family per maximal Bron-Kerbosch clique."""
    universe = build_universe(sig, mode, t, allow_t1)
    if not universe:
        return "empty-universe", 0, 0, 0, ()
    rads = [lattice.radical(d) for d in universe]
    asc = {frozenset(lattice.iter_bits(c))
           for c in oracle.maximal_cliques(rads)}
    flip = len(rads) - 1
    desc = {frozenset(flip - v for v in lattice.iter_bits(c))
            for c in oracle.maximal_cliques(rads[::-1])}
    assert asc == desc
    fams = [DivisorFamily(universe[v] for v in idxs) for idxs in asc]
    if maximality == "global":
        fams = [f for f in fams if check_maximal(f, sig).is_maximal]
        if not fams:
            return "no-maximal-family", 0, 0, len(universe), ()
    value = min(len(f) for f in fams)
    attaining = sorted((f for f in fams if len(f) == value),
                       key=oracle.family_sort_key)
    return "ok", value, len(attaining), len(universe), tuple(attaining)


@pytest.mark.parametrize("maximality", restricted.MAXIMALITIES)
@pytest.mark.parametrize("mode", restricted.MODES)
def test_twin_quotient_matches_full_universe_search(mode, maximality):
    grid = lattice.signature_grid(4, 3) + [
        sig for sig in lattice.signature_grid(5, 2) if sig.n == 5]
    for sig in grid:
        for t in (1, 2, 3, 4):
            res = solve_restricted(sig, mode, t, maximality=maximality,
                                   allow_t1=True)
            assert (res.status, res.value, res.attaining_count,
                    res.universe_size, res.witnesses) == \
                reference_cell(sig, mode, t, maximality, True), (sig, t)


def test_clique_search_runs_on_distinct_radicals(monkeypatch):
    """p^a q^b, 1 <= a, b <= 3: nine divisors, one radical, one vertex."""
    seen = []
    real = restricted._lightest

    def spy(rows, *args):
        seen.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(restricted, "_lightest", spy)
    res = solve_restricted(Signature((3, 3)), "omega", 2)
    assert seen == [1, 1]
    assert (res.value, res.attaining_count, res.universe_size) == (9, 1, 9)
    assert len(res.witnesses[0]) == 9


def test_node_cap_refuses_a_search(monkeypatch):
    # pairs from four primes: one component, searched under both orders
    sig = Signature((1, 1, 1, 1))
    nodes = solve_restricted(sig, "omega", 2).nodes
    monkeypatch.setattr(restricted, "NODE_CAP", nodes)
    assert solve_restricted(sig, "omega", 2).attaining_count == 8
    monkeypatch.setattr(restricted, "NODE_CAP", nodes - 1)
    with pytest.raises(ResourceLimitError, match="restricted.NODE_CAP"):
        solve_restricted(sig, "omega", 2)
    rows = sweep_tables(4, 1, [2], "omega")
    assert [r["status"] for r in rows] == [
        "empty-universe", "ok", "ok", "error"]
    assert "restricted.NODE_CAP" in rows[-1]["error"]


def test_search_nodes_are_a_fixed_count():
    """The work of the benchmark's heavy cell, both orders together."""
    res = solve_restricted(Signature((1,) * 8), "omega", 3)
    assert (res.value, res.attaining_count, res.nodes) == (7, 240, 10544)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_below_twice_t_the_universe_is_the_one_family(n):
    """With n < 2t any two t-sets meet: the whole universe is maximal."""
    res = solve_restricted(Signature((1,) * n), "omega", 3)
    assert (res.value, res.attaining_count) == (comb(n, 3), 1)
    assert res.witnesses[0].members == build_universe(
        Signature((1,) * n), "omega", 3)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_squarefree_at_twice_t_is_one_of_each_complementary_pair(t):
    """n = 2t: a t-set misses only its complement, so a maximal family takes
    one set of each of the C(2t-1, t-1) complementary pairs."""
    pairs = comb(2 * t - 1, t - 1)
    res = solve_restricted(Signature((1,) * (2 * t)), "omega", t)
    assert (res.value, res.attaining_count) == (pairs, 2 ** pairs)
    assert (res.witnesses is None) == \
        (pairs * 2 ** pairs > families.MEMBER_CAP)


@pytest.mark.parametrize("n,count", [(7, 30), (9, 1080)])
def test_fano_planes_are_the_t3_minimum(n, count):
    """The lines of a Fano plane on 7 of the primes: 7!/168 = 30 labelled
    planes per 7-set, C(n, 7) * 30 in all."""
    res = solve_restricted(Signature((1,) * n), "omega", 3)
    assert (res.value, res.attaining_count) == (7, comb(n, 7) * 30)


def test_squares_at_twice_t_weigh_each_radical():
    """2^8, t = 4: the squarefree answer with each radical weighing 2^4.
    Its 1120 divisors lie on 70 radicals, within RADICAL_CAP."""
    res = solve_restricted(Signature((2,) * 8), "omega", 4)
    assert (res.value, res.attaining_count, res.universe_size) == \
        (35 * 16, 2 ** 35, 1120)
    assert res.witnesses is None  # 2^35 families, far above the cap


def is_coprime(a, b):
    """True iff the divisors share no prime."""
    if len(a) != len(b):
        raise ValueError("divisors come from different lattices")
    return not any(x and y for x, y in zip(a, b))


def test_coprime():
    assert is_coprime((1, 0), (0, 1))
    assert not is_coprime((2, 1), (1, 0))
    assert is_coprime((0, 0), (1, 1))
    with pytest.raises(ValueError):
        is_coprime((1, 0), (1, 0, 0))


def verify_witness_by_tuples(fam, universe):
    """Reference: the tuple-level re-check, every universe member against
    every witness member."""
    allowed = set(universe)
    for d in fam:
        if d not in allowed:
            raise DivintError(f"witness member {d} lies outside the universe")
    if not families.check_intersecting(fam).is_intersecting:
        raise DivintError("witness family contains a coprime pair")
    for d in universe:
        if d in fam:
            continue
        if all(not is_coprime(d, q) for q in fam):
            raise DivintError(
                f"witness family is not maximal in the universe: {d} extends it"
            )


def verify_witness_by_minimal_radicals(fam, universe):
    """Reference: each universe member's radical against the family's
    minimal radicals; a divisor meets every member exactly when it meets
    each minimal radical, since every radical contains a minimal one."""
    allowed = set(universe)
    for d in fam:
        if d not in allowed:
            raise DivintError(f"witness member {d} lies outside the universe")
    if not families.check_intersecting(fam).is_intersecting:
        raise DivintError("witness family contains a coprime pair")
    mins = antichains.minimal_masks({lattice.radical(d) for d in fam})
    for d in universe:
        if d in fam:
            continue
        r = lattice.radical(d)
        if all(r & m for m in mins):
            raise DivintError(
                f"witness family is not maximal in the universe: {d} extends it"
            )


def _witness_verdict(check, *args):
    try:
        check(*args)
    except DivintError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("mode", restricted.MODES)
def test_witness_check_matches_tuple_referee(mode):
    """Every witness of the grid passes the mask-level check and both
    referees.  With one radical class taken out, or one more put in, all
    three give the same verdict, naming the same first extension."""
    refusals = 0
    for sig in lattice.signature_grid(4, 3):
        for t in (2, 3):
            res = solve_restricted(sig, mode, t)
            universe = build_universe(sig, mode, t)
            rads, classes = restricted._twin_classes(universe)
            every = (1 << len(rads)) - 1

            def lift(chosen):
                return DivisorFamily(d for v in lattice.iter_bits(chosen)
                                     for d in classes[v])

            for fam in res.witnesses:
                chosen = sum(1 << v for v, c in enumerate(classes)
                             if c[0] in fam)
                assert lift(chosen) == fam
                cases = [chosen] + [chosen ^ 1 << v for v in range(len(rads))]
                for case in cases:
                    verdict = _witness_verdict(restricted._check_witness,
                                               rads, every, case, classes)
                    for referee in (verify_witness_by_tuples,
                                    verify_witness_by_minimal_radicals):
                        assert verdict == _witness_verdict(
                            referee, lift(case), universe), (sig, t, case)
                    refusals += verdict is not None
                assert _witness_verdict(restricted._check_witness,
                                        rads, every, chosen, classes) is None
    assert refusals > 0
