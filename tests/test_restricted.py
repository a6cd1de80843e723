"""Tests for the restricted-universe minimum solvers."""

import pytest

from divint import families, lattice, oracle, restricted
from divint.errors import DivintError, ResourceLimitError
from divint.families import DivisorFamily, FamilyReport, check_maximal
from divint.lattice import Signature
from divint.restricted import build_universe, solve_restricted, sweep_tables


def test_universe_omega_three_primes():
    uni = build_universe(Signature((1, 1, 1)), "omega", 2)
    assert uni.members == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert len(uni) == 3


def test_universe_bigomega():
    uni = build_universe(Signature((2, 1)), "bigomega", 2)
    assert uni.members == ((2, 0), (1, 1))


def test_universe_omega_vs_bigomega():
    # (2,0) has one distinct prime but two with multiplicity
    uni = build_universe(Signature((2, 1)), "omega", 2)
    assert uni.members == ((1, 1), (2, 1))


def test_universe_empty_for_large_t():
    uni = build_universe(Signature((1, 1)), "omega", 5)
    assert uni.members == ()


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


def test_global_maximality_can_succeed():
    # one prime, t=1: the universe is every divisor above 1, and that
    # whole set is trivially maximal in the full lattice
    res = solve_restricted(Signature((1,)), "bigomega", 1,
                           maximality="global", allow_t1=True)
    assert res.status == "ok"
    assert res.value == 1
    assert res.attaining_count == 1


def test_universe_cap():
    with pytest.raises(ResourceLimitError, match="universe"):
        solve_restricted(Signature((2, 2, 1)), "omega", 2, universe_cap=3)


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
            for d in uni.members:
                if d in fam:
                    continue
                from divint.lattice import is_coprime
                assert any(is_coprime(d, q) for q in fam)


def test_two_order_guard_catches_engine_faults(monkeypatch):
    calls = {"n": 0}
    real = oracle.maximal_cliques

    def flaky(rads):
        calls["n"] += 1
        if calls["n"] == 2:
            return []
        return real(rads)

    monkeypatch.setattr(oracle, "maximal_cliques", flaky)
    with pytest.raises(DivintError, match="unsound"):
        solve_restricted(Signature((1, 1, 1)), "omega", 2)


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


def test_sweep_records_resource_errors(monkeypatch):
    real = restricted.solve_restricted

    def capped(sig, mode, t, **kw):
        kw["universe_cap"] = 1
        return real(sig, mode, t, **kw)

    monkeypatch.setattr(restricted, "solve_restricted", capped)
    rows = sweep_tables(2, 2, [2], "omega")
    by_sig = {r["signature"]: r for r in rows}
    assert by_sig["2,2"]["status"] == "error"
    assert "universe" in by_sig["2,2"]["error"]
    assert by_sig["2,2"]["value"] is None
    # the sweep keeps going past the failed cell
    assert by_sig["1,1"]["status"] == "ok"
    assert len(rows) == 5


def test_sweep_honours_universe_cap():
    rows = sweep_tables(3, 2, [2], "omega", universe_cap=2)
    by_sig = {r["signature"]: r for r in rows}
    assert by_sig["2,1"]["status"] == "ok"  # universe of 2
    refused = [r for r in rows if r["status"] == "error"]
    assert {r["signature"] for r in refused} == {
        "2,2", "1,1,1", "2,1,1", "2,2,1", "2,2,2"}
    assert all("universe_cap" in r["error"] for r in refused)
    assert all(r["universe_size"] is None for r in refused)


def reference_cell(sig, mode, t, maximality):
    """The full-universe solver: both vertex orders over every divisor of the
    universe, and one family per maximal clique."""
    universe = build_universe(sig, mode, t).members
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
    for sig in lattice.signature_grid(4, 3):
        for t in (2, 3):
            res = solve_restricted(sig, mode, t, maximality=maximality)
            assert (res.status, res.value, res.attaining_count,
                    res.universe_size, res.witnesses) == \
                reference_cell(sig, mode, t, maximality), (sig, t)


def test_global_mode_takes_the_lightest_passing_cliques(monkeypatch):
    """No cell of the grid has globally maximal cliques of two sizes, so a
    stub that passes every clique pins the ascending scan: global mode must
    then answer exactly as restricted mode."""
    passed = FamilyReport(is_intersecting=True, is_maximal=True)
    expected = {
        (sig, mode): solve_restricted(sig, mode, 2)
        for sig in lattice.signature_grid(4, 3) for mode in restricted.MODES
    }
    monkeypatch.setattr(families, "check_maximal", lambda f, sig: passed)
    for (sig, mode), res in expected.items():
        glob = solve_restricted(sig, mode, 2, maximality="global")
        assert (glob.status, glob.value, glob.attaining_count,
                glob.witnesses) == (res.status, res.value,
                                    res.attaining_count, res.witnesses)


def test_clique_search_runs_on_distinct_radicals(monkeypatch):
    """p^a q^b, 1 <= a, b <= 3: nine divisors, one radical, one vertex."""
    seen = []
    real = oracle.maximal_cliques

    def spy(rads):
        seen.append(len(rads))
        return real(rads)

    monkeypatch.setattr(oracle, "maximal_cliques", spy)
    res = solve_restricted(Signature((3, 3)), "omega", 2)
    assert seen == [1, 1]
    assert (res.value, res.attaining_count, res.universe_size) == (9, 1, 9)
    assert len(res.witnesses[0]) == 9


def test_clique_cap_refuses_a_search(monkeypatch):
    # pairs from four primes: 4 stars and 4 triangles
    sig = Signature((1, 1, 1, 1))
    monkeypatch.setattr(oracle, "CLIQUE_CAP", 8)
    assert solve_restricted(sig, "omega", 2).attaining_count == 8
    monkeypatch.setattr(oracle, "CLIQUE_CAP", 7)
    with pytest.raises(ResourceLimitError, match="oracle.CLIQUE_CAP"):
        solve_restricted(sig, "omega", 2)
    rows = sweep_tables(4, 1, [2], "omega")
    assert [r["status"] for r in rows] == [
        "empty-universe", "ok", "ok", "error"]
    assert "oracle.CLIQUE_CAP" in rows[-1]["error"]


def verify_witness_by_tuples(fam, universe):
    """Reference: the tuple-level re-check, every universe member against
    every witness member."""
    allowed = set(universe.members)
    for d in fam:
        if d not in allowed:
            raise DivintError(f"witness member {d} lies outside the universe")
    if not families.check_intersecting(fam).is_intersecting:
        raise DivintError("witness family contains a coprime pair")
    for d in universe.members:
        if d in fam:
            continue
        if all(not lattice.is_coprime(d, q) for q in fam):
            raise DivintError(
                f"witness family is not maximal in the universe: {d} extends it"
            )


def _witness_verdict(check, fam, universe):
    try:
        check(fam, universe)
    except DivintError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("mode", restricted.MODES)
def test_witness_check_matches_tuple_referee(mode):
    """Every witness of the grid passes both checks; with any one member
    taken out, both name the same first extension."""
    refusals = 0
    for sig in lattice.signature_grid(4, 3):
        for t in (2, 3):
            res = solve_restricted(sig, mode, t)
            universe = build_universe(sig, mode, t)
            for fam in res.witnesses:
                cases = [fam] + [DivisorFamily(d for d in fam if d != x)
                                 for x in fam.members]
                for case in cases:
                    verdict = _witness_verdict(
                        restricted._verify_witness, case, universe)
                    assert verdict == _witness_verdict(
                        verify_witness_by_tuples, case, universe)
                    refusals += verdict is not None
                assert _witness_verdict(
                    restricted._verify_witness, fam, universe) is None
    assert refusals > 0
