"""Tests for the restricted-universe minimum solvers."""

import pytest

from divint import oracle, restricted
from divint.errors import DivintError, ResourceLimitError
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
