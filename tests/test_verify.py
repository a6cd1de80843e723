"""Tests for the self-check conformance sweep."""

import pytest

from divint import lattice, verify
from divint.errors import ResourceLimitError
from divint.verify import CLAIMS, run_verify


def test_default_grid_passes():
    rep = run_verify(3, 2)
    assert rep.passed
    assert len(rep.rows) == 96
    assert all(r["status"] == "pass" for r in rep.rows)


def test_rows_are_claim_major():
    rep = run_verify(2, 2)
    seen = [r["claim"] for r in rep.rows]
    expect = []
    for claim in CLAIMS:
        expect.extend([claim] * seen.count(claim))
    assert seen == expect


def test_row_schema():
    rep = run_verify(2, 2)
    for r in rep.rows:
        assert set(r) == {"claim", "subject", "status"}
        assert r["status"] == "pass"


def test_subjects_cover_grid_and_grounds():
    rep = run_verify(2, 1)
    subjects = {r["subject"] for r in rep.rows}
    assert {"1", "1,1", "ground=1", "ground=2"} <= subjects


def test_squarefree_law_rows_only_for_squarefree_signatures():
    rep = run_verify(2, 2)
    rows = [r for r in rep.rows if r["claim"] == "squarefree-size-law"]
    assert [r["subject"] for r in rows] == ["1", "1,1"]


def test_injected_fault_is_reported_not_raised(monkeypatch):
    """Perturb the closed form and confirm the sweep records the clash."""
    real = lattice.min_size_bound
    monkeypatch.setattr(lattice, "min_size_bound", lambda sig: real(sig) + 1)
    rep = run_verify(2, 1)
    assert not rep.passed
    bad = [r for r in rep.rows
           if r["claim"] == "min-size-equality" and r["status"] == "fail"]
    assert bad
    ce = bad[0]["counterexample"]
    assert ce["closed_form"] == ce["exhaustive_min"] + 1
    # unaffected structural claims still pass
    ok = [r for r in rep.rows if r["claim"] == "radical-determination"]
    assert all(r["status"] == "pass" for r in ok)


def test_k_cap_refusal_precedes_the_sweep(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a signature was checked before the k_cap refusal")

    monkeypatch.setattr(verify, "_check_sig_claims", boom)
    with pytest.raises(ResourceLimitError, match="k_cap"):
        run_verify(4, 1, k_cap=3)
