"""The JSON encoder against the standard library's indented encoder."""

import hashlib
import json
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from divint import cli, report

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "divbench"
                     / "golden.json").read_text())
LISTING = ["extremal", "--sig", "1,1,1,1,1,1", "--list", "--format", "json"]

ESCAPES = st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é €😀ab', max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-10**60, 10**60) | st.text() | ESCAPES)
KEYS = st.text(max_size=6) | ESCAPES


def trees():
    return st.recursive(
        SCALARS,
        lambda kids: (st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=4).map(tuple)
                      | st.dictionaries(KEYS, kids, max_size=4)),
        max_leaves=40,
    )


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def streamed(doc) -> str:
    """The joined chunks of `iter_json`, with a chunk yielded after as few
    as one waiting piece and as many as the default."""
    outs = set()
    for parts in (1, 2, report._CHUNK_PARTS):
        with mock.patch.object(report, "_CHUNK_PARTS", parts):
            outs.add("".join(report.iter_json(doc)))
    assert len(outs) == 1
    return outs.pop()


# Wrappers that push a tree below the depth from which subtrees are joined.
WRAPS = {
    "list": lambda t: [t, 2],
    "tuple": lambda t: (t,),
    "dict": lambda t: {"k": t, "": 1},
}


@given(trees(), st.lists(st.sampled_from(sorted(WRAPS)), max_size=6))
@settings(deadline=None, max_examples=300)
@example({"a": [True, 1, False, 0, None], "b": {}, "c": [[], {}, ()]}, [])
@example([], ["dict", "list", "dict", "list", "dict"])
def test_json_dumps_matches_stdlib(tree, wraps):
    for w in wraps:
        tree = WRAPS[w](tree)
    out = report.json_dumps(tree)
    assert out == stdlib(tree) == streamed(tree)
    assert out.isascii()


@st.composite
def shared_trees(draw):
    """A tree whose leaves may be one shared container object, repeatedly."""
    shared = draw(st.lists(SCALARS, min_size=1, max_size=3)
                  | st.dictionaries(KEYS, SCALARS, min_size=1, max_size=3)
                  | trees().filter(lambda t: isinstance(t, (list, dict))))
    tree = draw(st.recursive(
        SCALARS | st.just(shared),
        lambda kids: (st.lists(kids, max_size=4)
                      | st.dictionaries(KEYS, kids, max_size=4)),
        max_leaves=20,
    ))
    return shared, tree


@given(shared_trees())
@settings(deadline=None, max_examples=300)
@example(([1, {"a": None}], [[1, {"a": None}]]))
def test_json_dumps_matches_stdlib_on_shared_subtrees(case):
    """The same object repeated at one depth and at several depths, both
    above and below the depth from which subtrees are joined."""
    shared, tree = case
    doc = {"at": [shared, shared], "tree": tree,
           "deep": [[shared, [shared, {"k": shared}]], shared]}
    assert report.json_dumps(doc) == stdlib(doc) == streamed(doc)
    assert report.json_dumps(shared) == stdlib(shared) == streamed(shared)


def test_only_short_texts_are_memoized():
    """A repeated container is encoded once per indent only while its text
    is short, so a memo never holds a second copy of a listed family; the
    bytes are the same either way."""
    short = {"a": [1, 2]}
    long = ["x" * report._MEMO_MAX]
    # below the depth from which subtrees are encoded whole
    doc = {"d": {"e": {"s": [short, short, [short]],
                       "l": [long, long, [long]]}}}
    encoded = []
    real = report._encode

    def counted(o, indent, memos):
        encoded.append(o)
        return real(o, indent, memos)

    with mock.patch.object(report, "_encode", counted):
        assert report.json_dumps(doc) == stdlib(doc)
    assert sum(o is short for o in encoded) == 2  # one per indent
    assert sum(o is long for o in encoded) == 3  # every time


class Sink:
    """A stdout that keeps only the count and the SHA-256 of what it got."""

    def __init__(self):
        self.writes = 0
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.writes += 1
        self.sha.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_listing_is_written_as_it_is_built(monkeypatch, tmp_path, capsys):
    """The 1^6 listing reaches stdout in many chunks, with the golden bytes."""
    monkeypatch.chdir(tmp_path)
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(LISTING) == GOLDEN[" ".join(LISTING)]["exit"] == 0
    assert sink.sha.hexdigest() == GOLDEN[" ".join(LISTING)]["sha256"]
    assert sink.writes > 1


def test_listing_peak_memory(monkeypatch, tmp_path, capsys):
    """Streamed to a null sink, the 1^6 listing allocates at most 20 MB at
    its peak (about 54 MB when the document was joined before it was
    written).  tracemalloc counts Python allocations, not the host's pages,
    so the figure does not depend on the machine."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        assert cli.main(LISTING) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_divisor_obj_is_one_shared_object_per_divisor():
    """Within one listing, the generators and the families hold one shared
    object per divisor, the `divisor_obj` shape under the listing's primes."""
    assert report.divisor_obj((2, 0, 1), (2, 3, 5)) == {
        "exponents": [2, 0, 1], "symbol": "p1^2*p3", "value": 20}
    assert report.divisor_obj((2, 0, 1), (3, 5, 7))["value"] == 63
    assert report.divisor_obj((2, 0, 1)) == {"exponents": [2, 0, 1],
                                             "symbol": "p1^2*p3"}
    args = cli._build_parser("extremal").parse_args(
        ["extremal", "--n", "420", "--list"])
    _, results, primes = cli.cmd_extremal(args)
    generators = [m for fam in results["generators"] for m in fam["members"]]
    members = [m for fam in results["families"] for m in fam["members"]]
    shared = {}
    for m in generators + members:
        d = tuple(m["exponents"])
        assert shared.setdefault(d, m) is m
        assert m == report.divisor_obj(d, primes)
    assert {id(m) for m in generators} <= {id(m) for m in members}
    assert len(shared) < len(members)


def test_json_dumps_document():
    doc = report.document("bound", {"sig": "2,1"}, {"min_size": 3,
                                                    "rows": [{"x": "é"}]})
    assert report.json_dumps(doc) == stdlib(doc)


@pytest.mark.parametrize("bad", [
    1.5, {"x": [0.0]}, [{1: "a"}], {None: 1}, {"a": {(1,): 2}}, [set()],
])
def test_json_dumps_refuses_what_divint_never_emits(bad):
    with pytest.raises(TypeError):
        report.json_dumps(bad)
