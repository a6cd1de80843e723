"""The JSON encoder against the standard library's indented encoder."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from divint import report

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
    assert out == stdlib(tree)
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
    assert report.json_dumps(doc) == stdlib(doc)
    assert report.json_dumps(shared) == stdlib(shared)


def test_divisor_obj_is_one_shared_object_per_divisor():
    obj = report.divisor_obj((2, 0, 1), (2, 3, 5))
    assert obj == {"exponents": [2, 0, 1], "symbol": "p1^2*p3", "value": 20}
    assert report.divisor_obj((2, 0, 1), (2, 3, 5)) is obj
    assert report.divisor_obj((2, 0, 1), (3, 5, 7))["value"] == 63
    assert report.divisor_obj((2, 0, 1)) == {"exponents": [2, 0, 1],
                                             "symbol": "p1^2*p3"}
    assert report.divisor_obj((2, 0, 1)) is report.divisor_obj((2, 0, 1))


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
