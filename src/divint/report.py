"""Deterministic report documents and serialization.

Every run with the same inputs must emit byte-identical output, whatever the
thread count: keys are sorted, arrays are canonically ordered upstream, and
nothing time- or schedule-dependent enters the payload.  Elapsed time is a
stderr concern, not part of any document.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence
from json.encoder import encode_basestring_ascii as _quote

from ._version import __version__
from .lattice import Divisor, Signature, display_value, format_divisor


def document(command: str, parameters: dict, results: dict) -> dict:
    """Standard report envelope; content must already be deterministic."""
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "tool_version": __version__,
    }


# Containers nested less deeply than this are streamed piece by piece;
# deeper subtrees, such as one listed family, are each encoded as one string.
_STREAMED_DEPTH = 3

# `iter_json` joins and yields its waiting pieces once this many wait.
_CHUNK_PARTS = 64

# A value's text is memoized only when shorter than this, which the texts
# of scalars and of a command's shared divisor and pairing-entry objects
# are; a whole family's is not, so the memo never holds a second copy of
# the document.
_MEMO_MAX = 512


def iter_json(doc) -> Iterator[str]:
    """The document as `json.dumps(doc, sort_keys=True, indent=2)` plus a
    newline, in chunks: one is yielded as soon as `_CHUNK_PARTS` pieces
    wait, so a listing is written as it is encoded.

    The output is byte-identical to that call and ASCII-only.  Only what
    divint emits is accepted: dicts with str keys, lists, tuples, str, bool,
    int and None; anything else raises TypeError.

    A short value that appears several times in the document, such as a
    listing's shared divisor objects, is encoded once per indent: its text
    is memoized by `id` in a dict per indent for the length of the walk.  The
    document keeps every subtree alive until the walk ends, so no id is
    reused within it; the memo is dropped with the generator.
    """
    parts: list[str] = []
    yield from _stream(doc, "\n", 0, parts, {})
    parts.append("\n")
    yield "".join(parts)


def json_dumps(doc) -> str:
    """The whole document of `iter_json` as one string."""
    return "".join(iter_json(doc))


# Encoders of the scalar types, looked up by exact type: bool is not int here.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _container(o) -> tuple[str, str, list, list]:
    """Brackets, per-item labels and values of a dict, list or tuple."""
    if type(o) is dict:
        keys = sorted(o)
        for k in keys:
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        return "{", "}", [_quote(k) + ": " for k in keys], [o[k] for k in keys]
    if type(o) in (list, tuple):
        return "[", "]", [""] * len(o), o
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _encode(o, indent: str, memos: dict) -> str:
    """One value as a string; `indent` is the newline and indent of its line.

    `memos` maps an indent to the memo of texts at that indent, keyed by the
    `id` of their value.  Every child, scalar or container, is read from
    that memo or encoded and, when short, added to it.
    """
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    opening, closing, labels, values = _container(o)
    if not values:
        return opening + closing
    inner = indent + "  "
    memo = memos.get(inner)
    if memo is None:
        memo = memos[inner] = {}
    pieces = []
    for label, v in zip(labels, values):
        text = memo.get(id(v))
        if text is None:
            text = _encode(v, inner, memos)
            if len(text) < _MEMO_MAX:
                memo[id(v)] = text
        pieces.append(label + text)
    return opening + inner + ("," + inner).join(pieces) + indent + closing


def _stream(o, indent: str, depth: int, parts: list[str],
            memos: dict) -> Iterator[str]:
    """Append the pieces of `o` to `parts`, joining subtrees from a depth
    on, and yield the joined pieces whenever `_CHUNK_PARTS` are waiting."""
    if depth == _STREAMED_DEPTH or type(o) in _SCALARS or not o:
        parts.append(_encode(o, indent, memos))
        return
    opening, closing, labels, values = _container(o)
    inner = indent + "  "
    sep = opening + inner
    for label, v in zip(labels, values):
        parts.append(sep + label)
        yield from _stream(v, inner, depth + 1, parts, memos)
        if len(parts) >= _CHUNK_PARTS:
            yield "".join(parts)
            parts.clear()
        sep = "," + inner
    parts.append(indent + closing)


def csv_dumps(rows: list[dict], fieldnames: list[str]) -> str:
    # imported here so that text and JSON runs never load csv
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k) for k in fieldnames})
    return buf.getvalue()


class Table(dict):
    """A dict that builds a missing key's value as `build(key, *args)` and
    keeps it.

    A command keeps its display objects in tables of its own, so every
    listed family, generator and pairing holds the one object of each
    divisor, mask or entry, and `iter_json` encodes it once per indent.
    The objects are shared and must never be mutated; the tables go with
    the command's results.
    """

    __slots__ = ("build", "args")

    def __init__(self, build: Callable, *args):
        super().__init__()
        self.build = build
        self.args = args

    def __missing__(self, key):
        value = self[key] = self.build(key, *self.args)
        return value


def divisor_obj(d: Divisor, primes=None) -> dict:
    """JSON shape of one divisor; `value` only under a concrete prime labeling.

    A listing builds one per divisor, in a `Table` it keeps for the command.
    """
    obj = {"exponents": list(d), "symbol": format_divisor(d)}
    if primes is not None:
        obj["value"] = display_value(d, primes)
    return obj


def family_obj(members: Sequence[dict]) -> dict:
    """JSON shape of a family, given as its members' `divisor_obj` dicts in
    canonical order."""
    return {"size": len(members), "members": members}


def signature_obj(sig: Signature) -> dict:
    return {
        "exponents": list(sig.alphas),
        "n": sig.n,
        "normalized_from": list(sig.original) if sig.was_normalized else None,
    }
