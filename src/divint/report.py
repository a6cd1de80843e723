"""Deterministic report documents and serialization.

Every run with the same inputs must emit byte-identical output, whatever the
thread count: keys are sorted, arrays are canonically ordered upstream, and
nothing time- or schedule-dependent enters the payload.  Elapsed time is a
stderr concern, not part of any document.
"""

from __future__ import annotations

from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from ._version import __version__
from .families import DivisorFamily
from .lattice import (MAX_DIVISORS, Divisor, Signature, display_value,
                      format_divisor)


def document(command: str, parameters: dict, results: dict) -> dict:
    """Standard report envelope; content must already be deterministic."""
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "tool_version": __version__,
    }


# Containers nested less deeply than this write their pieces straight into
# the document's one list of parts; deeper subtrees are each joined into one
# string first, which keeps that list short.
_STREAMED_DEPTH = 3


def json_dumps(doc) -> str:
    """The document as `json.dumps(doc, sort_keys=True, indent=2)` plus a newline.

    The output is byte-identical to that call and ASCII-only.  Only what
    divint emits is accepted: dicts with str keys, lists, tuples, str, bool,
    int and None; anything else raises TypeError.

    A container that appears several times in the document, such as the
    shared `divisor_obj` dicts, is encoded once per indent: its text is
    memoized by `(id(o), indent)` for the length of the call.  The document
    keeps every subtree alive until the call returns, so no id is reused
    within it; the memo is dropped on return.
    """
    parts: list[str] = []
    _stream(doc, "\n", 0, parts, {})
    parts.append("\n")
    return "".join(parts)


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


def _encode(o, indent: str, memo: dict) -> str:
    """One value as a string; `indent` is the newline and indent of its line.

    `memo` maps `(id(container), indent)` to the text already encoded.
    """
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    key = (id(o), indent)
    text = memo.get(key)
    if text is None:
        opening, closing, labels, values = _container(o)
        if values:
            inner = indent + "  "
            body = ("," + inner).join([label + _encode(v, inner, memo)
                                       for label, v in zip(labels, values)])
            text = opening + inner + body + indent + closing
        else:
            text = opening + closing
        memo[key] = text
    return text


def _stream(o, indent: str, depth: int, parts: list[str], memo: dict) -> None:
    """Append the pieces of `o` to `parts`, joining subtrees from a depth on."""
    if depth == _STREAMED_DEPTH or type(o) in _SCALARS or not o:
        parts.append(_encode(o, indent, memo))
        return
    opening, closing, labels, values = _container(o)
    inner = indent + "  "
    sep = opening + inner
    for label, v in zip(labels, values):
        parts.append(sep + label)
        _stream(v, inner, depth + 1, parts, memo)
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


@lru_cache(maxsize=MAX_DIVISORS)
def divisor_obj(d: Divisor, primes=None) -> dict:
    """JSON shape of one divisor; `value` only under a concrete prime labeling.

    Cached: equal arguments get the same dict, so a listing holds one object
    per divisor and `json_dumps` encodes it once.  The dict is shared and
    must never be mutated.
    """
    obj = {"exponents": list(d), "symbol": format_divisor(d)}
    if primes is not None:
        obj["value"] = display_value(d, primes)
    return obj


def family_obj(fam: DivisorFamily, primes=None) -> dict:
    return {
        "size": len(fam),
        "members": [divisor_obj(d, primes) for d in fam.members],
    }


def signature_obj(sig: Signature) -> dict:
    return {
        "exponents": list(sig.alphas),
        "n": sig.n,
        "normalized_from": list(sig.original) if sig.was_normalized else None,
    }
