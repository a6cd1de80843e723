"""Command-line front end.

Subcommands: bound, extremal, count, antichains, oracle, matching, openprob,
verify.  Each command computes one thing, the `results` of its JSON
document.  Every command accepts --format text|json|csv, and text and CSV
are views of those results (`_text`, `_csv`), so the three forms cannot
disagree; a run builds only the form it prints, and a JSON run formats no
text line and no CSV row; the CSV rows show no family, so under CSV --list
builds none.  JSON output is fully deterministic (sorted keys, canonical
arrays, no timestamps and no echo of --threads, which changes nothing).  The
flags are the only settings: no environment variable or file is read.
Elapsed time goes to stderr only.

Exit codes: 0 success, 2 usage error, 3 resource limit exceeded,
4 theorem-violation diagnostic or internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import antichains, extremal, families, lattice, matching, oracle
from . import report, restricted, verify as verify_mod
from ._version import __version__
from .errors import (DivintError, ResourceLimitError, TheoremViolationError,
                     limit_error)
from .lattice import Signature

# What a command computes: its document's parameters and results, and the
# prime labels of its signature (None without one).  Only the text view of
# `matching --sig --list` reads the labels: a pairing names its generators
# by symbol, not by value.
Run = tuple[dict, dict, Optional[tuple[int, ...]]]

FORMATS = ("text", "json", "csv")


class _UsageError(Exception):
    pass


class _Unselected:
    """Takes the options of a command that argv does not select, and drops
    them: its subparser then costs no `add_argument` call."""

    @staticmethod
    def add_argument(*args, **kwargs) -> None:
        pass


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser; given a `command`, only its subparser gets its
    options.  The others keep their names and help lines, which are all that
    `divint --help` and the parser's own refusals show of them."""
    parser = argparse.ArgumentParser(
        prog="divint",
        description="maximal pairwise-non-coprime divisor families: bounds, "
                    "classification, exhaustive enumeration",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_line: str, takes_sig: bool = True):
        p = sub.add_parser(name, help=help_line)
        if command not in (None, name):
            return _Unselected
        p.add_argument("--format", choices=FORMATS, default="text",
                       help="output format (default text)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; every engine is "
                            "sequential, so it changes nothing")
        if takes_sig:
            p.add_argument("--sig", default=None,
                           help="comma-separated exponents, e.g. 2,1,1,1")
            p.add_argument("--n", type=int, default=None,
                           help="integer to factor instead of --sig, e.g. 420")
        return p

    add("bound", "closed-form minimum size of a maximal family")

    p = add("extremal", "all minimum-size maximal families, by generators")
    p.add_argument("--list", action="store_true",
                   help="print full family memberships, not just generators")

    add("count", "number of minimum-size maximal families")

    p = add("antichains", "generating antichains on k squarefree primes",
            takes_sig=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = add("oracle", "brute-force census of every maximal family")
    p.add_argument("--method", choices=oracle.METHODS, default="radical-lift")
    p.add_argument("--list", action="store_true")

    p = add("matching", "certified complement pairings")
    p.add_argument("--k", type=int, default=None,
                   help="check every upward-closed family on a k-prime ground")
    p.add_argument("--list", action="store_true")

    p = add("openprob", "minimum maximal-family sizes in restricted universes")
    p.add_argument("--mode", choices=restricted.MODES, required=True,
                   help="omega: distinct primes; bigomega: with multiplicity")
    p.add_argument("--t", default=None,
                   help="factor count, or comma list for sweeps, e.g. 2,3")
    p.add_argument("--maximality", choices=restricted.MAXIMALITIES,
                   default="restricted")
    p.add_argument("--allow-t1", action="store_true",
                   help="permit t=1 (outside the stated problem range)")
    p.add_argument("--max-n", type=int, default=None,
                   help="sweep signatures with up to this many primes")
    p.add_argument("--max-exp", type=int, default=None,
                   help="sweep exponent bound (default 2)")
    p.add_argument("--list", action="store_true",
                   help="print witness families (single cell only)")

    p = add("verify", "re-derive every structural law over a grid",
            takes_sig=False)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-exp", type=int, default=2)
    return parser


def _command_in(argv: list[str]) -> Optional[str]:
    """The first word of `argv` that is not an option.  The top-level
    parser has no option that takes a value, so whenever argparse dispatches
    to a command, it is the one this word names."""
    return next((a for a in argv if not a.startswith("-")), None)


def _numbers(text: str, what: str) -> list[int]:
    """Comma-separated numbers of ASCII digits; whitespace around each is
    dropped.  A space inside a number, an underscore or a sign is refused,
    not read as part of a number, and so is an empty component: `2,,1` is
    a typo."""
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise _UsageError(f"cannot parse {what} {text!r}")
    return [int(part) for part in parts]


def _parse_signature(args) -> tuple[Signature, tuple[int, ...]]:
    if args.sig is not None and args.n is not None:
        raise _UsageError("give either --sig or --n, not both")
    if args.sig is not None:
        if not args.sig.strip():
            raise _UsageError("signature is empty")
        sig = Signature(_numbers(args.sig, "signature"))
        return sig, lattice.first_primes(sig.n)
    if args.n is not None:
        return lattice.factor_int(args.n)
    raise _UsageError("one of --sig or --n is required")


def _parse_t(value) -> tuple[int, ...]:
    if value is None:
        raise _UsageError("--t is required, e.g. --t 2 or --t 2,3")
    if not value.strip():
        raise _UsageError("--t is empty")
    return tuple(sorted(set(_numbers(value, "--t value"))))


def _mask_symbol(m: int, k: int) -> str:
    return lattice.format_divisor(lattice.mask_to_divisor(m, k))


def _entry_obj(e: matching.PairingEntry, symbols: report.Table) -> dict:
    """JSON shape of one pairing entry, its masks named from `symbols`."""
    return {
        "position": symbols[e.position],
        "source": symbols[e.source],
        "source_complement": symbols[e.bar_source],
        "alpha": e.alpha_position,
    }


def _lists(args) -> bool:
    """Whether the run builds the families that --list asks for.  The CSV
    rows never show them, so under CSV it builds none."""
    return args.list and args.format != "csv"


def _sig_value(sig: Signature, key: str, value: int) -> Run:
    """One number about one signature, e.g. its bound or its family count."""
    return ({"sig": str(sig)},
            {"signature": report.signature_obj(sig), key: value}, None)


def cmd_bound(args) -> Run:
    sig, _ = _parse_signature(args)
    return _sig_value(sig, "min_size", lattice.min_size_bound(sig))


def cmd_extremal(args) -> Run:
    sig, primes = _parse_signature(args)
    # generators as radical masks, in extremal_families order; none is built.
    # Squarefree divisors sort as their masks, so each is in canonical order.
    gen_masks = extremal._generator_masks(sig)
    n = sig.n
    table = report.Table(report.divisor_obj, primes)
    # a generator member's object by its mask, each mask's divisor built once
    squarefree = report.Table(lambda m: table[lattice.mask_to_divisor(m, n)])
    results = {
        "signature": report.signature_obj(sig),
        "regime": extremal.regime(sig),
        "min_size": lattice.min_size_bound(sig),
        "count": len(gen_masks),
        "generators": [report.family_obj([squarefree[m] for m in gen])
                       for gen in gen_masks],
    }
    if _lists(args):
        radical_sets = extremal.minimum_radical_sets(sig)  # caps checked here
        # each family's members, selected by radical as a lift selects them,
        # from the lattice's divisor objects in canonical order
        objs = [table[d] for d in lattice.divisors(sig)]
        results["families"] = [
            report.family_obj(lattice.on_radicals(sig, frozenset(rads), objs))
            for rads in radical_sets]
    return {"sig": str(sig), "list": bool(args.list)}, results, primes


def cmd_count(args) -> Run:
    sig, _ = _parse_signature(args)
    return _sig_value(sig, "count", extremal.count_minimum_families(sig))


def cmd_antichains(args) -> Run:
    if args.k is None or args.k < 1:
        raise _UsageError("--k must be a positive integer")
    chains = antichains.enumerate_antichains(args.k)
    symbols = report.Table(_mask_symbol, args.k)
    listed = [[symbols[m] for m in ac] for ac in chains]
    return ({"k": args.k, "list": bool(args.list)},
            {"k": args.k, "count": len(chains), "antichains": listed}, None)


def _listed(fams, total: int, primes: tuple[int, ...]) -> list[dict]:
    """The `report.family_obj` shapes of the families asked for by --list,
    `total` members in all, with one object per divisor; None means the cap
    dropped them."""
    if fams is None:
        raise limit_error("the member count of the families to list", total,
                          families.MEMBER_CAP, "families.MEMBER_CAP")
    objs = report.Table(report.divisor_obj, primes)
    return [report.family_obj([objs[d] for d in f.members]) for f in fams]


def cmd_oracle(args) -> Run:
    sig, primes = _parse_signature(args)
    listing = _lists(args)
    rep = oracle.enumerate_maximal_families(
        sig, args.method,
        materialize_cap=families.MEMBER_CAP if listing else 0)
    results = {
        "signature": report.signature_obj(sig),
        "method": rep.method,
        "total_maximal": rep.total_maximal,
        "min_size": rep.min_size,
        "min_count": rep.min_count,
        "sizes": list(rep.sizes),
    }
    if listing:
        results["families"] = _listed(rep.families, sum(rep.sizes), primes)
    return ({"sig": str(sig), "method": args.method, "list": bool(args.list)},
            results, primes)


def _cmd_matching_ground(args) -> Run:
    k = args.k
    if k < 1:
        raise _UsageError("--k must be a positive integer")
    fams = matching.all_upward_closed_families(k)
    symbols = report.Table(_mask_symbol, k)
    listed = [{
        "members": [symbols[m] for m in fam.members],
        "sigma": list(matching.complement_permutation(fam).sigma),
    } for fam in fams]
    return ({"k": k, "list": bool(args.list)},
            {"ground": k, "count": len(fams), "families": listed}, None)


def _cmd_matching_sig(args) -> Run:
    sig, primes = _parse_signature(args)
    # generators as radical masks, in extremal_families order; none is built
    gen_masks = extremal._generator_masks(sig)
    radical_sets = extremal.minimum_radical_sets(sig)
    built: dict = {}  # the pairing entries of sig, shared by its families
    symbols = report.Table(_mask_symbol, sig.n)
    entry_objs = report.Table(_entry_obj, symbols)
    listed = []
    for i, (gen, rads) in enumerate(zip(gen_masks, radical_sets), start=1):
        # a generator's closure is maximal and of minimum size, and it is
        # fixed by its radical set, so the pairing needs no lifted family
        pairing = matching._weight_pairing(rads, sig, built)
        listed.append({
            "family_index": i,
            "generators": [symbols[m] for m in gen],
            "sigma": list(pairing.sigma),
            "entries": [entry_objs[e] for e in pairing.entries],
        })
    return ({"sig": str(sig), "list": bool(args.list)},
            {"signature": report.signature_obj(sig), "pairings": listed},
            primes)


def cmd_matching(args) -> Run:
    has_sig = args.sig is not None or args.n is not None
    if args.k is not None and has_sig:
        raise _UsageError("give --k or a signature, not both")
    if args.k is not None:
        return _cmd_matching_ground(args)
    if has_sig:
        return _cmd_matching_sig(args)
    raise _UsageError("matching needs --k (ground sweep) or --sig/--n (pairing)")


def cmd_openprob(args) -> Run:
    has_sig = args.sig is not None or args.n is not None
    ts = _parse_t(args.t)
    if has_sig and args.max_n is not None:
        raise _UsageError("give a signature or --max-n sweep bounds, not both")
    if has_sig and args.max_exp is not None:
        raise _UsageError("--max-exp bounds a sweep, not a single cell")
    if not has_sig and args.max_n is None:
        raise _UsageError("openprob needs --sig/--n or --max-n")
    if args.list and not has_sig:
        raise _UsageError("--list prints a single cell's witnesses, not a sweep")

    if has_sig:
        if len(ts) != 1:
            raise _UsageError("a single cell takes exactly one --t value")
        t = ts[0]
        sig, primes = _parse_signature(args)
        listing = _lists(args)
        res = restricted.solve_restricted(
            sig, args.mode, t, maximality=args.maximality,
            materialize_cap=families.MEMBER_CAP if listing else 0,
            allow_t1=args.allow_t1,
        )
        results = {
            "signature": report.signature_obj(sig),
            "mode": res.mode, "t": res.t, "maximality": res.maximality,
            "status": res.status, "value": res.value,
            "attaining_count": res.attaining_count,
            "universe_size": res.universe_size,
            "note": res.note,
        }
        if listing:
            results["witnesses"] = _listed(
                res.witnesses, res.attaining_count * res.value, primes)
        return ({"sig": str(sig), "mode": args.mode, "t": t,
                 "maximality": args.maximality,
                 "allow_t1": bool(args.allow_t1), "list": bool(args.list)},
                results, primes)

    max_exp = 2 if args.max_exp is None else args.max_exp
    if args.max_n < 1 or max_exp < 1:
        raise _UsageError("--max-n and --max-exp must be positive")
    rows = restricted.sweep_tables(
        args.max_n, max_exp, ts, args.mode,
        maximality=args.maximality, allow_t1=args.allow_t1,
    )
    return ({"max_n": args.max_n, "max_exp": max_exp, "mode": args.mode,
             "t": list(ts), "maximality": args.maximality},
            {"mode": args.mode, "maximality": args.maximality,
             "t": list(ts), "rows": rows}, None)


def cmd_verify(args) -> Run:
    if args.max_n < 1 or args.max_exp < 1:
        raise _UsageError("--max-n and --max-exp must be positive")
    rep = verify_mod.run_verify(args.max_n, args.max_exp)
    return ({"max_n": args.max_n, "max_exp": args.max_exp},
            {"max_n": rep.max_n, "max_exp": rep.max_exp,
             "passed": rep.passed, "rows": list(rep.rows)}, None)


_DISPATCH = {
    "bound": cmd_bound,
    "extremal": cmd_extremal,
    "count": cmd_count,
    "antichains": cmd_antichains,
    "oracle": cmd_oracle,
    "matching": cmd_matching,
    "openprob": cmd_openprob,
    "verify": cmd_verify,
}


def _brace(texts) -> str:
    return "{" + ", ".join(texts) + "}"


def _members(fam: dict, texts: report.Table) -> str:
    """The member values of a `report.family_obj`, braced; `texts` formats
    each distinct value once for the whole view."""
    return _brace([texts[m["value"]] for m in fam["members"]])


def _symbol_value(symbol: str, primes: tuple[int, ...]) -> int:
    """The value of a divisor symbol such as 'p1^2*p3' under `primes`."""
    value = 1
    for factor in symbol.split("*"):
        index, _, exp = factor[1:].partition("^")
        value *= primes[int(index) - 1] ** int(exp or 1)
    return value


def _size_histogram(sizes) -> str:
    from collections import Counter

    parts = []
    for size, mult in sorted(Counter(sizes).items()):
        parts.append(f"{size}x{mult}" if mult > 1 else str(size))
    return " ".join(parts)


def _text(command: str, parameters: dict, results: dict,
          primes: Optional[tuple[int, ...]]) -> list[str]:
    """The text view of a command's results, line by line."""
    sig = parameters.get("sig")
    texts = report.Table(str)
    lines = []
    normalized = results.get("signature", {}).get("normalized_from")
    if normalized is not None:
        orig = ",".join(str(a) for a in normalized)
        lines.append(f"note: signature normalized from {orig} to {sig}")

    if command in ("bound", "count"):
        key = "min_size" if command == "bound" else "count"
        lines.append(str(results[key]))
    elif command == "extremal":
        lines.append(
            f"signature {sig}: {results['regime']} regime, minimum size "
            f"{results['min_size']}, {results['count']} minimum-size maximal "
            f"families")
        for label, fams in (("generators", results["generators"]),
                            ("closure", results.get("families", []))):
            lines.extend(f"  [{i}] {label} {_members(f, texts)}"
                         for i, f in enumerate(fams, start=1))
    elif command == "antichains":
        lines.append(f"{results['count']} generating antichains on "
                     f"{results['k']} primes")
        if parameters["list"]:
            lines.extend(f"  [{i}] {', '.join(symbols)}"
                         for i, symbols in enumerate(results["antichains"],
                                                   start=1))
    elif command == "oracle":
        lines.append(
            f"signature {sig}: {results['total_maximal']} maximal families "
            f"({results['method']}); min size {results['min_size']} attained "
            f"by {results['min_count']}; sizes: "
            f"{_size_histogram(results['sizes'])}")
        lines.extend(f"  [{i}] size {f['size']}: {_members(f, texts)}"
                     for i, f in enumerate(results.get("families", []),
                                           start=1))
    elif command == "matching" and "ground" in results:
        lines.append(
            f"ground of {results['ground']} primes: {results['count']} "
            f"upward-closed families, all with certified complement "
            f"permutations")
        if parameters["list"]:
            lines.extend(
                f"  [{i}] {{{', '.join(f['members'])}}} "
                f"sigma={tuple(f['sigma'])}"
                for i, f in enumerate(results["families"], start=1))
    elif command == "matching":
        lines.append(f"signature {sig}: weight-preserving pairings on all "
                     f"{len(results['pairings'])} minimum-size families")
        for p in results["pairings"] if parameters["list"] else ():
            values = (str(_symbol_value(s, primes)) for s in p["generators"])
            lines.append(f"  [{p['family_index']}] generators "
                         f"{_brace(values)}")
            lines.extend(f"       {e['position']} <- complement of "
                         f"{e['source']} (alpha {e['alpha']})"
                         for e in p["entries"])
    elif command == "openprob" and "rows" in results:
        letter = "m" if results["mode"] == "omega" else "M"
        lines.append(
            f"{letter}(N, t) sweep: n <= {parameters['max_n']}, exponents <= "
            f"{parameters['max_exp']}, t in {results['t']}, "
            f"{results['maximality']} maximality")
        for r in results["rows"]:
            if r["status"] == "ok":
                lines.append(
                    f"  {r['signature']:<12} t={r['t']}: "
                    f"{letter}={r['value']} ({r['attaining_count']} "
                    f"attaining, universe {r['universe_size']})")
            else:
                lines.append(f"  {r['signature']:<12} t={r['t']}: "
                             f"{r['status']}")
    elif command == "openprob":
        letter = "m" if results["mode"] == "omega" else "M"
        head = f"{letter}({sig}; t={results['t']}, {results['maximality']})"
        if results["status"] == "ok":
            lines.append(
                f"{head} = {results['value']}; {results['attaining_count']} "
                f"attaining families; universe size "
                f"{results['universe_size']}")
        else:
            lines.append(f"{head}: {results['status']}")
        if results["note"]:
            lines.append(f"note: {results['note']}")
        lines.extend(f"  [{i}] {_members(w, texts)}"
                     for i, w in enumerate(results.get("witnesses", []),
                                         start=1))
    elif command == "verify":
        rows = results["rows"]
        lines.extend(
            f"PASS {r['claim']} [{r['subject']}]" if r["status"] == "pass"
            else f"FAIL {r['claim']} [{r['subject']}]: "
                 f"{json.dumps(r.get('counterexample'), sort_keys=True)}"
            for r in rows)
        failed = sum(r["status"] != "pass" for r in rows)
        lines.append(f"verify: {len(rows)} checks, {len(rows) - failed} "
                     f"passed, {failed} failed")
    return lines


def _csv(command: str, parameters: dict,
         results: dict) -> tuple[list[dict], list[str]]:
    """The CSV view of a command's results: its rows and its columns.

    A row may hold keys beyond the columns; `report.csv_dumps` writes only
    the columns.
    """
    sig = parameters.get("sig")
    if command == "bound":
        return [{**results, "signature": sig}], ["signature", "min_size"]
    if command == "count":
        return [{**results, "signature": sig}], ["signature", "count"]
    if command == "oracle":
        return [{**results, "signature": sig}], [
            "signature", "method", "total_maximal", "min_size", "min_count"]
    if command == "extremal":
        return [{
            "signature": sig, "regime": results["regime"], "index": i,
            "generators": " ".join(str(m["value"]) for m in gen["members"]),
            "closure_size": results["min_size"],
        } for i, gen in enumerate(results["generators"], start=1)], [
            "signature", "regime", "index", "generators", "closure_size"]
    if command == "antichains":
        return [{"k": results["k"], "index": i, "antichain": " ".join(ac)}
                for i, ac in enumerate(results["antichains"], start=1)], [
            "k", "index", "antichain"]
    if command == "matching" and "ground" in results:
        return [{
            "ground": results["ground"], "index": i,
            "size": len(f["members"]),
            "sigma": " ".join(str(s) for s in f["sigma"]),
        } for i, f in enumerate(results["families"], start=1)], [
            "ground", "index", "size", "sigma"]
    if command == "matching":
        return [{
            "signature": sig, "family_index": p["family_index"],
            "paired_members": len(p["entries"]),
            "sigma": " ".join(str(s) for s in p["sigma"]),
        } for p in results["pairings"]], [
            "signature", "family_index", "paired_members", "sigma"]
    if command == "openprob":
        rows = results.get("rows") or [
            {**results, "signature": sig, "n": results["signature"]["n"]}]
        return rows, list(restricted.ROW_FIELDS)
    return results["rows"], ["claim", "subject", "status"]  # verify


def _emit(command: str, fmt: str, parameters: dict, results: dict,
          primes: Optional[tuple[int, ...]]) -> None:
    """Write the one form of the results that `fmt` names."""
    if fmt == "json":
        doc = report.document(command, parameters, results)
        for chunk in report.iter_json(doc):
            sys.stdout.write(chunk)
    elif fmt == "csv":
        sys.stdout.write(report.csv_dumps(*_csv(command, parameters, results)))
    else:
        for line in _text(command, parameters, results, primes):
            print(line)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(_command_in(argv)).parse_args(argv)
    start = time.perf_counter()
    try:
        if args.threads < 1:
            raise _UsageError(f"threads must be positive, got {args.threads}")
        parameters, results, primes = _DISPATCH[args.command](args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        if exc.counterexample is not None:
            print(json.dumps(exc.counterexample, sort_keys=True, indent=2),
                  file=sys.stderr)
        return 4
    except DivintError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 4
    _emit(args.command, args.format, parameters, results, primes)
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return 0 if results.get("passed", True) else 4


if __name__ == "__main__":
    sys.exit(main())
