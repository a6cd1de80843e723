"""Command-line front end.

Subcommands: bound, extremal, count, antichains, oracle, matching, openprob,
verify.  `COMMANDS` holds one `Command` record per subcommand: its help
line, its options, the function that computes the `results` of its JSON
document, and its text and CSV views of those results.  The parser, `main`,
`_text` and `_csv` read the record, so a command is declared in one place.
Every command accepts --format text|json|csv, and as text and CSV are views
of the results, the three forms cannot disagree; a run builds only the form
it prints, and a JSON run formats no text line and no CSV row; the CSV rows
show no family, so under CSV --list builds none.  JSON output is fully
deterministic (sorted keys, canonical arrays, no timestamps and no echo of
--threads, which changes nothing).  The flags are the only settings: no
environment variable or file is read.  Elapsed time goes to stderr only.

Exit codes: 0 success, 2 usage error, 3 resource limit exceeded,
4 theorem-violation diagnostic or internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, NamedTuple, Optional

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

# Options as (flag, `add_argument` keywords): those every command takes,
# then those of the commands that read a signature.
_SHARED = (
    ("--format", dict(choices=FORMATS, default="text",
                      help="output format (default text)")),
    ("--threads", dict(type=int, default=1,
                       help="accepted for compatibility; every engine is "
                            "sequential, so it changes nothing")),
)
_SIG = (
    ("--sig", dict(help="comma-separated exponents, e.g. 2,1,1,1")),
    ("--n", dict(type=int,
                 help="integer to factor instead of --sig, e.g. 420")),
)
_LIST = ("--list", dict(action="store_true"))


class Command(NamedTuple):
    """One subcommand.  `options` follow the shared ones; `run` computes
    the command's document from the parsed arguments; `text(parameters,
    results, primes)` gives its text lines and `csv(parameters, results)`
    its CSV rows and columns."""
    help: str
    options: tuple
    run: Callable[[argparse.Namespace], Run]
    text: Callable[[dict, dict, Optional[tuple[int, ...]]], list[str]]
    csv: Callable[[dict, dict], tuple[list[dict], list[str]]]


class _UsageError(Exception):
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
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if command in (None, name):
            for flag, keywords in _SHARED + cmd.options:
                p.add_argument(flag, **keywords)
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


def _sig_value(args, key: str, value: Callable[[Signature], int]) -> Run:
    """One number about the signature of `args`, e.g. its bound or its
    family count: `value` maps the signature to it."""
    sig, _ = _parse_signature(args)
    return ({"sig": str(sig)},
            {"signature": report.signature_obj(sig), key: value(sig)}, None)


def cmd_bound(args) -> Run:
    return _sig_value(args, "min_size", lattice.min_size_bound)


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
    return _sig_value(args, "count", extremal.count_minimum_families)


def cmd_antichains(args) -> Run:
    if args.k is None or args.k < 1:
        raise _UsageError("--k must be a positive integer")
    chains = antichains.enumerate_antichains(args.k)
    # JSON and CSV print the antichains either way, text only under --list
    symbols = report.Table(_mask_symbol, args.k)
    listed = ([[symbols[m] for m in ac] for ac in chains]
              if args.list or args.format != "text" else None)
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
        "sizes": rep.sizes,
    }
    if listing:
        results["families"] = _listed(rep.families, sum(rep.sizes), primes)
    return ({"sig": str(sig), "method": args.method, "list": bool(args.list)},
            results, primes)


def cmd_matching(args) -> Run:
    """Every upward-closed family on a ground of --k primes with its
    certified complement permutation, or the weight pairing of each
    minimum family of a signature."""
    has_sig = args.sig is not None or args.n is not None
    if args.k is not None and has_sig:
        raise _UsageError("give --k or a signature, not both")
    if args.k is not None:
        if args.k < 1:
            raise _UsageError("--k must be a positive integer")
        fams = matching.all_upward_closed_families(args.k)
        symbols = report.Table(_mask_symbol, args.k)
        listed = [{
            "members": [symbols[m] for m in fam.members],
            "sigma": list(matching.complement_permutation(fam).sigma),
        } for fam in fams]
        return ({"k": args.k, "list": bool(args.list)},
                {"ground": args.k, "count": len(fams), "families": listed},
                None)
    if not has_sig:
        raise _UsageError(
            "matching needs --k (ground sweep) or --sig/--n (pairing)")
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


# The text and CSV views below name a command's parameters `p` and its
# results `r`.

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

    return " ".join(f"{size}x{mult}" if mult > 1 else str(size)
                    for size, mult in sorted(Counter(sizes).items()))


def _one_row(*columns: str):
    """The CSV view of a command whose results are one row, under the
    signature the run was given."""
    return lambda p, r: ([{**r, "signature": p["sig"]}],
                         ["signature", *columns])


def _extremal_text(p: dict, r: dict, primes) -> list[str]:
    texts = report.Table(str)
    lines = [f"signature {p['sig']}: {r['regime']} regime, minimum size "
             f"{r['min_size']}, {r['count']} minimum-size maximal families"]
    for label, fams in (("generators", r["generators"]),
                        ("closure", r.get("families", []))):
        lines.extend(f"  [{i}] {label} {_members(f, texts)}"
                     for i, f in enumerate(fams, start=1))
    return lines


def _extremal_csv(p: dict, r: dict) -> tuple[list[dict], list[str]]:
    return [{
        "signature": p["sig"], "regime": r["regime"], "index": i,
        "generators": " ".join(str(m["value"]) for m in gen["members"]),
        "closure_size": r["min_size"],
    } for i, gen in enumerate(r["generators"], start=1)], [
        "signature", "regime", "index", "generators", "closure_size"]


def _antichains_text(p: dict, r: dict, primes) -> list[str]:
    listed = enumerate(r["antichains"], start=1) if p["list"] else ()
    return [f"{r['count']} generating antichains on {r['k']} primes",
            *(f"  [{i}] {', '.join(symbols)}" for i, symbols in listed)]


def _oracle_text(p: dict, r: dict, primes) -> list[str]:
    texts = report.Table(str)
    lines = [f"signature {p['sig']}: {r['total_maximal']} maximal families "
             f"({r['method']}); min size {r['min_size']} attained by "
             f"{r['min_count']}; sizes: {_size_histogram(r['sizes'])}"]
    lines.extend(f"  [{i}] size {f['size']}: {_members(f, texts)}"
                 for i, f in enumerate(r.get("families", []), start=1))
    return lines


def _matching_text(p: dict, r: dict, primes) -> list[str]:
    if "ground" in r:
        listed = enumerate(r["families"], start=1) if p["list"] else ()
        return [f"ground of {r['ground']} primes: {r['count']} upward-closed "
                f"families, all with certified complement permutations",
                *(f"  [{i}] {_brace(f['members'])} sigma={tuple(f['sigma'])}"
                  for i, f in listed)]
    lines = [f"signature {p['sig']}: weight-preserving pairings on all "
             f"{len(r['pairings'])} minimum-size families"]
    for pairing in r["pairings"] if p["list"] else ():
        values = (str(_symbol_value(s, primes)) for s in pairing["generators"])
        lines.append(f"  [{pairing['family_index']}] generators "
                     f"{_brace(values)}")
        lines.extend(f"       {e['position']} <- complement of "
                     f"{e['source']} (alpha {e['alpha']})"
                     for e in pairing["entries"])
    return lines


def _matching_csv(p: dict, r: dict) -> tuple[list[dict], list[str]]:
    if "ground" in r:
        return [{
            "ground": r["ground"], "index": i, "size": len(f["members"]),
            "sigma": " ".join(str(s) for s in f["sigma"]),
        } for i, f in enumerate(r["families"], start=1)], [
            "ground", "index", "size", "sigma"]
    return [{
        "signature": p["sig"], "family_index": q["family_index"],
        "paired_members": len(q["entries"]),
        "sigma": " ".join(str(s) for s in q["sigma"]),
    } for q in r["pairings"]], [
        "signature", "family_index", "paired_members", "sigma"]


def _openprob_text(p: dict, r: dict, primes) -> list[str]:
    letter = "m" if r["mode"] == "omega" else "M"
    if "rows" in r:
        lines = [f"{letter}(N, t) sweep: n <= {p['max_n']}, exponents <= "
                 f"{p['max_exp']}, t in {r['t']}, {r['maximality']} "
                 f"maximality"]
        for row in r["rows"]:
            head = f"  {row['signature']:<12} t={row['t']}"
            lines.append(
                f"{head}: {letter}={row['value']} ({row['attaining_count']} "
                f"attaining, universe {row['universe_size']})"
                if row["status"] == "ok" else f"{head}: {row['status']}")
        return lines
    head = f"{letter}({p['sig']}; t={r['t']}, {r['maximality']})"
    lines = [f"{head} = {r['value']}; {r['attaining_count']} attaining "
             f"families; universe size {r['universe_size']}"
             if r["status"] == "ok" else f"{head}: {r['status']}"]
    if r["note"]:
        lines.append(f"note: {r['note']}")
    texts = report.Table(str)
    lines.extend(f"  [{i}] {_members(w, texts)}"
                 for i, w in enumerate(r.get("witnesses", []), start=1))
    return lines


def _verify_text(p: dict, r: dict, primes) -> list[str]:
    lines = [f"PASS {row['claim']} [{row['subject']}]"
             if row["status"] == "pass"
             else f"FAIL {row['claim']} [{row['subject']}]: "
                  f"{json.dumps(row.get('counterexample'), sort_keys=True)}"
             for row in r["rows"]]
    failed = sum(row["status"] != "pass" for row in r["rows"])
    lines.append(f"verify: {len(lines)} checks, {len(lines) - failed} "
                 f"passed, {failed} failed")
    return lines


COMMANDS = {
    "bound": Command(
        "closed-form minimum size of a maximal family", _SIG, cmd_bound,
        lambda p, r, primes: [str(r["min_size"])], _one_row("min_size")),
    "extremal": Command(
        "all minimum-size maximal families, by generators", _SIG + (
            ("--list", dict(action="store_true", help=(
                "print full family memberships, not just generators"))),),
        cmd_extremal, _extremal_text, _extremal_csv),
    "count": Command(
        "number of minimum-size maximal families", _SIG, cmd_count,
        lambda p, r, primes: [str(r["count"])], _one_row("count")),
    "antichains": Command(
        "generating antichains on k squarefree primes",
        (("--k", dict(type=int, required=True)), _LIST),
        cmd_antichains, _antichains_text,
        lambda p, r: ([{"k": r["k"], "index": i, "antichain": " ".join(ac)}
                       for i, ac in enumerate(r["antichains"], start=1)],
                      ["k", "index", "antichain"])),
    "oracle": Command(
        "brute-force census of every maximal family", _SIG + (
            ("--method", dict(choices=oracle.METHODS, default="radical-lift")),
            _LIST),
        cmd_oracle, _oracle_text,
        _one_row("method", "total_maximal", "min_size", "min_count")),
    "matching": Command(
        "certified complement pairings", _SIG + (
            ("--k", dict(type=int, help=(
                "check every upward-closed family on a k-prime ground"))),
            _LIST),
        cmd_matching, _matching_text, _matching_csv),
    "openprob": Command(
        "minimum maximal-family sizes in restricted universes", _SIG + (
            ("--mode", dict(choices=restricted.MODES, required=True, help=(
                "omega: distinct primes; bigomega: with multiplicity"))),
            ("--t", dict(help="factor count, or comma list for sweeps, "
                              "e.g. 2,3")),
            ("--maximality", dict(choices=restricted.MAXIMALITIES,
                                  default="restricted")),
            ("--allow-t1", dict(action="store_true", help=(
                "permit t=1 (outside the stated problem range)"))),
            ("--max-n", dict(type=int, help=(
                "sweep signatures with up to this many primes"))),
            ("--max-exp", dict(type=int,
                               help="sweep exponent bound (default 2)")),
            ("--list", dict(action="store_true", help=(
                "print witness families (single cell only)")))),
        cmd_openprob, _openprob_text,
        lambda p, r: (r.get("rows") or [{**r, "signature": p["sig"],
                                         "n": r["signature"]["n"]}],
                      list(restricted.ROW_FIELDS))),
    "verify": Command(
        "re-derive every structural law over a grid",
        (("--max-n", dict(type=int, default=3)),
         ("--max-exp", dict(type=int, default=2))),
        cmd_verify, _verify_text,
        lambda p, r: (r["rows"], ["claim", "subject", "status"])),
}


def _text(command: str, parameters: dict, results: dict,
          primes: Optional[tuple[int, ...]]) -> list[str]:
    """The text view of a command's results, line by line: a note when the
    signature was normalized, then the lines of the command's record."""
    lines = []
    normalized = results.get("signature", {}).get("normalized_from")
    if normalized is not None:
        orig = ",".join(str(a) for a in normalized)
        lines.append(f"note: signature normalized from {orig} to "
                     f"{parameters['sig']}")
    return lines + COMMANDS[command].text(parameters, results, primes)


def _csv(command: str, parameters: dict,
         results: dict) -> tuple[list[dict], list[str]]:
    """The CSV view of a command's results: its rows and its columns.

    A row may hold keys beyond the columns; `report.csv_dumps` writes only
    the columns.
    """
    return COMMANDS[command].csv(parameters, results)


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
        parameters, results, primes = COMMANDS[args.command].run(args)
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
