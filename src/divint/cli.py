"""Command-line front end.

Subcommands: bound, extremal, count, antichains, oracle, matching, openprob,
verify.  Every command accepts --format text|json|csv; JSON output is fully
deterministic (sorted keys, canonical arrays, no timestamps and no echo of
performance knobs), so identical inputs give byte-identical documents
whatever the thread count.  Elapsed time goes to stderr only.

Exit codes: 0 success, 2 usage error, 3 resource limit exceeded,
4 theorem-violation diagnostic or internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from typing import Optional

from . import antichains, extremal, families, lattice, matching, oracle
from . import report, restricted, verify as verify_mod
from ._version import __version__
from .config import FORMATS, RunConfig, resolve_config
from .errors import (DivintError, ResourceLimitError, TheoremViolationError,
                     limit_error)
from .lattice import Signature


class _UsageError(Exception):
    pass


class Outcome:
    """What one command produced, in the shape of every output format."""

    def __init__(self, parameters: dict, results: Optional[dict] = None,
                 text: Optional[list[str]] = None,
                 rows: Optional[list[dict]] = None,
                 fields: Optional[list[str]] = None, exit_code: int = 0):
        self.parameters = parameters
        self.results = {} if results is None else results
        self.text = [] if text is None else text
        self.rows = [] if rows is None else rows
        self.fields = [] if fields is None else fields
        self.exit_code = exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divint",
        description="maximal pairwise-non-coprime divisor families: bounds, "
                    "classification, exhaustive enumeration",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default text)")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; every engine is "
                             "sequential, so it changes nothing")

    sig_args = argparse.ArgumentParser(add_help=False)
    sig_args.add_argument("--sig", default=None,
                          help="comma-separated exponents, e.g. 2,1,1,1")
    sig_args.add_argument("--n", type=int, default=None,
                          help="integer to factor instead of --sig, e.g. 420")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("bound", parents=[common, sig_args],
                   help="closed-form minimum size of a maximal family")

    p = sub.add_parser("extremal", parents=[common, sig_args],
                       help="all minimum-size maximal families, by generators")
    p.add_argument("--list", action="store_true",
                   help="print full family memberships, not just generators")

    sub.add_parser("count", parents=[common, sig_args],
                   help="number of minimum-size maximal families")

    p = sub.add_parser("antichains", parents=[common],
                       help="generating antichains on k squarefree primes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("oracle", parents=[common, sig_args],
                       help="brute-force census of every maximal family")
    p.add_argument("--method", choices=oracle.METHODS, default="radical-lift")
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("matching", parents=[common, sig_args],
                       help="certified complement pairings")
    p.add_argument("--k", type=int, default=None,
                   help="check every upward-closed family on a k-prime ground")
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("openprob", parents=[common, sig_args],
                       help="minimum maximal-family sizes in restricted universes")
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
    p.add_argument("--max-exp", type=int, default=2,
                   help="sweep exponent bound (default 2)")
    p.add_argument("--list", action="store_true",
                   help="print witness families (single cell only)")

    p = sub.add_parser("verify", parents=[common],
                       help="re-derive every structural law over a grid")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-exp", type=int, default=2)
    return parser


def _parse_signature(args) -> tuple[Signature, tuple[int, ...]]:
    if args.sig is not None and args.n is not None:
        raise _UsageError("give either --sig or --n, not both")
    if args.sig is not None:
        text = args.sig.replace(" ", "")
        if not text:
            raise _UsageError("signature is empty")
        try:
            # an empty component is refused, not skipped: `2,,1` is a typo
            parts = [int(x) for x in text.split(",")]
        except ValueError:
            raise _UsageError(f"cannot parse signature {args.sig!r}") from None
        sig = Signature(parts)
        return sig, lattice.first_primes(sig.n)
    if args.n is not None:
        return lattice.factor_int(args.n)
    raise _UsageError("one of --sig or --n is required")


def _sig_notice(sig: Signature) -> list[str]:
    if sig.was_normalized:
        orig = ",".join(str(a) for a in sig.original)
        return [f"note: signature normalized from {orig} to {sig}"]
    return []


def _values(fam: families.DivisorFamily, primes) -> list[int]:
    return [lattice.display_value(d, primes) for d in fam.members]


def _brace(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


@lru_cache(maxsize=lattice.MAX_DIVISORS)
def _mask_symbol(m: int, k: int) -> str:
    return lattice.format_divisor(lattice.mask_to_divisor(m, k))


@lru_cache(maxsize=lattice.MAX_DIVISORS)
def _entry_obj(e: matching.PairingEntry, k: int) -> dict:
    """JSON shape of one pairing entry.  Cached: the families of one lattice
    share their repeated entries, so `report.json_dumps` encodes each once.
    The dict is shared and must never be mutated."""
    return {
        "position": _mask_symbol(e.position, k),
        "source": _mask_symbol(e.source, k),
        "source_complement": _mask_symbol(e.bar_source, k),
        "alpha": e.alpha_position,
    }


def _sig_value(sig: Signature, key: str, value: int) -> Outcome:
    """One number about one signature, e.g. its bound or its family count."""
    return Outcome(
        parameters={"sig": str(sig)},
        results={"signature": report.signature_obj(sig), key: value},
        text=_sig_notice(sig) + [str(value)],
        rows=[{"signature": str(sig), key: value}],
        fields=["signature", key],
    )


def cmd_bound(args, cfg: RunConfig) -> Outcome:
    sig, _ = _parse_signature(args)
    return _sig_value(sig, "min_size", lattice.min_size_bound(sig))


def cmd_extremal(args, cfg: RunConfig) -> Outcome:
    sig, primes = _parse_signature(args)
    rep = extremal.extremal_families(sig)
    closures = extremal.minimum_families(sig) if args.list else []
    out = Outcome(
        parameters={"sig": str(sig), "list": bool(args.list)},
        fields=["signature", "regime", "index", "generators", "closure_size"],
    )
    if cfg.format == "json":
        out.results = {
            "signature": report.signature_obj(sig),
            "regime": rep.regime,
            "min_size": rep.min_size,
            "count": rep.h_count,
            "generators": [report.family_obj(g, primes)
                           for g in rep.generators],
        }
        if args.list:
            out.results["families"] = [report.family_obj(c, primes)
                                       for c in closures]
    elif cfg.format == "csv":
        out.rows = [{
            "signature": str(sig), "regime": rep.regime, "index": i,
            "generators": " ".join(map(str, _values(gen, primes))),
            "closure_size": rep.min_size,
        } for i, gen in enumerate(rep.generators, start=1)]
    else:
        out.text = _sig_notice(sig) + [
            f"signature {sig}: {rep.regime} regime, minimum size "
            f"{rep.min_size}, {rep.h_count} minimum-size maximal families"
        ]
        for label, fams in (("generators", rep.generators),
                            ("closure", closures)):
            out.text.extend(f"  [{i}] {label} {_brace(_values(f, primes))}"
                            for i, f in enumerate(fams, start=1))
    return out


def cmd_count(args, cfg: RunConfig) -> Outcome:
    sig, _ = _parse_signature(args)
    return _sig_value(sig, "count", extremal.count_minimum_families(sig))


def cmd_antichains(args, cfg: RunConfig) -> Outcome:
    if args.k is None or args.k < 1:
        raise _UsageError("--k must be a positive integer")
    chains = antichains.enumerate_antichains(args.k)
    text = [f"{len(chains)} generating antichains on {args.k} primes"]
    rows = []
    listed = []
    for i, ac in enumerate(chains, start=1):
        symbols = [_mask_symbol(m, args.k) for m in ac]
        listed.append(symbols)
        rows.append({"k": args.k, "index": i, "antichain": " ".join(symbols)})
        if args.list:
            text.append(f"  [{i}] {', '.join(symbols)}")
    return Outcome(
        parameters={"k": args.k, "list": bool(args.list)},
        results={"k": args.k, "count": len(chains), "antichains": listed},
        text=text, rows=rows, fields=["k", "index", "antichain"],
    )


def _size_histogram(sizes) -> str:
    from collections import Counter

    parts = []
    for size, mult in sorted(Counter(sizes).items()):
        parts.append(f"{size}x{mult}" if mult > 1 else str(size))
    return " ".join(parts)


def _listed(fams, cfg: RunConfig):
    """Families asked for by --list; None means the cap dropped them."""
    if fams is None:
        raise limit_error("the member count of the families to list", None,
                          cfg.materialize_cap, "materialize_cap")
    return fams


def cmd_oracle(args, cfg: RunConfig) -> Outcome:
    sig, primes = _parse_signature(args)
    rep = oracle.enumerate_maximal_families(
        sig, args.method, divisor_cap=cfg.divisor_cap,
        materialize_cap=cfg.materialize_cap if args.list else 0,
    )
    text = _sig_notice(sig)
    text.append(
        f"signature {sig}: {rep.total_maximal} maximal families "
        f"({rep.method}); min size {rep.min_size} attained by "
        f"{rep.min_count}; sizes: {_size_histogram(rep.sizes)}"
    )
    results = {
        "signature": report.signature_obj(sig),
        "method": rep.method,
        "total_maximal": rep.total_maximal,
        "min_size": rep.min_size,
        "min_count": rep.min_count,
        "sizes": list(rep.sizes),
    }
    if args.list:
        fams = _listed(rep.families, cfg)
        results["families"] = [report.family_obj(f, primes) for f in fams]
        for i, f in enumerate(fams, start=1):
            text.append(f"  [{i}] size {len(f)}: {_brace(_values(f, primes))}")
    rows = [{
        "signature": str(sig), "method": rep.method,
        "total_maximal": rep.total_maximal, "min_size": rep.min_size,
        "min_count": rep.min_count,
    }]
    return Outcome(
        parameters={"sig": str(sig), "method": args.method,
                    "list": bool(args.list)},
        results=results, text=text, rows=rows,
        fields=["signature", "method", "total_maximal", "min_size",
                "min_count"],
    )


def _cmd_matching_ground(args) -> Outcome:
    k = args.k
    if k < 1:
        raise _UsageError("--k must be a positive integer")
    fams = matching.all_upward_closed_families(k)
    text = []
    rows = []
    listed = []
    for i, fam in enumerate(fams, start=1):
        witness = matching.complement_permutation(fam)
        entry = {
            "members": [_mask_symbol(m, k) for m in fam.members],
            "sigma": list(witness.sigma),
        }
        listed.append(entry)
        rows.append({
            "ground": k, "index": i, "size": len(fam.members),
            "sigma": " ".join(str(s) for s in witness.sigma),
        })
        if args.list:
            text.append(
                f"  [{i}] {{{', '.join(entry['members'])}}} "
                f"sigma={witness.sigma}"
            )
    text.insert(0, (
        f"ground of {k} primes: {len(fams)} upward-closed families, "
        f"all with certified complement permutations"
    ))
    return Outcome(
        parameters={"k": k, "list": bool(args.list)},
        results={"ground": k, "count": len(fams), "families": listed},
        text=text, rows=rows, fields=["ground", "index", "size", "sigma"],
    )


def _cmd_matching_sig(args, cfg: RunConfig) -> Outcome:
    sig, primes = _parse_signature(args)
    rep = extremal.extremal_families(sig)
    closures = extremal.minimum_families(sig)
    out = Outcome(
        parameters={"sig": str(sig), "list": bool(args.list)},
        fields=["signature", "family_index", "paired_members", "sigma"],
    )
    if cfg.format == "text":
        out.text = _sig_notice(sig) + [
            f"signature {sig}: weight-preserving pairings on all "
            f"{rep.h_count} minimum-size families"
        ]
    listed = []
    for i, (gen, fam) in enumerate(zip(rep.generators, closures), start=1):
        pairing = matching.alpha_pairing(fam, sig)
        if cfg.format == "json":
            listed.append({
                "family_index": i,
                "generators": [lattice.format_divisor(d) for d in gen.members],
                "sigma": list(pairing.sigma),
                "entries": [_entry_obj(e, sig.n) for e in pairing.entries],
            })
        elif cfg.format == "csv":
            out.rows.append({
                "signature": str(sig), "family_index": i,
                "paired_members": len(pairing.entries),
                "sigma": " ".join(map(str, pairing.sigma)),
            })
        elif args.list:
            out.text.append(f"  [{i}] generators {_brace(_values(gen, primes))}")
            out.text.extend(
                f"       {_mask_symbol(e.position, sig.n)} <- complement of "
                f"{_mask_symbol(e.source, sig.n)} (alpha {e.alpha_position})"
                for e in pairing.entries)
    if cfg.format == "json":
        out.results = {"signature": report.signature_obj(sig),
                       "pairings": listed}
    return out


def cmd_matching(args, cfg: RunConfig) -> Outcome:
    has_sig = args.sig is not None or args.n is not None
    if args.k is not None and has_sig:
        raise _UsageError("give --k or a signature, not both")
    if args.k is not None:
        return _cmd_matching_ground(args)
    if has_sig:
        return _cmd_matching_sig(args, cfg)
    raise _UsageError("matching needs --k (ground sweep) or --sig/--n (pairing)")


def _parse_t(value) -> tuple[int, ...]:
    if value is None:
        raise _UsageError("--t is required, e.g. --t 2 or --t 2,3")
    text = str(value).replace(" ", "")
    if not text:
        raise _UsageError("--t is empty")
    try:
        # an empty component is refused, not skipped, as in --sig
        return tuple(sorted({int(x) for x in text.split(",")}))
    except ValueError:
        raise _UsageError(f"cannot parse --t value {value!r}") from None


def cmd_openprob(args, cfg: RunConfig) -> Outcome:
    has_sig = args.sig is not None or args.n is not None
    ts = _parse_t(args.t)
    if has_sig and args.max_n is not None:
        raise _UsageError("give a signature or --max-n sweep bounds, not both")
    if not has_sig and args.max_n is None:
        raise _UsageError("openprob needs --sig/--n or --max-n")
    if args.list and not has_sig:
        raise _UsageError("--list prints a single cell's witnesses, not a sweep")
    letter = "m" if args.mode == "omega" else "M"

    if has_sig:
        if len(ts) != 1:
            raise _UsageError("a single cell takes exactly one --t value")
        t = ts[0]
        sig, primes = _parse_signature(args)
        res = restricted.solve_restricted(
            sig, args.mode, t, maximality=args.maximality,
            universe_cap=cfg.universe_cap,
            materialize_cap=cfg.materialize_cap,
            allow_t1=args.allow_t1,
        )
        text = _sig_notice(sig)
        head = f"{letter}({sig}; t={t}, {args.maximality})"
        if res.status == "ok":
            text.append(
                f"{head} = {res.value}; {res.attaining_count} attaining "
                f"families; universe size {res.universe_size}"
            )
        else:
            text.append(f"{head}: {res.status}")
        if res.note:
            text.append(f"note: {res.note}")
        results = {
            "signature": report.signature_obj(sig),
            "mode": res.mode, "t": res.t, "maximality": res.maximality,
            "status": res.status, "value": res.value,
            "attaining_count": res.attaining_count,
            "universe_size": res.universe_size,
            "note": res.note,
        }
        if args.list:
            witnesses = _listed(res.witnesses, cfg)
            results["witnesses"] = [
                report.family_obj(w, primes) for w in witnesses
            ]
            for i, w in enumerate(witnesses, start=1):
                text.append(f"  [{i}] {_brace(_values(w, primes))}")
        row = restricted.cell_row(sig, args.mode, t, args.maximality, res)
        return Outcome(
            parameters={"sig": str(sig), "mode": args.mode, "t": t,
                        "maximality": args.maximality,
                        "allow_t1": bool(args.allow_t1),
                        "list": bool(args.list)},
            results=results, text=text, rows=[row],
            fields=list(restricted.ROW_FIELDS),
        )

    if args.max_n < 1 or args.max_exp < 1:
        raise _UsageError("--max-n and --max-exp must be positive")
    rows = restricted.sweep_tables(
        args.max_n, args.max_exp, ts, args.mode,
        maximality=args.maximality, universe_cap=cfg.universe_cap,
        allow_t1=args.allow_t1,
    )
    text = [
        f"{letter}(N, t) sweep: n <= {args.max_n}, exponents <= "
        f"{args.max_exp}, t in {list(ts)}, {args.maximality} maximality"
    ]
    for r in rows:
        if r["status"] == "ok":
            text.append(
                f"  {r['signature']:<12} t={r['t']}: {letter}={r['value']} "
                f"({r['attaining_count']} attaining, universe "
                f"{r['universe_size']})"
            )
        else:
            text.append(f"  {r['signature']:<12} t={r['t']}: {r['status']}")
    return Outcome(
        parameters={"max_n": args.max_n, "max_exp": args.max_exp,
                    "mode": args.mode, "t": list(ts),
                    "maximality": args.maximality},
        results={"mode": args.mode, "maximality": args.maximality,
                 "t": list(ts), "rows": rows},
        text=text, rows=rows, fields=list(restricted.ROW_FIELDS),
    )


def cmd_verify(args, cfg: RunConfig) -> Outcome:
    if args.max_n < 1 or args.max_exp < 1:
        raise _UsageError("--max-n and --max-exp must be positive")
    rep = verify_mod.run_verify(args.max_n, args.max_exp)
    text = []
    rows = []
    failures = 0
    for r in rep.rows:
        if r["status"] == "pass":
            text.append(f"PASS {r['claim']} [{r['subject']}]")
        else:
            failures += 1
            text.append(
                f"FAIL {r['claim']} [{r['subject']}]: "
                f"{json.dumps(r.get('counterexample'), sort_keys=True)}"
            )
        rows.append({"claim": r["claim"], "subject": r["subject"],
                     "status": r["status"]})
    text.append(
        f"verify: {len(rep.rows)} checks, {len(rep.rows) - failures} passed, "
        f"{failures} failed"
    )
    return Outcome(
        parameters={"max_n": args.max_n, "max_exp": args.max_exp},
        results={"max_n": rep.max_n, "max_exp": rep.max_exp,
                 "passed": rep.passed, "rows": list(rep.rows)},
        text=text, rows=rows, fields=["claim", "subject", "status"],
        exit_code=0 if rep.passed else 4,
    )


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


def _emit(outcome: Outcome, command: str, cfg: RunConfig) -> None:
    if cfg.format == "json":
        doc = report.document(command, outcome.parameters, outcome.results)
        sys.stdout.write(report.json_dumps(doc))
    elif cfg.format == "csv":
        sys.stdout.write(report.csv_dumps(outcome.rows, outcome.fields))
    else:
        for line in outcome.text:
            print(line)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = resolve_config({
            "threads": args.threads,
            "format": args.format,
        })
        outcome = _DISPATCH[args.command](args, cfg)
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
    _emit(outcome, args.command, cfg)
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
