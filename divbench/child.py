"""Launch one divint command in this process and report how long `main` ran.

Usage: python3 child.py REPORT_PATH TRACE(0|1) -- DIVINT_ARGS...

The command runs exactly as `python -m divint DIVINT_ARGS...` would: the
same `divint.cli.main`, the same stdout and the same exit code.  Before it
exits, the launcher writes a JSON report to REPORT_PATH holding `main_s`, the
wall time spent inside `divint.cli.main`.  The parent subtracts it from the
child's wall time to get the set-up time (interpreter start, imports and
teardown).

With TRACE=1 the public functions named in `SPANS` are rebound, on every
divint module object that holds them, to wrappers that record spans.  Every
cross-layer call in divint goes through a module attribute, so the wrappers
see every call without any change to the package.  The report then also
holds the per-span totals and the work counters taken from return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Public function names per divint module, timed as spans in traced runs.
SPANS = {
    "cli": ("main",),
    "report": ("json_dumps", "family_obj"),
    "lattice": ("enumerate_divisors",),
    "families": ("upward_closure", "minimal_members", "check_maximal"),
    "antichains": ("enumerate_families", "minimal_masks"),
    "extremal": ("classify", "extremal_families"),
    "matching": ("alpha_pairing", "complement_permutation",
                 "all_upward_closed_families"),
    "oracle": ("enumerate_maximal_families",),
    "restricted": ("solve_restricted", "build_universe"),
    "verify": ("run_verify",),
}

# Work counters read from return values: span -> (counter, size of result).
WORK = {
    "families.upward_closure": ("members", len),
    "antichains.enumerate_families": ("families", len),
    "matching.all_upward_closed_families": ("families", len),
    "report.json_dumps": ("bytes", len),  # ASCII-only JSON: chars == bytes
    "restricted.solve_restricted": ("universe", lambda r: r.universe_size),
    "verify.run_verify": ("rows", lambda r: len(r.rows)),
    "oracle.radical_lift": ("families", lambda r: r.total_maximal),
    "oracle.direct_clique": ("families", lambda r: r.total_maximal),
}

CLASSIFY = "extremal.classify"
CLOSURE = "families.upward_closure"


class Tracer:
    """Span stack plus per-span totals: calls, inclusive, self and child time."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, time in traced children]
        self.totals: dict[str, dict] = {}
        self.closures_under_classify = 0

    def _entry(self, name: str) -> dict:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = {
                "calls": 0, "incl_s": 0.0, "self_s": 0.0, "child_s": 0.0,
            }
        return entry

    def call(self, name: str, fn, args, kwargs):
        if name == CLOSURE and any(f[0] == CLASSIFY for f in self.stack):
            self.closures_under_classify += 1
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            incl = time.perf_counter() - frame[1]
            self.stack.pop()
            if self.stack:
                self.stack[-1][2] += incl
            entry = self._entry(name)
            entry["calls"] += 1
            entry["incl_s"] += incl
            entry["self_s"] += incl - frame[2]
            entry["child_s"] += frame[2]
        work = WORK.get(name)
        if work is not None:
            counter, size = work
            entry[counter] = entry.get(counter, 0) + size(result)
        return result

    def wrap(self, module: str, fname: str, fn):
        if (module, fname) == ("oracle", "enumerate_maximal_families"):
            # one span per engine, chosen by the `method` argument
            @functools.wraps(fn)
            def wrapper(sig, method="radical-lift", *args, **kwargs):
                name = "oracle." + method.replace("-", "_")
                return self.call(name, fn, (sig, method, *args), kwargs)
        else:
            name = f"{module}.{fname}"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Rebind each traced function wherever a divint module holds it."""
        import divint.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items()
                   if n == "divint" or n.startswith("divint.")]
        for module, names in SPANS.items():
            mod = sys.modules[f"divint.{module}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self.wrap(module, fname, orig)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, attr, wrapper)

    def summary(self) -> dict:
        return {
            "spans": self.totals,
            "closures_under_classify": self.closures_under_classify,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("0", "1"):
        print("usage: child.py REPORT_PATH TRACE(0|1) -- DIVINT_ARGS...",
              file=sys.stderr)
        return 2
    report_path, traced, divint_args = argv[0], argv[1] == "1", argv[3:]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    from divint import cli

    report: dict = {}
    start = time.perf_counter()
    try:
        code = cli.main(divint_args)
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code
    finally:
        report["main_s"] = time.perf_counter() - start
        if tracer is not None:
            report["trace"] = tracer.summary()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
