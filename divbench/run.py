"""divint benchmark: fixed CLI workloads, end-to-end metrics, outside-in trace.

    python3 divbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of exact divint commands.  A run repeats
passes over the list until `--seconds` is spent; every command of a pass runs
in a fresh child process (see child.py), one at a time, as a user pays for
it.  The seed only shuffles the command order within each pass: the inputs
are exact problems with one right answer each.

Every command is checked: its exit code and the SHA-256 of its stdout must
match golden.json (recorded with `--write-golden` from the divint version
this benchmark was defined on), the document must pass known-value checks that do not
rest on divint agreeing with itself (OEIS A001206, closed forms), and it
must finish within its time limit.  A command that fails any check counts as
failed.

Runs are hermetic: no DIVINT_* variables, an empty working directory (so no
divisor-intersect.toml is read) and no --cache-dir (so the antichain disk
cache never serves a hit).

With --trace 0 the last stdout line reports the `end_to_end` metrics of
BENCHMARK.json, with `wall_s` and `setup_s` in reference seconds: after each
command the harness times a fixed slice of its own work, and scales the
run's times by how much slower or faster than REFERENCE_SLICE_S the slice
ran, so that the shared host's drifting speed cancels out.  The host seconds
are printed beside them.  With --trace 1 it alternates untraced and traced
passes and reports the `per_layer` metrics.  Per-layer names are
`<span>.<stat>`, where the spans are those of child.SPANS.  The workload
`quick` runs tiny inputs through the same code in seconds; the benchmark's
own tests use it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
GOLDEN_PATH = BENCH / "golden.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

# No pass starts, and no command runs on, past this many seconds of a run,
# so that a run always exits well inside three minutes.
HARD_LIMIT_S = 150.0

# OEIS A001206: maximal intersecting families on k points (self-dual
# monotone Boolean functions of k variables).
A001206 = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Check
    limit_s: float = 60.0

    @property
    def key(self) -> str:
        return " ".join(self.args)


def command(text: str, check: Check, limit_s: float = 60.0) -> Command:
    return Command(tuple(text.split()) + ("--format", "json"), check, limit_s)


def closed_form(alphas: tuple[int, ...]) -> int:
    """Minimum maximal-family size: a_n * prod(a_i + 1 for i < n)."""
    return alphas[-1] * prod(a + 1 for a in alphas[:-1])


def _expect(label: str, got, want) -> list:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def antichain_count(k: int) -> Check:
    return lambda doc: _expect("antichain count", doc["results"]["count"],
                               A001206[k])


def minimum_count(k: int) -> Check:
    return lambda doc: _expect("minimum-family count",
                               doc["results"]["count"], A001206[k])


def radical_census(alphas: tuple[int, ...]) -> Check:
    """Total = A001206(n); minimum size = closed form, attained A001206(k) times."""
    n = len(alphas)
    k = alphas.count(alphas[-1]) if alphas[-1] == 1 else None

    def check(doc):
        res = doc["results"]
        out = _expect("total maximal", res["total_maximal"], A001206[n])
        out += _expect("min size", res["min_size"], closed_form(alphas))
        if k is not None:
            out += _expect("min count", res["min_count"], A001206[k])
        return out
    return check


def squarefree_census(n: int) -> Check:
    """Every maximal family on n squarefree primes has 2^(n-1) members."""
    def check(doc):
        res = doc["results"]
        out = _expect("total maximal", res["total_maximal"], A001206[n])
        sizes = set(res["sizes"])
        return out + _expect("sizes", sizes, {2 ** (n - 1)})
    return check


def extremal_listing(n: int) -> Check:
    def check(doc):
        res = doc["results"]
        out = _expect("count", res["count"], A001206[n])
        out += _expect("min size", res["min_size"], 2 ** (n - 1))
        out += _expect("listed", len(res["families"]), A001206[n])
        sizes = {f["size"] for f in res["families"]}
        sizes |= {len(f["members"]) for f in res["families"]}
        return out + _expect("family sizes", sizes, {2 ** (n - 1)})
    return check


def pairing_count(n: int) -> Check:
    return lambda doc: _expect("pairings", len(doc["results"]["pairings"]),
                               A001206[n])


def verify_passes(rows: Optional[int]) -> Check:
    def check(doc):
        res = doc["results"]
        out = _expect("passed", res["passed"], True)
        if rows is not None:
            out += _expect("rows", len(res["rows"]), rows)
        return out
    return check


def restricted_cell(value: Optional[int], attaining: Optional[int]) -> Check:
    def check(doc):
        res = doc["results"]
        out = _expect("status", res["status"], "ok")
        if value is not None:
            out += _expect("value", res["value"], value)
            out += _expect("attaining", res["attaining_count"], attaining)
        return out
    return check


def restricted_sweep(doc) -> list:
    bad = [r for r in doc["results"]["rows"]
           if r["status"] not in ("ok", "empty-universe")]
    return [f"sweep cell failed: {r}" for r in bad[:3]]


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "sweep": (
        command("verify --max-n 5 --max-exp 2", verify_passes(209)),
    ),
    "census": (
        command("antichains --k 6", antichain_count(6)),
        command("count --sig 1,1,1,1,1,1", minimum_count(6)),
        command("oracle --sig 2,1,1,1,1,1", radical_census((2, 1, 1, 1, 1, 1))),
        command("oracle --sig 1,1,1,1,1,1 --method direct-clique",
                squarefree_census(6)),
    ),
    "listing": (
        command("extremal --sig 1,1,1,1,1,1 --list", extremal_listing(6)),
        command("matching --sig 1,1,1,1,1,1", pairing_count(6)),
    ),
    "openprob": (
        # m(1^8; t=3) = 7, attained by the 8 x 30 Fano planes
        command("openprob --mode omega --sig 1,1,1,1,1,1,1,1 --t 3",
                restricted_cell(7, 240)),
        command("openprob --mode bigomega --sig 2,1,1,1,1,1,1 --t 3",
                restricted_cell(None, None)),
        command("openprob --mode omega --max-n 5 --max-exp 3 --t 2,3",
                restricted_sweep),
    ),
    # Tiny inputs through the same harness, for the benchmark's own tests.
    "quick": (
        command("antichains --k 3", antichain_count(3)),
        command("count --sig 1,1,1", minimum_count(3)),
        command("oracle --sig 2,1,1", radical_census((2, 1, 1))),
        command("oracle --sig 1,1,1 --method direct-clique",
                squarefree_census(3)),
        command("extremal --sig 1,1,1 --list", extremal_listing(3)),
        command("matching --sig 1,1,1", pairing_count(3)),
        command("verify --max-n 2 --max-exp 2", verify_passes(None)),
        command("openprob --mode omega --sig 1,1,1 --t 2",
                restricted_cell(3, 1)),
        command("openprob --mode omega --max-n 3 --max-exp 2 --t 2",
                restricted_sweep),
    ),
}

WARMUP = ("bound", "--sig", "1")

# A shared host's speed can drift by 10-50% over tens of seconds, invisibly
# to the guest (no steal time), and no run is long enough to average that out.
# So between commands the harness runs a fixed slice of pure-Python work of
# its own (integer masks, dicts, frozensets, a keyed sort and JSON, the kinds
# of work divint does) and reports end-to-end times in reference seconds: the
# seconds of a host on which one slice takes REFERENCE_SLICE_S.  A run's times
# are multiplied by REFERENCE_SLICE_S / (median slice time of that run).
REFERENCE_SLICE_S = 0.150
# Calibration time after each command, as a share of that command's wall time.
CALIBRATION_SHARE = 0.15


def calibration_slice() -> float:
    """Wall time of one fixed slice of calibration work; never divint code."""
    start = time.perf_counter()
    rng = random.Random(7)
    masks = [rng.getrandbits(64) for _ in range(4000)]
    weights: dict[int, int] = {}
    for i, a in enumerate(masks):
        b = masks[i - 1]
        weights[a & b] = weights.get(a & b, 0) + bin(a | b).count("1")
    sets = [frozenset(j for j in range(64) if m >> j & 1)
            for m in masks[:1500]]
    meets = {s & t for s in sets for t in sets[:8]}
    order = sorted(meets, key=lambda s: (len(s), sorted(s)))
    json.dumps([{"members": sorted(s), "size": len(s)} for s in order[:3000]],
               indent=2)
    return time.perf_counter() - start


def calibrate(budget_s: float) -> list[float]:
    """Run calibration slices for about `budget_s` (at least one slice)."""
    slices = [calibration_slice()]
    while sum(slices) < budget_s:
        slices.append(calibration_slice())
    return slices


@dataclass
class Result:
    """One command run in one child process."""

    key: str
    wall_s: float
    main_s: Optional[float]
    rss_kb: int
    exit_code: Optional[int]  # None when killed at the time limit
    problems: list
    trace: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def setup_s(self) -> float:
        # a child that wrote no report is all set-up; it has failed anyway
        return self.wall_s - (self.main_s or 0.0)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DIVINT_")
           and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs commands hermetically and checks every output."""

    def __init__(self, workdir: Path, golden: dict, deadline: float):
        self.workdir = workdir
        self.cwd = workdir / "cwd"  # stays empty: the children's cwd
        self.cwd.mkdir()
        self.report = workdir / "report.json"
        self.golden = golden
        self.deadline = deadline
        self.env = child_env()
        self.known: dict = {}  # stdout digest -> known-value problems

    def spawn(self, args, traced: bool, limit_s: float):
        """Run one child; return (wall, rusage, exit code, stdout, stderr)."""
        self.report.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), str(self.report),
                "1" if traced else "0", "--", *args]
        start = time.perf_counter()
        due = min(start + limit_s, self.deadline)
        proc = subprocess.Popen(
            argv, cwd=self.cwd, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        out, err, timed_out = _drain(proc, due)
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if timed_out else proc.returncode
        return wall, usage, code, out, err

    def run(self, cmd: Command, traced: bool = False) -> Result:
        wall, usage, code, out, err = self.spawn(cmd.args, traced, cmd.limit_s)
        digest = hashlib.sha256(out).hexdigest()
        problems = []
        if code is None:
            problems.append(f"killed after its {cmd.limit_s:g} s limit")
        golden = self.golden.get(cmd.key)
        if golden is None:
            problems.append("no golden output recorded")
        else:
            if code != golden["exit"]:
                problems.append(f"exit {code}, expected {golden['exit']}")
            if digest != golden["sha256"]:
                problems.append("stdout differs from the golden document")
        if code == 0:
            problems += self.known_values(cmd, digest, out)
        report = _read_report(self.report)
        if report is None:
            problems.append("child wrote no report")
        if problems:
            tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
            problems += [f"stderr: {line}" for line in tail]
        return Result(
            key=cmd.key, wall_s=wall,
            main_s=report.get("main_s") if report else None,
            rss_kb=usage.ru_maxrss, exit_code=code,
            problems=problems, trace=report.get("trace") if report else None,
        )

    def known_values(self, cmd: Command, digest: str, out: bytes) -> list:
        """Known-value problems; identical bytes give identical answers."""
        if digest not in self.known:
            try:
                self.known[digest] = cmd.check(json.loads(out))
            except (ValueError, KeyError, TypeError) as exc:
                self.known[digest] = [f"unreadable document: {exc!r}"]
        return list(self.known[digest])


def _drain(proc, due: float):
    """Read stdout and stderr to EOF, or until `due`; True if time ran out."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = due - time.perf_counter()
            if remaining <= 0:
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
        timed_out = bool(sel.get_map())
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), timed_out


def _read_report(path: Path) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# --- traced-pass aggregation ------------------------------------------------

def pass_trace(results: list[Result]) -> dict:
    """Sum span totals and counters of one traced pass over its commands."""
    spans: dict[str, dict] = {}
    closures = 0
    for r in results:
        if r.trace is None:
            continue
        closures += r.trace["closures_under_classify"]
        for name, entry in r.trace["spans"].items():
            acc = spans.setdefault(name, {})
            for stat, value in entry.items():
                acc[stat] = acc.get(stat, 0) + value
    return {"spans": spans, "closures_under_classify": closures}


def span_accounting_problems(trace: dict, tol: float = 1e-6) -> list:
    """Self plus traced-children time equals inclusive time, per span, and
    the self times of all spans add up to the time inside `cli.main`."""
    spans = trace["spans"]
    out = []
    for name, e in spans.items():
        if abs(e["self_s"] + e["child_s"] - e["incl_s"]) > tol:
            out.append(f"span {name}: self + children != inclusive")
        if e["self_s"] < -tol:
            out.append(f"span {name}: negative self time")
    root = spans.get("cli.main")
    if root is None:
        out.append("no cli.main span")
    elif abs(sum(e["self_s"] for e in spans.values()) - root["incl_s"]) > tol:
        out.append("self times do not add up to the cli.main time")
    return out


def counters(trace: dict) -> dict:
    """Every exact count of a traced pass; these must repeat across passes."""
    out = {"closures_under_classify": trace["closures_under_classify"]}
    for name, e in trace["spans"].items():
        for stat, value in e.items():
            if not stat.endswith("_s"):
                out[f"{name}.{stat}"] = value
    return out


def layer_metric(name: str, traces: list[dict], overhead_s: float):
    """Value of one per-layer metric, from a list of traced passes."""
    if name == "trace.overhead_s":
        return overhead_s
    span, stat = name.rsplit(".", 1)
    if stat == "closures_per_call":
        calls = traces[0]["spans"].get(span, {}).get("calls", 0)
        return traces[0]["closures_under_classify"] / calls if calls else 0.0
    values = [t["spans"].get(span, {}).get(stat, 0) for t in traces]
    return statistics.median(values) if stat.endswith("_s") else values[0]


# --- measurement --------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_passes(runner: Runner, commands, seed: int, seconds: float,
               traced: bool) -> tuple[list, list, list[float]]:
    """Run passes until `seconds` is spent; return plain and traced passes
    and the times of the calibration slices.

    In plain passes every command is followed by calibration.  Traced runs
    alternate traced and plain passes, starting traced, and run at least two
    traced passes so that their counters can be compared.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    plain: list[list[Result]] = []
    traced_passes: list[list[Result]] = []
    slices: list[float] = []
    durations: list[float] = []
    kind = traced
    while True:
        t0 = time.perf_counter()
        results = []
        for cmd in rng.sample(commands, len(commands)):
            results.append(runner.run(cmd, traced=kind))
            if not kind:
                slices += calibrate(CALIBRATION_SHARE * results[-1].wall_s)
        (traced_passes if kind else plain).append(results)
        durations.append(time.perf_counter() - t0)
        kind = traced and not kind
        elapsed = time.perf_counter() - start
        estimate = statistics.median(durations)
        if plain and elapsed + estimate > HARD_LIMIT_S:
            break
        enough = plain and (len(traced_passes) >= 2 or not traced)
        # stop at the pass boundary nearest to `seconds`
        if enough and elapsed + estimate / 2 > seconds:
            break
    return plain, traced_passes, slices


def pass_walls(passes: list[list[Result]]) -> list[float]:
    """Wall time of each pass: the sum over its child processes."""
    return [sum(r.wall_s for r in p) for p in passes]


def print_spread(label: str, values: list[float]) -> float:
    """Print median, quartiles and sample count; return the median."""
    q1, med, q3 = quartiles(values)
    print(f"{label}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
          f"over {len(values)}", flush=True)
    return med


def end_to_end(commands, plain: list[list[Result]],
               slices: list[float]) -> dict:
    results = [r for p in plain for r in p]
    for cmd in commands:
        times = [r.wall_s for r in results if r.key == cmd.key]
        print(f"  {cmd.key}: median {statistics.median(times):.4f} host s")
    scale = REFERENCE_SLICE_S / print_spread("calibration slice (s)", slices)
    print(f"reference s per host s: {scale:.4f}")
    return {
        "wall_s": scale * print_spread("wall_s per pass (host s)",
                                       pass_walls(plain)),
        "setup_s": scale * print_spread("setup_s per child (host s)",
                                        [r.setup_s for r in results]),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024,
        "ok_share": sum(r.ok for r in results) / len(results),
    }


def per_layer(names, plain, traced_passes) -> dict:
    traces = [pass_trace(p) for p in traced_passes]
    problems = []
    for t in traces:
        problems += span_accounting_problems(t)
    if any(counters(t) != counters(traces[0]) for t in traces[1:]):
        problems.append("traced counters differ between passes")
    # a tracer failure fails the last traced command, so the run is incorrect
    traced_passes[-1][-1].problems.extend(problems)
    overhead = (print_spread("traced wall_s per pass (host s)",
                             pass_walls(traced_passes))
                - print_spread("plain wall_s per pass (host s)",
                               pass_walls(plain)))
    return {name: layer_metric(name, traces, overhead) for name in names}


def environment() -> dict:
    """Where the run happened: interpreter, cores, load, code version."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "divint").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_golden(runner: Runner) -> int:
    """Record exit code and stdout digest of every command of every workload."""
    golden = {}
    bad = 0
    for name, commands in WORKLOADS.items():
        for cmd in commands:
            wall, _, code, out, _ = runner.spawn(cmd.args, False, cmd.limit_s)
            digest = hashlib.sha256(out).hexdigest()
            problems = runner.known_values(cmd, digest, out) if code == 0 else [
                f"exit {code}"]
            bad += bool(problems)
            print(f"{name}: {cmd.key}: exit {code} {wall:.2f}s {problems}")
            golden[cmd.key] = {"exit": code, "sha256": digest}
    if bad:
        print(f"{bad} commands failed their known-value checks; "
              f"golden.json left unchanged", file=sys.stderr)
        return 1
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="record golden.json from the current source tree")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_golden:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "divint" / "cli.py").is_file():
        print(f"divint sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        golden = {}
        if not args.write_golden:
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                golden = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read the benchmark definition: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    runs_root = ROOT / ".divbench_run"
    runs_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=runs_root))
    try:
        runner = Runner(workdir, golden, start + HARD_LIMIT_S)
        if args.write_golden:
            runner.deadline = float("inf")
            return write_golden(runner)
        runner.spawn(WARMUP, False, 60.0)  # fills __pycache__ and page cache
        calibrate(2 * REFERENCE_SLICE_S)  # grows the harness's own heap
        print("env: " + json.dumps(environment(), sort_keys=True), flush=True)
        commands = list(WORKLOADS[args.workload])
        plain, traced_passes, slices = run_passes(
            runner, commands, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            runs_root.rmdir()
        except OSError:
            pass  # another run is still using it

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = per_layer([m["name"] for m in wanted], plain, traced_passes)
    else:
        values = end_to_end(commands, plain, slices)
    results = [r for p in plain + traced_passes for r in p]
    for r in results:
        if not r.ok:
            print(f"FAIL {r.key}: {'; '.join(r.problems)}")
    failed = sum(not r.ok for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
