"""Self-checks of the divint benchmark harness, on the tiny `quick` inputs.

They confirm in seconds that the span accounting holds, that traced counters
repeat, that golden digests, known values and time limits are enforced, and
that the benchmark refuses to run without the divint sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("divbench_run", BENCH / "run.py")
run = sys.modules["divbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

QUICK = run.WORKLOADS["quick"]


def _golden() -> dict:
    return json.loads(run.GOLDEN_PATH.read_text())


def _runner(tmp_path, golden=None) -> "run.Runner":
    golden = _golden() if golden is None else golden
    return run.Runner(tmp_path, golden, time.perf_counter() + 120)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "divbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_workload_command_has_a_golden_output():
    golden = _golden()
    for commands in run.WORKLOADS.values():
        for cmd in commands:
            assert cmd.key in golden, cmd.key


def test_known_failures_stay_out_of_the_workloads():
    known = json.loads((BENCH / "known_failures.json").read_text())
    keys = {c.key for cmds in run.WORKLOADS.values() for c in cmds}
    assert known and all(f["command"] not in keys for f in known)


def test_traced_spans_add_up_and_counters_repeat(tmp_path):
    runner = _runner(tmp_path)
    traces = []
    for _ in range(2):
        results = [runner.run(c, traced=True) for c in QUICK]
        assert all(r.ok for r in results), [r.problems for r in results]
        traces.append(run.pass_trace(results))
    for trace in traces:
        assert run.span_accounting_problems(trace) == []
        spans = trace["spans"]
        for name, e in spans.items():
            assert e["self_s"] + e["child_s"] == pytest.approx(e["incl_s"],
                                                               abs=1e-9)
        assert spans["cli.main"]["calls"] == len(QUICK)
    assert run.counters(traces[0]) == run.counters(traces[1])


def test_span_accounting_catches_lost_time():
    trace = {"closures_under_classify": 0, "spans": {
        "cli.main": {"calls": 1, "incl_s": 1.0, "self_s": 0.5, "child_s": 0.5},
        "report.json_dumps": {"calls": 1, "incl_s": 0.4, "self_s": 0.4,
                              "child_s": 0.0},
    }}
    assert run.span_accounting_problems(trace) == [
        "self times do not add up to the cli.main time"]


def test_wrong_digest_fails_the_command(tmp_path):
    cmd = QUICK[0]
    golden = _golden()
    golden[cmd.key] = dict(golden[cmd.key], sha256="0" * 64)
    result = _runner(tmp_path, golden).run(cmd)
    assert result.exit_code == 0
    assert "stdout differs from the golden document" in result.problems


def test_wrong_known_value_fails_the_command(tmp_path):
    cmd = QUICK[0]
    wrong = run.Command(cmd.args, run.antichain_count(4))  # 12, not 4
    result = _runner(tmp_path).run(wrong)
    assert result.problems[0] == "antichain count: got 4, expected 12"


def test_time_limit_kills_the_command(tmp_path):
    cmd = run.Command(QUICK[0].args, QUICK[0].check, limit_s=0.01)
    result = _runner(tmp_path).run(cmd)
    assert result.exit_code is None
    assert result.problems[0].startswith("killed after")


def test_children_see_no_divint_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("DIVINT_FORMAT", "csv")
    runner = _runner(tmp_path)
    assert not any(k.startswith("DIVINT_") for k in runner.env)
    assert list(runner.cwd.iterdir()) == []
    assert runner.run(QUICK[0]).ok


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_quick_run_reports_every_metric(trace, section):
    proc = _bench("--workload", "quick", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= len(QUICK)
    wanted = [m["name"] for m in run.load_spec()[section]]
    assert list(out["metrics"]) == wanted
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "divbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "quick", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_times_are_in_reference_seconds():
    # the host ran at half the reference speed: every slice took twice as long
    slices = [2 * run.REFERENCE_SLICE_S] * 3
    results = [run.Result(key=c.key, wall_s=4.0, main_s=3.0, rss_kb=1024,
                          exit_code=0, problems=[]) for c in QUICK[:2]]
    values = run.end_to_end(QUICK[:2], [results], slices)
    assert values["wall_s"] == pytest.approx(4.0)
    assert values["setup_s"] == pytest.approx(0.5)
