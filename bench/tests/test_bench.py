"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

import inspect
import json
import re
import shutil
import statistics
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Span, Tracer, self_times, summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, start, end, parent=None, thread=0):
    return Span(name, start, end, parent, thread)


class TestSelfTimes:
    def test_nested_single_thread(self):
        root = _span("root", 0.0, 10.0)
        a = _span("a", 1.0, 4.0, root)
        b = _span("b", 5.0, 6.0, root)
        a1 = _span("a1", 2.0, 3.0, a)
        assert self_times([root, a, b, a1]) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_children_on_two_threads_overlap_once(self):
        root = _span("root", 0.0, 10.0, thread=0)
        a = _span("a", 1.0, 4.0, root, thread=1)
        b = _span("b", 2.0, 6.0, root, thread=2)
        a1 = _span("a1", 1.5, 2.5, a, thread=1)
        spans = [root, a, b, a1]
        # the union [1, 6] of the overlapping children is subtracted once
        assert self_times(spans) == pytest.approx([5.0, 2.0, 4.0, 1.0])
        calls, self_s, total_s = summarize(spans + [_span("a", 7.0, 8.0, root, thread=1)])
        assert calls["a"] == 2
        assert self_s["root"] == pytest.approx(4.0)
        assert total_s["a"] == pytest.approx(4.0)

    def test_child_outliving_parent_is_clipped(self):
        root = _span("root", 0.0, 2.0)
        late = _span("late", 1.0, 5.0, root, thread=1)
        assert self_times([root, late]) == pytest.approx([1.0, 4.0])


class TestTracer:
    def test_worker_spans_take_the_submitting_span_as_parent(self):
        tracer = Tracer()
        inner = tracer.wrap("m.inner", lambda: threading.get_ident())
        middle = tracer.wrap("m.middle", lambda: inner())

        def outer():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return [f.result() for f in [pool.submit(middle) for _ in range(4)]]

        tracer.wrap("m.outer", outer)()
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (root,) = by_name["m.outer"]
        assert root.parent is None
        assert all(s.parent is root for s in by_name["m.middle"])
        assert all(s.parent in by_name["m.middle"] for s in by_name["m.inner"])
        assert all(s.parent.thread == s.thread for s in by_name["m.inner"])
        assert all(s.end is not None and s.end >= s.start for s in tracer.spans)

    def test_probe_reads_the_result_and_exceptions_close_the_span(self):
        tracer = Tracer({"m.f": lambda args, kwargs, result: {"value": result}})
        assert tracer.wrap("m.f", lambda x: 2 * x)(21) == 42
        boom = tracer.wrap("m.g", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            boom()
        assert [s.info for s in tracer.spans] == [{"value": 42}, {}]
        assert tracer.spans[1].end is not None


def _bindings():
    """Every function bound in an rbls module namespace or module-level dict."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "rbls" and not name.startswith("rbls."):
            continue
        for key, value in vars(module).items():
            if inspect.isfunction(value):
                out[(name, key)] = value
            elif isinstance(value, dict):
                for k, v in value.items():
                    if inspect.isfunction(v):
                        out[(name, key, k)] = v
    return out


class TestPatch:
    def test_every_binding_is_patched_and_restored(self):
        import rbls
        import rbls.cli  # noqa: F401
        from rbls import estimators, linalg

        before = _bindings()
        originals = {
            f
            for short in run.TRACED_MODULES
            for n, f in vars(sys.modules[f"rbls.{short}"]).items()
            if inspect.isfunction(f) and f.__module__ == f"rbls.{short}" and not n.startswith("_")
        }
        tracer = Tracer()
        names = tracer.patch("rbls", run.TRACED_MODULES)
        try:
            assert "linalg.thin_svd" in names and "cli.main" in names
            during = _bindings()
            assert not any(f in originals for f in during.values())
            solve = linalg.solve_ls
            assert solve is estimators.solve_ls is rbls.solve_ls
            assert solve is not before[("rbls.linalg", "solve_ls")]
            assert estimators._DISPATCH["SRHT_LS"] is estimators.fit_srht_ls
        finally:
            tracer.unpatch()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_traced_fit_records_the_call_tree(self):
        import rbls

        problem = rbls.gen_corrupted(512, 6, 0.3, 1.0, 0.4, 0.1, seed=3)
        cfg = rbls.EstimatorConfig(method="AIWS_LS", n_subs=64, seed=5)
        plain = rbls.fit(problem, cfg).coefficients
        tracer = Tracer()
        tracer.patch("rbls", run.TRACED_MODULES)
        try:
            traced = rbls.fit(problem, cfg).coefficients
        finally:
            tracer.unpatch()
        assert (plain == traced).all()
        parent_of = {s.name: s.parent.name if s.parent else None for s in tracer.spans}
        assert parent_of["estimators.fit"] is None
        assert parent_of["estimators.fit_aiws_ls"] == "estimators.fit"
        # approx_leverage imports thin_svd at call time; it is traced too
        assert parent_of["linalg.thin_svd"] == "diagnostics.approx_leverage"
        assert parent_of["srht.fwht_inplace"] == "srht.apply_sketch_pair"


TINY_FIT = run.FitWorkload(n=256, p=4, n_subs=32, problems=2, draws=2)
TINY_SWEEP = {**run.SWEEP_CONFIG, "n": 300, "p": 4, "n_test": 50, "n_subs_grid": [8, 16], "replications": 2}


def _declared(section):
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


@pytest.mark.parametrize("workload", ["desk", "sweep"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_declared_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.FIT_WORKLOADS, "desk", TINY_FIT)
    monkeypatch.setattr(run, "SWEEP_CONFIG", TINY_SWEEP)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    printed = [line.split()[0] for line in lines[2:-1] if not line.startswith(" ")]
    assert all(NAME.fullmatch(name) for name in printed if not name.endswith(":"))


def test_gate_failure_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(run.FIT_WORKLOADS, "desk", TINY_FIT)
    lstsq = run.np.linalg.lstsq
    monkeypatch.setattr(run.np.linalg, "lstsq", lambda Z, y, rcond: (1.01 * lstsq(Z, y, rcond=rcond)[0],))
    code = run.main(["--workload", "desk", "--seed", "7", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] == TINY_FIT.problems  # one OLS fit per problem


def test_declared_names_are_well_formed():
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in _declared(section)]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_host_clock_scales_timings_by_the_run_slowdown():
    clock = run.HostClock()
    for name, nominal in run.REF_NOMINAL_MS.items():
        # a host twice as slow as nominal, with one outlier sample per kernel
        clock.samples[name] = [2.0 * nominal] * 3 + [50.0 * nominal]
    assert clock.slowdown() == pytest.approx(2.0)
    clock.samples["interp"] = [9.0 * run.REF_NOMINAL_MS["interp"]]  # one kernel way off
    assert clock.slowdown() == pytest.approx(2.0)
    (value, unit), note = run.host_metric(clock, [80.0, 120.0, 100.0], statistics.median, "ms")
    assert (value, unit) == (pytest.approx(50.0), "ms")
    assert note.startswith("100 ms as measured")
    (value, unit), _ = run.host_metric(clock, [80.0, 80.0], lambda v: 1000.0 * len(v) / sum(v), "1/s")
    assert (value, unit) == (pytest.approx(25.0), "1/s")


def test_tail_note_needs_ten_samples_beyond():
    assert "p50" in run.tail_note(list(range(20)))
    assert "p95" in run.tail_note(list(range(200)))
    assert "too few" in run.tail_note(list(range(19)))


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
