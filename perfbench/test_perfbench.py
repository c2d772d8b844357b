"""Self-tests of the benchmark harness.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_pass(workload, ops):
    tracer = tracing.Tracer()
    runner = workloads.make_runner(workload)
    try:
        with tracing.Instrumentation().installed(tracer):
            result = workloads.run_rounds(
                runner, [ops], workloads.load_expected(), tracer=tracer)
    finally:
        runner.close()
    return result, tracer


def test_seeds_change_order_and_inputs_but_not_simulated_totals():
    expected = workloads.load_expected()
    runner = workloads.make_runner("sdk_serve")
    totals, orders, params = [], [], []
    try:
        for seed in (1, 2):
            ops = workloads.distinct_ops("sdk_serve", seed)
            rounds = workloads.schedule(ops, seed, 2)
            result = workloads.run_rounds(runner, rounds, expected)
            assert not result.failures, result.failures[:3]
            instructions = sum(r.instructions for r in result.records)
            cycles = sum(r.cu_cycles for r in result.records)
            totals.append((instructions, cycles, cycles / instructions))
            orders.append([[op.key for op in ops_] for ops_ in rounds])
            params.append({op.key: op.params for op in ops})
    finally:
        runner.close()
    assert totals[0] == totals[1]
    assert orders[0] != orders[1]
    assert [sorted(r) for r in orders[0]] == [sorted(r) for r in orders[1]]
    assert params[0] != params[1]


def test_seed_param_only_where_the_kernel_declares_one():
    for workload in workloads.WORKLOADS:
        for op in workloads.distinct_ops(workload, 7):
            declares = "seed" in workloads.KERNELS[op.app].defaults
            assert (dict(op.params).keys() == {"seed"}) == declares, op
    unseeded = [op for op in workloads.distinct_ops("sdk_serve", 7)
                if op.app == "monte_carlo_asian"]
    assert unseeded and all(op.params == () for op in unseeded)


def test_schedule_runs_every_op_once_per_round():
    ops = workloads.distinct_ops("eval_sim", 5)
    rounds = workloads.schedule(ops, 5, 3)
    assert len(rounds) == 3
    assert all(sorted(r, key=repr) == sorted(ops, key=repr) for r in rounds)
    assert rounds == workloads.schedule(ops, 5, 3)


def test_restore_puts_every_original_back():
    instrumentation = tracing.Instrumentation()
    before = instrumentation.snapshot()
    instrumentation.install(tracing.Tracer())
    during = instrumentation.snapshot()
    restored = instrumentation.restore()
    after = instrumentation.snapshot()
    assert restored == len(before)
    assert during.keys() == before.keys()
    assert all(during[key] is not before[key] for key in before)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_snapshot_catches_a_wrapper_bound_while_tracing():
    instrumentation = tracing.Instrumentation()
    before = instrumentation.snapshot()
    instrumentation.install(tracing.Tracer())
    late = types.ModuleType("repro._late_import")
    late.assemble = sys.modules["repro.asm.assembler"].assemble
    sys.modules[late.__name__] = late
    try:
        instrumentation.restore()
        after = instrumentation.snapshot()
    finally:
        del sys.modules[late.__name__]
    assert after[(late, "assemble")] is not before[
        (sys.modules["repro.asm.assembler"], "assemble")]
    assert set(after) - set(before) == {(late, "assemble")}


def test_op_self_times_sum_to_the_op_duration():
    for workload in workloads.WORKLOADS:
        ops = workloads.distinct_ops(workload, 3)[:4]
        result, tracer = _traced_pass(workload, ops)
        assert not result.failures, result.failures
        assert tracer.problems() == []
        roots = {s.op: s.end - s.start for s in tracer.spans if s.name == "op"}
        assert list(roots.values()) == [r.latency_s for r in result.records]
        parts = tracer.per_op_self()
        assert parts.keys() == roots.keys()
        for op, duration in roots.items():
            assert abs(sum(parts[op].values()) - duration) < 1e-9


def test_service_job_runs_as_a_dispatcher_child_of_the_op():
    _, tracer = _traced_pass("sdk_serve",
                             workloads.distinct_ops("sdk_serve", 3)[:2])
    by_id = {span.id: span for span in tracer.spans}
    executes = [s for s in tracer.spans if s.name == "exec.execute"]
    assert len(executes) == 2
    for span in executes:
        root = by_id[span.parent]
        assert root.name == "op" and root.thread != span.thread
    assert tracer.problems() == []


def _span(tracer, name, start, end, parent=None, thread=1, op=0):
    span = tracing.Span(len(tracer.spans), name, start, parent, op, thread)
    span.end = end
    tracer.spans.append(span)
    return span


def test_dispatcher_time_is_taken_from_the_client_span_it_overlaps():
    tracer = tracing.Tracer()
    root = _span(tracer, "op", 0.0, 10.0)
    _span(tracer, "service.submit", 1.0, 3.0, root.id)
    _span(tracer, "service.wait", 4.0, 9.0, root.id)
    execute = _span(tracer, "exec.execute", 2.0, 8.0, root.id, thread=2)
    _span(tracer, "soc.launch", 5.0, 7.0, execute.id, thread=2)
    own = {span.name: seconds for span, seconds in tracer.self_times()}
    assert own == {"op": 2.0, "service.submit": 1.0, "service.wait": 1.0,
                   "exec.execute": 4.0, "soc.launch": 2.0}
    assert tracer.problems() == []


def test_problems_catch_spans_that_cannot_be_attributed():
    def problems(build):
        tracer = tracing.Tracer()
        build(tracer, _span(tracer, "op", 0.0, 10.0))
        return tracer.problems()

    # A child that outlives its parent.
    assert problems(lambda t, root: _span(t, "exec.execute", 9.0, 11.0,
                                          root.id))
    # Two spans of one thread open at once under one parent.
    assert problems(lambda t, root: (_span(t, "a", 1.0, 5.0, root.id),
                                     _span(t, "b", 4.0, 6.0, root.id)))
    # Aggregated hook time beyond the span's duration.
    def hooks(t, root):
        _span(t, "cu.run_workgroup", 1.0, 2.0, root.id).agg = {
            "obs.hook": [3, 1.5]}
    assert problems(hooks)
    # A span that ran outside every op.
    assert problems(lambda t, root: _span(t, "exec.lease", 11.0, 12.0,
                                          op=None))
    # The sound trace the cases above start from.
    assert problems(lambda t, root: _span(t, "a", 1.0, 5.0, root.id)) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError("printed a result: " + line)
