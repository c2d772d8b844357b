"""Spans around calls into each layer, installed only for the traced pass.

The benchmark does not change the program to trace it.  Instead
:class:`Instrumentation` wraps the public functions of each layer from
outside -- module functions at every place they are bound, methods on
the class that defines them -- and :meth:`Instrumentation.restore` puts
every original object back.  Each call becomes a :class:`Span` (name,
start, end, parent span, op id), kept in memory by a :class:`Tracer`
and written out when the run ends.

The self time of a span is its duration minus the time its child
spans cover.  A span opened on a thread with no open span of its own
while an op is open (the service's dispatcher thread runs the job while
the client is in ``KernelService.submit`` or ``result``) is a child of
the op's root span.  Its time is taken out of whichever span was
innermost on the client's thread at each moment it ran, so the self
times of an op's spans sum to the op's duration whichever client span
the job overlapped.  :meth:`Tracer.problems` checks what that rests
on: spans nest within their parents, siblings on one thread do not
overlap, and no self time is negative.

Observer hooks fire once per simulated event, far too often for a span
each: their time and count are aggregated into the enclosing span
(``Span.agg``) and still subtracted from its self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: (span name, module, class or None, attribute) of every traced call.
#: A ``None`` class means a module-level function, patched wherever it
#: is bound.
LAYER_CALLS = (
    ("service.submit", "repro.service.scheduler", "KernelService", "submit"),
    ("service.wait", "repro.service.scheduler", "KernelService", "result"),
    ("core.trim", "repro.core.trimmer", "TrimmingTool", "trim"),
    ("core.plan", "repro.core.parallelize", None, "plan"),
    ("fpga.synthesize", "repro.fpga.synthesis", "Synthesizer", "synthesize"),
    ("asm.assemble", "repro.asm.assembler", None, "assemble"),
    ("exec.execute", "repro.exec.executor", "Executor", "execute"),
    ("exec.lease", "repro.exec.lease", "BoardPool", "lease"),
    ("runtime.board_build", "repro.runtime.device", "SoftGpu", "__init__"),
    ("runtime.reset", "repro.runtime.device", "SoftGpu", "reset"),
    ("soc.launch", "repro.soc.gpu", "Gpu", "launch"),
    ("soc.build_workgroup", "repro.soc.dispatcher", "Dispatcher",
     "build_workgroup"),
    ("cu.run_workgroup", "repro.cu.pipeline", "ComputeUnit", "run_workgroup"),
    ("cu.prepare", "repro.cu.prepared", None, "lookup_prepared"),
    ("cu.superblock_build", "repro.cu.superblock", None, "build_superblocks"),
    ("cu.timing_table", "repro.cu.timing", None, "lookup_timing_table"),
)

#: Benchmark hooks, wrapped on every kernel class that defines them.
KERNEL_HOOKS = (("kernels.prepare", "prepare"), ("kernels.verify", "verify"))

#: Observer fan-out methods, aggregated into the enclosing span.
OBS_HOOKS = ("emit_issue", "emit_stall", "emit_mem_access", "emit_span",
             "emit_step")

#: What a span keeps of its call's return value (counts and hit flags).
RESULT_INFO = {
    "exec.execute": lambda r: (r.memory_stats.get("prefetch_hits", 0),
                               r.memory_stats.get("prefetch_misses", 0)),
    "exec.lease": lambda lease: lease.warm,
    "cu.run_workgroup": lambda r: r[1].instructions,
    "cu.prepare": lambda r: r[1],
    "cu.timing_table": lambda r: r[1],
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread",
                 "info", "agg")

    def __init__(self, id, name, start, parent, op, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.info = None
        self.agg = None        # {name: [count, seconds]} of aggregated calls

    def to_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "thread": self.thread, "info": self.info, "agg": self.agg}


def _overlap(a, b):
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


class Tracer:
    """Spans of one traced pass, grouped by op."""

    #: Slack for comparing times taken from the same clock.
    EPS = 1e-9

    def __init__(self):
        self.spans = []
        self.ops = 0
        self._lock = threading.Lock()        # span ids and open stacks
        self._stacks = defaultdict(list)     # thread id -> open spans
        self._root = None                    # root span of the open op

    def _new_span(self, name, start, parent, op, thread):
        span = Span(len(self.spans), name, start, parent, op, thread)
        self.spans.append(span)
        self._stacks[thread].append(span)
        return span

    def begin_op(self, op_id, start):
        """Open the root span of one op at ``start`` (the op's own clock)."""
        with self._lock:
            self._root = self._new_span("op", start, None, op_id,
                                        threading.get_ident())

    def end_op(self, end):
        with self._lock:
            root = self._stacks[self._root.thread].pop()
            self._root = None
        root.end = end
        self.ops += 1

    def open(self, name):
        thread = threading.get_ident()
        with self._lock:
            stack, root = self._stacks[thread], self._root
            if stack:
                parent, op = stack[-1].id, stack[-1].op
            elif root is not None:
                # Another thread working for the open op (the service's
                # dispatcher): a child of the op's root span.
                parent, op = root.id, root.op
            else:
                parent, op = None, None
            return self._new_span(name, time.perf_counter(), parent, op,
                                  thread)

    def close(self, span):
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()

    def aggregate(self, name, seconds):
        stack = self._stacks[threading.get_ident()]
        if not stack:
            return
        span = stack[-1]
        if span.agg is None:
            span.agg = {}
        entry = span.agg.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    # -- analysis ------------------------------------------------------------

    def _children(self):
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        return children

    def self_times(self):
        """``(span, self seconds)`` for every closed span.

        A child on the parent's own thread is subtracted whole.  A child
        on another thread ran while the parent's thread sat in one of
        its own spans (the client in ``submit`` or ``result``); each
        moment of it is subtracted from the span that was innermost on
        the parent's thread at that moment.
        """
        children = self._children()
        own = {}
        for span in self.spans:
            own[span.id] = span.end - span.start - sum(
                seconds for _, seconds in (span.agg or {}).values())
        for span in self.spans:
            for child in children[span.id]:
                if child.thread == span.thread:
                    own[span.id] -= child.end - child.start
                    continue
                todo = [span]
                while todo:
                    host = todo.pop()
                    own[host.id] -= _overlap(child, host)
                    for inner in children[host.id]:
                        if inner.thread == host.thread:
                            own[host.id] += _overlap(child, inner)
                            todo.append(inner)
        return [(span, own[span.id]) for span in self.spans]

    def problems(self):
        """What makes the attribution untrustworthy; empty when sound.

        Every span must belong to an op, lie within its parent's
        [start, end], not overlap a sibling on its own thread, and keep
        a self time >= 0.
        """
        eps = self.EPS
        out = []
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            if span.op is None:
                out.append("span {} ({}) outside any op".format(
                    span.id, span.name))
            parent = by_id.get(span.parent)
            if parent is not None and (span.start < parent.start - eps
                                       or span.end > parent.end + eps):
                out.append("span {} ({}) not within its parent {} ({})".format(
                    span.id, span.name, parent.id, parent.name))
        for kids in self._children().values():
            local = defaultdict(list)
            for kid in kids:
                local[kid.thread].append(kid)
            for group in local.values():
                group.sort(key=lambda s: s.start)
                for a, b in zip(group, group[1:]):
                    if b.start < a.end - eps:
                        out.append("sibling spans {} and {} overlap".format(
                            a.id, b.id))
        for span, own in self.self_times():
            if own < -eps:
                out.append("span {} ({}) self time {:.3g} s < 0".format(
                    span.id, span.name, own))
        return out

    def layer_totals(self):
        """``{name: [calls, self seconds]}`` over the whole pass."""
        totals = defaultdict(lambda: [0, 0.0])
        for span, own in self.self_times():
            totals[span.name][0] += 1
            totals[span.name][1] += own
            for name, (count, seconds) in (span.agg or {}).items():
                totals[name][0] += count
                totals[name][1] += seconds
        return totals

    def per_op_self(self):
        """``{op id: {name: self seconds}}``, the op's duration split."""
        out = defaultdict(lambda: defaultdict(float))
        for span, own in self.self_times():
            if span.op is None:
                continue
            out[span.op][span.name] += own
            for name, (_, seconds) in (span.agg or {}).items():
                out[span.op][name] += seconds
        return out

    def infos(self, name):
        return [span.info for span in self.spans if span.name == name]

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": [span.to_dict() for span in self.spans]},
                      handle)


# ---------------------------------------------------------------------------
# Installing and removing the wrappers.
# ---------------------------------------------------------------------------

class _EnterSpan:
    """A context manager whose ``__enter__`` (the board lease) is a span."""

    def __init__(self, manager, inst, name):
        self.manager, self.inst, self.name = manager, inst, name

    def __enter__(self):
        tracer = self.inst.tracer
        span = tracer.open(self.name)
        try:
            handle = self.manager.__enter__()
            span.info = RESULT_INFO[self.name](handle)
        finally:
            tracer.close(span)
        return handle

    def __exit__(self, *exc_info):
        return self.manager.__exit__(*exc_info)


class Instrumentation:
    """Wraps every traced call; :meth:`restore` undoes it exactly."""

    def __init__(self):
        self.tracer = None
        self._patched = []          # (owner, attribute, original)

    def install(self, tracer):
        if self._patched:
            raise RuntimeError("instrumentation is already installed")
        self.tracer = tracer
        wrappers = {}               # one wrapper per original, however bound
        for name, owner, attr, make in list(self._targets()):
            original = vars(owner)[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = make(name, original)
            setattr(owner, attr, wrappers[id(original)])
            self._patched.append((owner, attr, original))

    def restore(self):
        """Put every original back; returns how many bindings it restored."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = len(self._patched)
        self._patched = []
        self.tracer = None
        return restored

    @contextlib.contextmanager
    def installed(self, tracer):
        """Trace into ``tracer`` for the duration of a ``with`` block."""
        self.install(tracer)
        try:
            yield tracer
        finally:
            self.restore()

    def snapshot(self):
        """``{(owner, attribute): object}`` for every binding to wrap.

        Equal (by identity) before :meth:`install` and after
        :meth:`restore`: the check that tracing left nothing behind.
        """
        return {(owner, attr): vars(owner)[attr]
                for _, owner, attr, _ in self._targets()}

    def _targets(self):
        """``(span name, owner, attribute, wrapper factory)`` to patch."""
        for name, module, cls, attr in LAYER_CALLS:
            __import__(module)
            owner = sys.modules[module]
            if cls is None:
                for bound_in, alias in self._bindings(getattr(owner, attr)):
                    yield name, bound_in, alias, self._span_wrapper
            elif name == "exec.lease":
                yield name, getattr(owner, cls), attr, self._lease_wrapper
            else:
                yield name, getattr(owner, cls), attr, self._span_wrapper
        for cls in self._kernel_classes():
            for name, attr in KERNEL_HOOKS:
                if attr in vars(cls):
                    yield name, cls, attr, self._span_wrapper
        from repro.obs.observer import ObserverHub

        for attr in OBS_HOOKS:
            yield "obs.hook", ObserverHub, attr, self._aggregate_wrapper

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _bindings(function):
        """``(module, name)`` of every ``repro`` module binding ``function``.

        A binding to a wrapper of ``function`` counts too, so a module
        imported while tracing that kept a wrapper shows up in
        :meth:`snapshot` after :meth:`restore`.
        """
        return [(module, name)
                for module_name, module in list(sys.modules.items())
                if module is not None and (module_name == "repro"
                                           or module_name.startswith("repro."))
                for name, value in list(vars(module).items())
                if value is function
                or getattr(value, "__wrapped__", None) is function]

    @staticmethod
    def _kernel_classes():
        from repro.kernels import KERNELS
        from repro.kernels.base import Benchmark

        seen = []
        for cls in KERNELS.values():
            for klass in cls.__mro__:
                if issubclass(klass, Benchmark) and klass not in seen:
                    seen.append(klass)
        return seen

    def _span_wrapper(self, name, original):
        info = RESULT_INFO.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer = self.tracer
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if info is not None:
                    span.info = info(result)
                return result
            finally:
                tracer.close(span)
        return wrapper

    def _lease_wrapper(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return _EnterSpan(original(*args, **kwargs), self, name)
        return wrapper

    def _aggregate_wrapper(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.tracer.aggregate(name, time.perf_counter() - start)
        return wrapper
