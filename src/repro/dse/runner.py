"""The sweep engine: evaluate a :class:`DesignSpace` end to end.

For every :class:`~repro.dse.space.DesignPoint` the runner walks the
whole Figure 3 pipeline:

1. **resolve** -- assemble the point's kernels, run (or reuse) the
   Algorithm 1 trim via the content-addressed
   :class:`~repro.service.cache.ArtifactCache`, apply the point's
   re-investment shape, synthesise, and enforce the area budget: a
   re-investment point is only legal if trimming freed enough device
   resources to pay for the extra CUs/VALUs
   (:class:`~repro.errors.AreaBudgetError` names the point otherwise);
2. **execute** -- fan the point's kernels out through the unified
   execution layer (:meth:`Executor.execute_many` on warm boards);
3. **join** -- merge simulated CU cycles with the synthesis report's
   area and the power model's energy into one :class:`PointResult`,
   and persist it in the :class:`~repro.dse.store.ResultStore` so an
   interrupted sweep resumes instead of re-simulating.

Everything in a :class:`PointResult` payload is *simulated* state --
no wall clocks, no timestamps -- so the same spec always reduces to
byte-identical reports (the determinism property the tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.config import ArchConfig
from ..core.trimmer import TrimmingTool
from ..errors import AreaBudgetError, DseError, ReproError
from ..fpga.synthesis import Synthesizer
from ..service.cache import ArtifactCache
from .pareto import DEFAULT_OBJECTIVES, frontier_flags
from .space import DesignPoint, DesignSpace
from .store import ResultStore, evaluation_key

@dataclass(frozen=True)
class SweepSpec:
    """Everything one sweep run is parameterised by.

    ``verify=False`` (the default) runs each kernel with its suite
    workgroup-sampling cap -- the timing-study policy; ``verify=True``
    executes every workgroup and checks outputs against the NumPy
    reference.  ``budget_margin`` scales the device's usable capacity
    (1.0 = the routing-ceiling budget of the synthesis model).
    """

    space: DesignSpace
    verify: bool = False
    workers: int = 4
    budget_margin: float = 1.0
    store_dir: Optional[str] = None

    def __post_init__(self):
        if not (0.1 <= self.budget_margin <= 2.0):
            raise DseError("budget_margin must be within 0.1..2.0")
        if self.workers < 1:
            raise DseError("workers must be >= 1")


@dataclass
class PointResult:
    """One evaluated (or rejected) design point, fully joined."""

    point: DesignPoint
    status: str                      # ok | infeasible | failed
    arch: Optional[ArchConfig] = None
    reused: bool = False             # loaded from the result store
    error: str = ""
    #: synthesis-side numbers (area in device primitives, power in W)
    area: dict = field(default_factory=dict)
    power_w: float = 0.0
    budget: dict = field(default_factory=dict)
    #: per-kernel simulated numbers
    kernels: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.status == "ok"

    @property
    def cu_cycles(self):
        return sum(k["cu_cycles"] for k in self.kernels.values())

    @property
    def seconds(self):
        return sum(k["seconds"] for k in self.kernels.values())

    @property
    def energy_j(self):
        return sum(k["energy_j"] for k in self.kernels.values())

    def objectives(self):
        """The Pareto axes (minimised); only valid for ok points."""
        return {
            "area_luts": float(self.area.get("lut", 0)),
            "cu_cycles": float(self.cu_cycles),
            "energy_j": float(self.energy_j),
        }

    def to_dict(self):
        out = {
            "point": self.point.to_dict(),
            "name": self.point.name,
            "tag": self.point.tag,
            "status": self.status,
        }
        if self.arch is not None:
            out["arch"] = self.arch.to_dict()
        if self.error:
            out["error"] = self.error
        if self.ok:
            out.update({
                "area": dict(self.area),
                "power_w": self.power_w,
                "budget": dict(self.budget),
                "kernels": {name: dict(stats)
                            for name, stats in sorted(self.kernels.items())},
                "totals": {
                    "cu_cycles": self.cu_cycles,
                    "seconds": self.seconds,
                    "energy_j": self.energy_j,
                },
            })
        return out

    @classmethod
    def from_dict(cls, payload):
        return cls(
            point=DesignPoint.from_dict(payload["point"]),
            status=payload["status"],
            arch=(ArchConfig.from_dict(payload["arch"])
                  if "arch" in payload else None),
            error=payload.get("error", ""),
            area=dict(payload.get("area", {})),
            power_w=payload.get("power_w", 0.0),
            budget=dict(payload.get("budget", {})),
            kernels={name: dict(stats)
                     for name, stats in payload.get("kernels", {}).items()},
        )


@dataclass
class SweepReport:
    """The joined outcome of one whole sweep."""

    space_name: str
    spec: dict
    results: Tuple[PointResult, ...]
    reused: int = 0

    @property
    def ok_results(self):
        return [r for r in self.results if r.ok]

    @property
    def infeasible(self):
        return [r for r in self.results if r.status == "infeasible"]

    @property
    def failed(self):
        return [r for r in self.results if r.status == "failed"]

    def frontier_results(self, objectives=DEFAULT_OBJECTIVES):
        ok = self.ok_results
        flags = frontier_flags(ok, objectives=objectives,
                               key=lambda r: r.objectives())
        return [r for r, on in zip(ok, flags) if on]

    def to_dict(self):
        ok = self.ok_results
        flags = frontier_flags(ok, objectives=DEFAULT_OBJECTIVES,
                               key=lambda r: r.objectives())
        on_frontier = {id(r) for r, on in zip(ok, flags) if on}
        points = []
        for result in self.results:
            entry = result.to_dict()
            if result.ok:
                entry["pareto"] = id(result) in on_frontier
            points.append(entry)
        return {
            "schema": 1,
            "space": self.space_name,
            "spec": dict(self.spec),
            "points": points,
            "totals": {
                "points": len(self.results),
                "ok": len(ok),
                "infeasible": len(self.infeasible),
                "failed": len(self.failed),
                "reused": self.reused,
                "pareto": len(on_frontier),
            },
        }


class SweepRunner:
    """Evaluates every point of a :class:`SweepSpec`."""

    def __init__(self, spec, executor=None, cache=None, log=None):
        self.spec = spec
        self.cache = cache or ArtifactCache()
        self.synthesizer = Synthesizer()
        self.tool = TrimmingTool(synthesizer=self.synthesizer)
        self._executor = executor
        self.store = (ResultStore(spec.store_dir)
                      if spec.store_dir else None)
        self.log = log or (lambda message: None)

    # -- resolution --------------------------------------------------------

    def _benchmarks(self, point):
        """(name, params, max_groups) per kernel of the point."""
        from ..kernels import KERNELS
        from ..kernels.suite import EVAL_CONFIGS

        out = []
        for name in point.kernels:
            if name not in KERNELS:
                raise DseError("{}: unknown benchmark {!r}".format(
                    point.name, name))
            params, cap = EVAL_CONFIGS.get(name, ({}, None))
            if self.spec.verify:
                cap = None            # sampling would break verification
            elif point.max_groups is not None:
                cap = point.max_groups
            out.append((name, dict(params), cap))
        return out

    def _trim(self, point):
        """Algorithm 1 for the point's kernel set, via the cache."""
        from ..kernels import KERNELS

        programs = []
        datapaths = set()
        for name in point.kernels:
            if name not in KERNELS:
                raise DseError("{}: unknown benchmark {!r}".format(
                    point.name, name))
            bench = KERNELS[name]()
            programs.extend(bench.programs())
            datapaths.add(bench.datapath_bits)
        datapath = point.datapath_bits or max(datapaths)
        return self.cache.trim(programs, self.tool,
                               datapath_bits=datapath)

    def resolve(self, point):
        """(arch, report) for one point, with the area budget enforced.

        Raises :class:`AreaBudgetError` -- naming the design point --
        when the synthesised architecture does not fit the device's
        usable capacity at the spec's margin.  That is the paper's
        re-investment rule made mechanical: growing CUs or VALUs is
        only admissible when trimming freed the area first.
        """
        trimmed = self._trim(point).config if point.trimmed else None
        arch = point.resolve_arch(trimmed)
        report = self.cache.synthesize(arch, self.synthesizer)
        report.check_budget(report.device.usable,
                            what="design point {}".format(point.name),
                            margin=self.spec.budget_margin)
        return arch, report

    # -- execution ---------------------------------------------------------

    @property
    def executor(self):
        if self._executor is None:
            from ..exec.executor import Executor

            self._executor = Executor(synthesizer=self.synthesizer)
        return self._executor

    def _run_exec(self, plan):
        """Execute (point, kernel) pairs through the unified layer."""
        from ..exec.request import ExecutionRequest

        requests, owners = [], []
        for point, arch, report, benchmarks in plan:
            for name, params, cap in benchmarks:
                kwargs = {}
                if point.global_mem_size is not None:
                    kwargs["global_mem_size"] = point.global_mem_size
                requests.append(ExecutionRequest(
                    benchmark=name, params=params, arch=arch,
                    verify=self.spec.verify, max_groups=cap,
                    report=report,
                    label="{}@{}".format(name, point.name), **kwargs))
                owners.append((point, name))
        results = self.executor.execute_many(
            requests, workers=self.spec.workers, return_exceptions=True)
        joined = {}
        for (point, name), result in zip(owners, results):
            joined.setdefault(point.content_key(), {})[name] = result
        return joined

    # -- the sweep ---------------------------------------------------------

    def evaluate(self, point):
        """Resolve + execute + join one point, bypassing the store.

        Propagates :class:`AreaBudgetError` (and other
        :class:`ReproError`) to the caller -- the strict single-point
        entry the tests and ``dse sweep --point`` use.
        """
        arch, report = self.resolve(point)
        benchmarks = self._benchmarks(point)
        raw = self._run_exec(
            [(point, arch, report, benchmarks)])[point.content_key()]
        return self._join(point, arch, report, raw)

    def _join(self, point, arch, report, raw):
        kernels = {}
        for name, result in raw.items():
            if isinstance(result, ReproError):
                raise result
            kernels[name] = {
                "cu_cycles": result.cu_cycles,
                "seconds": result.seconds,
                "instructions": result.instructions,
                "energy_j": result.metrics.energy_joules,
            }
        total = report.total
        budget = report.device.usable.scale(self.spec.budget_margin)
        return PointResult(
            point=point, status="ok", arch=arch,
            area=total.rounded().as_dict(),
            power_w=report.power.total,
            budget={
                "budget_lut": budget.rounded().lut,
                "headroom_lut": budget.rounded().lut
                - total.rounded().lut,
                "margin": self.spec.budget_margin,
            },
            kernels=kernels)

    def sweep(self):
        """Evaluate the whole space; infeasible points are recorded,
        stored points are reused, and the rest fan out in one batch."""
        spec = self.spec
        results = {}
        reused = 0
        plan = []
        keys = {}
        for point in spec.space:
            key = evaluation_key(point, spec.verify, point.max_groups,
                                 spec.budget_margin)
            keys[point.content_key()] = key
            if self.store is not None:
                stored = self.store.get(key)
                if stored is not None:
                    result = PointResult.from_dict(stored["result"])
                    result.reused = True
                    results[point.content_key()] = result
                    reused += 1
                    continue
            try:
                arch, report = self.resolve(point)
                plan.append((point, arch, report,
                             self._benchmarks(point)))
            except AreaBudgetError as exc:
                self.log("infeasible: {}".format(exc))
                results[point.content_key()] = PointResult(
                    point=point, status="infeasible", error=str(exc))
            except ReproError as exc:
                self.log("failed to resolve {}: {}".format(point.name, exc))
                results[point.content_key()] = PointResult(
                    point=point, status="failed", error=str(exc))

        if plan:
            self.log("evaluating {} point(s) x kernels on {} worker(s), "
                     "{} reused".format(len(plan), spec.workers, reused))
            raw_by_point = self._run_exec(plan)
            for point, arch, report, _ in plan:
                raw = raw_by_point.get(point.content_key(), {})
                try:
                    result = self._join(point, arch, report, raw)
                except ReproError as exc:
                    result = PointResult(point=point, status="failed",
                                         arch=arch, error=str(exc))
                results[point.content_key()] = result

        # Persist everything fresh (including infeasible verdicts: they
        # are as deterministic as the numbers and just as reusable).
        if self.store is not None:
            for content, result in results.items():
                if not result.reused:
                    self.store.put(keys[content],
                                   {"result": result.to_dict()})

        ordered = tuple(results[p.content_key()] for p in spec.space)
        return SweepReport(
            space_name=spec.space.name,
            spec={
                "verify": spec.verify,
                "budget_margin": spec.budget_margin,
                "space_key": spec.space.content_key(),
            },
            results=ordered,
            reused=reused)


def run_sweep(spec, log=None):
    """Convenience: one-shot sweep of a spec."""
    return SweepRunner(spec, log=log).sweep()
