"""The design space: what one explored configuration *is*, as data.

A :class:`DesignPoint` pins down everything the trim-and-reinvest
study of Sections 3.2/4.2 varies -- the kernel set the architecture is
trimmed for, the base generation (clock-domain settings), the
re-investment shape (CU count, extra VALUs per CU), the datapath
width, and the memory/sampling knobs -- as an immutable, content-
hashable value object.  A :class:`DesignSpace` is a named, ordered
collection of points; :func:`preset` builds the standard ones:

* ``paper`` -- exactly the Figures 6-8 grid: per benchmark, the three
  fixed generations, the trimmed single-CU architecture, and the two
  re-investment strategies at the paper's shapes (3 CUs int / 2 CUs
  FP / 4 CUs INT8 multi-core; 4 INT VALUs int / 1 INT + 3 FP VALUs FP
  multi-thread).
* ``extended`` -- the cartesian sweep "A Statically and Dynamically
  Scalable Soft GPGPU" (Langhammer) motivates: every CU count x VALU
  growth x generation x trim setting, far beyond the paper's grid.

Points are declarative and cheap; feasibility (device fit, the area
budget) is decided by the sweep runner at evaluation time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..core.config import (ARCH_LABELS, FIXED_LABELS, MAX_CUS,
                           MAX_VALUS_PER_CU, ArchConfig)
from ..errors import DseError

#: Base architecture specs a point may name; ``trimmed`` derives the
#: application-specific architecture via Algorithm 1 at sweep time.
BASE_CONFIGS = FIXED_LABELS + ("trimmed",)


def _sha(payload):
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DesignPoint:
    """One point of the trim x re-investment design space.

    ``extra_valus`` replicate the vector ALU the kernel set actually
    stresses (the SIMF when the trimmed architecture kept it, the SIMD
    otherwise) -- the same greedy direction the Figure 7B planner uses,
    but with the count fixed declaratively so a grid enumerates it.

    ``tag`` is a display/grouping annotation (the ``paper`` preset tags
    points with the figure they reproduce); it is excluded from the
    content key, so two points differing only in tag share results.
    """

    kernels: Tuple[str, ...]
    config: str = "trimmed"
    num_cus: int = 1
    extra_valus: int = 0
    datapath_bits: Optional[int] = None   # None = the kernels' default
    max_groups: Optional[int] = None      # workgroup-sampling cap
    global_mem_size: Optional[int] = None
    tag: str = ""

    def __post_init__(self):
        if isinstance(self.kernels, str):
            object.__setattr__(self, "kernels", (self.kernels,))
        else:
            object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise DseError("a design point needs at least one kernel")
        if not all(isinstance(k, str) and k for k in self.kernels):
            raise DseError(
                "kernel names must be non-empty strings, got {!r}".format(
                    self.kernels))
        if self.config not in BASE_CONFIGS:
            raise DseError(
                "unknown base config {!r}; expected one of {}".format(
                    self.config, ", ".join(BASE_CONFIGS)))
        if not isinstance(self.num_cus, int) or not (
                1 <= self.num_cus <= MAX_CUS):
            raise DseError(
                "num_cus must be an integer in 1..{}, got {!r}".format(
                    MAX_CUS, self.num_cus))
        if not isinstance(self.extra_valus, int) or not (
                0 <= self.extra_valus < MAX_VALUS_PER_CU):
            raise DseError(
                "extra_valus must be an integer in 0..{}, got {!r}".format(
                    MAX_VALUS_PER_CU - 1, self.extra_valus))
        if self.datapath_bits not in (None, 8, 16, 32):
            raise DseError(
                "datapath_bits must be None, 8, 16 or 32, got {!r}".format(
                    self.datapath_bits))
        if self.max_groups is not None and self.max_groups < 1:
            raise DseError("max_groups must be >= 1 when set")

    # ------------------------------------------------------------------

    @property
    def trimmed(self):
        return self.config == "trimmed"

    @property
    def name(self):
        """Deterministic human-readable identifier."""
        shape = "{}cu".format(self.num_cus)
        if self.extra_valus:
            shape += "+{}v".format(self.extra_valus)
        parts = ["+".join(self.kernels), self.config, shape]
        if self.datapath_bits is not None:
            parts.append("{}b".format(self.datapath_bits))
        return "/".join(parts)

    def describe(self):
        return self.name

    def to_dict(self):
        return {
            "kernels": list(self.kernels),
            "config": self.config,
            "num_cus": self.num_cus,
            "extra_valus": self.extra_valus,
            "datapath_bits": self.datapath_bits,
            "max_groups": self.max_groups,
            "global_mem_size": self.global_mem_size,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            kernels=tuple(payload["kernels"]),
            config=payload["config"],
            num_cus=payload["num_cus"],
            extra_valus=payload["extra_valus"],
            datapath_bits=payload.get("datapath_bits"),
            max_groups=payload.get("max_groups"),
            global_mem_size=payload.get("global_mem_size"),
            tag=payload.get("tag", ""),
        )

    def content_key(self):
        """SHA-256 of the point's semantics (``tag`` excluded)."""
        payload = self.to_dict()
        del payload["tag"]
        return _sha("dse-point\x00" + json.dumps(payload, sort_keys=True))

    # ------------------------------------------------------------------

    def resolve_arch(self, trimmed_config=None) -> ArchConfig:
        """Apply the re-investment shape to the point's base config.

        For a ``trimmed`` point the caller supplies the Algorithm 1
        output for this point's kernel set (the TrimResult -> DesignPoint
        plumbing of the sweep runner); fixed-generation points resolve
        on their own.
        """
        if self.trimmed:
            if trimmed_config is None:
                raise DseError(
                    "{}: a trimmed point needs the trimmed ArchConfig"
                    .format(self.name))
            base = trimmed_config
        else:
            base = ArchConfig.named(self.config)
            if self.datapath_bits is not None:
                base = replace(base, datapath_bits=self.datapath_bits)
        grow_simf = base.num_simf > 0
        arch = base.with_parallelism(
            num_cus=self.num_cus,
            num_simf=base.num_simf + (self.extra_valus if grow_simf else 0),
            num_simd=base.num_simd + (0 if grow_simf else self.extra_valus),
        )
        label = arch.label or arch.generation.value
        return replace(arch, label="{}@{}".format(label, self.name))


@dataclass(frozen=True)
class DesignSpace:
    """A named, ordered set of design points."""

    name: str
    points: Tuple[DesignPoint, ...]
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def kernel_sets(self):
        """Distinct kernel sets, in first-appearance order."""
        seen, out = set(), []
        for point in self.points:
            if point.kernels not in seen:
                seen.add(point.kernels)
                out.append(point.kernels)
        return out

    def content_key(self):
        return _sha("dse-space\x00" + json.dumps(
            [p.content_key() for p in self.points]))

    def to_dict(self):
        return {
            "name": self.name,
            "description": self.description,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            name=payload["name"],
            points=tuple(DesignPoint.from_dict(p)
                         for p in payload["points"]),
            description=payload.get("description", ""),
        )

    def subset(self, kernels=None, limit=None):
        """Restrict to points whose kernel set intersects ``kernels``."""
        points = self.points
        if kernels is not None:
            wanted = set(kernels)
            points = tuple(p for p in points if wanted & set(p.kernels))
        if limit is not None:
            points = points[:limit]
        return DesignSpace(name=self.name, points=points,
                           description=self.description)

    @staticmethod
    def grid(name, kernel_sets, configs=("baseline", "trimmed"),
             cus=(1,), extra_valus=(0,), datapaths=(None,),
             description=""):
        """Cartesian product of the given axes, one point each."""
        points = []
        for kernels in kernel_sets:
            for config in configs:
                for datapath in datapaths:
                    for num_cus in cus:
                        for extra in extra_valus:
                            points.append(DesignPoint(
                                kernels=tuple(kernels) if not isinstance(
                                    kernels, str) else (kernels,),
                                config=config, num_cus=num_cus,
                                extra_valus=extra, datapath_bits=datapath))
        return DesignSpace(name=name, points=tuple(points),
                           description=description)


# ---------------------------------------------------------------------------
# Presets.
# ---------------------------------------------------------------------------

#: The two cheapest suite kernels with distinct int/FP trims -- the
#: ``--smoke`` kernel pair (2 kernels x 4 points = 8 design points).
PAPER_SMOKE_KERNELS = ("matrix_add_i32", "matrix_mul_f32")

#: Point kinds of the full paper grid, in figure order.
PAPER_POINT_KINDS = ARCH_LABELS

#: Point kinds kept by ``--smoke`` (the application-aware half).
PAPER_SMOKE_KINDS = ARCH_LABELS[2:]    # baseline onward


def _paper_shapes(kernel):
    """The paper's per-benchmark re-investment shapes (Figure 6's last
    two columns): multi-core CU count and multi-thread extra VALUs."""
    from ..kernels import KERNELS

    if kernel not in KERNELS:
        raise DseError("unknown benchmark {!r}".format(kernel))
    cls = KERNELS[kernel]
    if cls.datapath_bits == 8:
        return 4, 3            # INT8 NIN: 4 CUs fit (Section 4.2)
    if cls.uses_float:
        return 2, 2            # 2 CUs / 1 INT + 3 FP VALUs
    return 3, 3                # 3 CUs / 4 INT VALUs


def paper_point(kernel, kind):
    """One point of the ``paper`` preset grid."""
    multicore_cus, multithread_valus = _paper_shapes(kernel)
    if kind in FIXED_LABELS:
        return DesignPoint(kernels=(kernel,), config=kind,
                           tag="fig6:{}".format(kind))
    if kind == "trimmed":
        return DesignPoint(kernels=(kernel,), config="trimmed",
                           tag="fig6:trimmed")
    if kind == "multicore":
        return DesignPoint(kernels=(kernel,), config="trimmed",
                           num_cus=multicore_cus, tag="fig7a:multicore")
    if kind == "multithread":
        return DesignPoint(kernels=(kernel,), config="trimmed",
                           extra_valus=multithread_valus,
                           tag="fig7b:multithread")
    raise DseError("unknown paper point kind {!r}".format(kind))


def paper_space(kernels=None, kinds=PAPER_POINT_KINDS):
    """The Figures 6-8 configuration grid, per benchmark."""
    from ..kernels.suite import EVAL_CONFIGS

    kernels = tuple(kernels) if kernels is not None \
        else tuple(EVAL_CONFIGS)
    points = tuple(paper_point(kernel, kind)
                   for kernel in kernels for kind in kinds)
    return DesignSpace(
        name="paper", points=points,
        description="the paper's Figures 6-8 grid: fixed generations, "
                    "per-benchmark trim, and both re-investment shapes")


def extended_space(kernels=None):
    """The Langhammer-motivated cartesian sweep beyond the paper."""
    from ..kernels.suite import EVAL_CONFIGS

    kernels = tuple(kernels) if kernels is not None \
        else tuple(EVAL_CONFIGS)
    return DesignSpace.grid(
        "extended",
        kernel_sets=[(k,) for k in kernels],
        configs=("baseline", "trimmed"),
        cus=(1, 2, 3, 4),
        extra_valus=(0, 1, 2, 3),
        description="cartesian trim x CU x VALU sweep (hundreds of "
                    "points; infeasible ones are recorded, not run)")


PRESETS = {
    "paper": paper_space,
    "extended": extended_space,
}


def preset(name, kernels=None, smoke=False):
    """Resolve a preset name (optionally restricted / smoke-sized)."""
    if name not in PRESETS:
        raise DseError(
            "unknown preset {!r}; expected one of {}".format(
                name, ", ".join(sorted(PRESETS))))
    if name == "paper" and smoke:
        space = paper_space(kernels=kernels or PAPER_SMOKE_KERNELS,
                            kinds=PAPER_SMOKE_KINDS)
        return replace(space, name="paper-smoke")
    space = PRESETS[name](kernels=kernels)
    if smoke:
        space = space.subset(limit=8)
        space = replace(space, name="{}-smoke".format(space.name))
    return space
