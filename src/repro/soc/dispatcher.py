"""The ultra-threaded dispatcher (MicroBlaze-hosted, Section 2.2.2).

Before a workgroup executes, the dispatcher initialises the compute
unit's state registers over the AXI interconnect -- including the new
vector-register direct-access interface of Section 2.1.2.  The paper
spells out the ABI it loads, reproduced here exactly:

* ``s[4:7]``   -- ``IMM_UAV``: descriptor of the global data buffer,
* ``s[8:11]``  -- ``IMM_CONST_BUFFER0``: descriptor of the OpenCL call
  values (global/local sizes, group counts),
* ``s[12:15]`` -- ``IMM_CONST_BUFFER1``: descriptor of the kernel
  argument block,
* ``s16/s17/s18`` -- the workgroup ID in X, Y, Z (only the dimensions
  the NDRange actually uses are written),
* ``v0/v1/v2`` -- the work-item's local ID in X, Y, Z.

Constant buffer 0 is populated with the launch geometry in this dword
layout (all our kernels index it through ``s_buffer_load_dword``):

====== =========================
dword  value
====== =========================
0..2   global size X, Y, Z
3..5   local size X, Y, Z
6..8   number of groups X, Y, Z
====== =========================

Work-items fill lanes in order, so each wavefront is dispatched with
its lane count (``Wavefront.lane_count``): the last wavefront of a
workgroup whose size is not a multiple of 64 starts with EXEC set to
its low lanes only.  Launching a workgroup costs the MicroBlaze
``DISPATCH_WORKGROUP_MB_CYCLES`` plus ``DISPATCH_WAVEFRONT_MB_CYCLES``
per wavefront.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..cu.lsu import make_buffer_descriptor
from ..cu.regfile import RegisterFileModel
from ..cu.wavefront import Wavefront
from ..cu.workgroup import Workgroup
from ..errors import LaunchError
from ..isa.registers import NUM_SGPRS, WAVEFRONT_SIZE

#: Scalar-register homes of the three descriptor sets (Section 2.2.2).
UAV_DESCRIPTOR_REG = 4
CB0_DESCRIPTOR_REG = 8
CB1_DESCRIPTOR_REG = 12
GROUP_ID_REG = 16

#: CB0 dword indices.
CB0_GLOBAL_SIZE = 0
CB0_LOCAL_SIZE = 3
CB0_NUM_GROUPS = 6
CB0_DWORDS = 12

#: MicroBlaze cycles spent launching one workgroup: a fixed part plus
#: one part per wavefront.  The dispatcher writes the descriptor SGPRs,
#: the group-ID SGPRs and the three ID VGPRs through AXI (the VGPR
#: interface moves a 2048-bit vector as 64 AXI words plus
#: mask/address/commit registers -- Section 2.1.2), then sends the
#: start command and later collects completion.  Costs are in
#: MicroBlaze-domain cycles, so the dual clock domain speeds dispatch
#: up by the clock ratio.
DISPATCH_WORKGROUP_MB_CYCLES = 150
DISPATCH_WAVEFRONT_MB_CYCLES = 50   # burst VGPR writes, HW-assisted IDs

#: Launch templates a dispatcher keeps, least recently used dropped
#: first.  An ``eval_sim`` round of the 18 evaluation apps uses 18
#: distinct ones.
TEMPLATE_MEMO_SIZE = 32


@dataclass(frozen=True)
class LaunchGeometry:
    """An OpenCL NDRange: 3-D global and local sizes."""

    global_size: tuple
    local_size: tuple

    @staticmethod
    def of(global_size, local_size):
        gs = tuple(global_size) + (1,) * (3 - len(tuple(global_size)))
        ls = tuple(local_size) + (1,) * (3 - len(tuple(local_size)))
        for g, l in zip(gs, ls):
            if l <= 0 or g <= 0:
                raise LaunchError("sizes must be positive")
            if g % l:
                raise LaunchError(
                    "global size {} not divisible by local size {}".format(gs, ls)
                )
        return LaunchGeometry(gs, ls)

    @property
    def num_groups(self):
        return tuple(g // l for g, l in zip(self.global_size, self.local_size))

    @property
    def total_groups(self):
        nx, ny, nz = self.num_groups
        return nx * ny * nz

    @property
    def work_items_per_group(self):
        lx, ly, lz = self.local_size
        return lx * ly * lz

    def group_ids(self):
        """All workgroup IDs in dispatch order (X fastest)."""
        nx, ny, nz = self.num_groups
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    yield (x, y, z)


@dataclass(frozen=True)
class WorkgroupTemplate:
    """Register images shared by every workgroup of one launch.

    ``sgprs[w]`` holds wavefront ``w``'s SGPR file, the descriptor sets
    (group-ID SGPRs zero), ``vgprs[w]`` its VGPR file with its local
    IDs in ``v0``-``v2``, ``lane_counts[w]`` its work-item count (its
    EXEC is that many low lanes), and
    ``group_dims`` the dimensions whose group ID is written.  The
    arrays are read-only: :meth:`Dispatcher.build_workgroup` copies
    them.
    """

    sgprs: np.ndarray
    vgprs: np.ndarray
    lane_counts: tuple
    group_dims: tuple


class Dispatcher:
    """Builds register-initialised workgroups for the compute units."""

    def __init__(self, memory, uav_base, uav_size, cb0_base, cb1_base,
                 cb1_size):
        self.memory = memory
        self.uav_descriptor = make_buffer_descriptor(uav_base, uav_size)
        self.cb0_descriptor = make_buffer_descriptor(cb0_base, 4 * CB0_DWORDS)
        self.cb1_descriptor = make_buffer_descriptor(cb1_base, cb1_size)
        self.cb0_base = cb0_base
        self.regfile = RegisterFileModel()
        #: (sgpr_count, vgpr_count, geometry) -> WorkgroupTemplate, at
        #: most TEMPLATE_MEMO_SIZE of them (the descriptors and the
        #: register-file model are fixed per dispatcher).
        self._templates = OrderedDict()

    def write_cb0(self, geometry):
        """Populate constant buffer 0 with the launch geometry."""
        values = np.zeros(CB0_DWORDS, dtype=np.uint32)
        values[CB0_GLOBAL_SIZE:CB0_GLOBAL_SIZE + 3] = geometry.global_size
        values[CB0_LOCAL_SIZE:CB0_LOCAL_SIZE + 3] = geometry.local_size
        values[CB0_NUM_GROUPS:CB0_NUM_GROUPS + 3] = geometry.num_groups
        self.memory.global_mem.write_block(self.cb0_base, values)

    def workgroup_template(self, program, geometry):
        """The register images every workgroup of a launch starts from.

        Validates that the workgroup's wavefronts fit the register
        files (:meth:`RegisterFileModel.check_workgroup`), then lays
        out what does not depend on the group ID: the descriptor SGPRs,
        each wavefront's lane count and its local-ID rows
        ``v0``-``v2``.
        The template depends on the program only through its register
        counts, so it is kept per ``(sgpr_count, vgpr_count,
        geometry)`` and a later launch of that shape reuses it.
        """
        key = (program.sgpr_count, program.vgpr_count, geometry)
        templates = self._templates
        template = templates.get(key)
        if template is not None:
            templates.move_to_end(key)
            return template
        template = templates[key] = self._build_template(program, geometry)
        if len(templates) > TEMPLATE_MEMO_SIZE:
            templates.popitem(last=False)
        return template

    def _build_template(self, program, geometry):
        items = geometry.work_items_per_group
        lx, ly, _lz = geometry.local_size
        n_wavefronts = (items + WAVEFRONT_SIZE - 1) // WAVEFRONT_SIZE
        self.regfile.check_workgroup(program, n_wavefronts)
        sgprs = np.zeros((n_wavefronts, NUM_SGPRS), dtype=np.uint32)
        sgprs[:, UAV_DESCRIPTOR_REG:UAV_DESCRIPTOR_REG + 4] = self.uav_descriptor
        sgprs[:, CB0_DESCRIPTOR_REG:CB0_DESCRIPTOR_REG + 4] = self.cb0_descriptor
        sgprs[:, CB1_DESCRIPTOR_REG:CB1_DESCRIPTOR_REG + 4] = self.cb1_descriptor
        flat = np.arange(n_wavefronts * WAVEFRONT_SIZE, dtype=np.uint32)
        vgprs = np.zeros((n_wavefronts, max(4, program.vgpr_count),
                          WAVEFRONT_SIZE), dtype=np.uint32)
        vgprs[:, 0] = (flat % lx).reshape(n_wavefronts, WAVEFRONT_SIZE)
        vgprs[:, 1] = ((flat // lx) % ly).reshape(n_wavefronts, WAVEFRONT_SIZE)
        vgprs[:, 2] = (flat // (lx * ly)).reshape(n_wavefronts, WAVEFRONT_SIZE)
        # Work-items fill lanes in order, so each wavefront's active
        # lanes are a prefix.
        lane_counts = tuple(min(WAVEFRONT_SIZE, items - w * WAVEFRONT_SIZE)
                            for w in range(n_wavefronts))
        num_groups = geometry.num_groups
        group_dims = tuple(dim for dim in range(3)
                           if num_groups[dim] > 1 or dim == 0)
        sgprs.setflags(write=False)
        vgprs.setflags(write=False)
        return WorkgroupTemplate(sgprs, vgprs, lane_counts, group_dims)

    def build_workgroup(self, program, geometry, group_id, template=None):
        """Create one register-initialised workgroup.

        ``template`` is this launch's :meth:`workgroup_template`.  The
        workgroup copies its images into one SGPR block and one VGPR
        block, writes the group-ID SGPRs, and gives each wavefront its
        own slab of both.  Without a template, this launch's is looked
        up (or built).
        """
        if template is None:
            template = self.workgroup_template(program, geometry)
        wg = Workgroup(group_id, program, geometry.local_size)
        sgprs = template.sgprs.copy()
        vgprs = template.vgprs.copy()
        for dim in template.group_dims:
            sgprs[:, GROUP_ID_REG + dim] = group_id[dim]
        for w, lane_count in enumerate(template.lane_counts):
            wg.add_wavefront(Wavefront(wf_id=w, program=program,
                                       lane_count=lane_count,
                                       sgprs=sgprs[w], vgprs=vgprs[w]))
        return wg

    def dispatch_cost_mb_cycles(self, geometry):
        """MicroBlaze cycles to launch one workgroup of this geometry."""
        items = geometry.work_items_per_group
        wavefronts = (items + WAVEFRONT_SIZE - 1) // WAVEFRONT_SIZE
        return (DISPATCH_WORKGROUP_MB_CYCLES
                + DISPATCH_WAVEFRONT_MB_CYCLES * wavefronts)
