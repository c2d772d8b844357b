"""Ultra-threaded dispatcher: ABI register initialisation, geometry."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.errors import LaunchError
from repro.mem.system import MemorySystem
from repro.soc.dispatcher import (
    CB0_GLOBAL_SIZE,
    CB0_LOCAL_SIZE,
    CB0_NUM_GROUPS,
    CB1_DESCRIPTOR_REG,
    CB0_DESCRIPTOR_REG,
    Dispatcher,
    GROUP_ID_REG,
    LaunchGeometry,
    TEMPLATE_MEMO_SIZE,
    UAV_DESCRIPTOR_REG,
)


class TestLaunchGeometry:
    def test_padding_to_3d(self):
        g = LaunchGeometry.of((128,), (64,))
        assert g.global_size == (128, 1, 1)
        assert g.local_size == (64, 1, 1)
        assert g.num_groups == (2, 1, 1)
        assert g.total_groups == 2

    def test_2d(self):
        g = LaunchGeometry.of((8, 8), (4, 4))
        assert g.num_groups == (2, 2, 1)
        assert g.work_items_per_group == 16
        assert len(list(g.group_ids())) == 4

    def test_dispatch_order_x_fastest(self):
        g = LaunchGeometry.of((4, 4), (2, 2))
        assert list(g.group_ids())[:3] == [(0, 0, 0), (1, 0, 0), (0, 1, 0)]

    def test_indivisible_rejected(self):
        with pytest.raises(LaunchError):
            LaunchGeometry.of((100,), (64,))

    def test_nonpositive_rejected(self):
        with pytest.raises(LaunchError):
            LaunchGeometry.of((0,), (1,))


@pytest.fixture
def dispatcher():
    memory = MemorySystem(global_size=1 << 16)
    return Dispatcher(memory, uav_base=0x1000, uav_size=0x1000,
                      cb0_base=0x100, cb1_base=0x200, cb1_size=0x100), memory


class TestRegisterInit:
    def test_descriptor_sets(self, dispatcher):
        disp, _ = dispatcher
        g = LaunchGeometry.of((64,), (64,))
        wg = disp.build_workgroup(assemble("s_endpgm"), g, (0, 0, 0))
        wf = wg.wavefronts[0]
        assert wf.sgprs[UAV_DESCRIPTOR_REG] == 0x1000
        assert wf.sgprs[UAV_DESCRIPTOR_REG + 2] == 0x1000  # num records
        assert wf.sgprs[CB0_DESCRIPTOR_REG] == 0x100
        assert wf.sgprs[CB1_DESCRIPTOR_REG] == 0x200

    def test_group_ids(self, dispatcher):
        disp, _ = dispatcher
        g = LaunchGeometry.of((8, 8, 4), (4, 4, 2))
        wg = disp.build_workgroup(assemble("s_endpgm"), g, (1, 0, 1))
        wf = wg.wavefronts[0]
        assert wf.sgprs[GROUP_ID_REG] == 1
        assert wf.sgprs[GROUP_ID_REG + 1] == 0
        assert wf.sgprs[GROUP_ID_REG + 2] == 1

    def test_local_ids_1d(self, dispatcher):
        disp, _ = dispatcher
        g = LaunchGeometry.of((256,), (128,))
        wg = disp.build_workgroup(assemble("s_endpgm"), g, (0, 0, 0))
        assert len(wg.wavefronts) == 2
        assert (wg.wavefronts[0].vgprs[0] == np.arange(64)).all()
        assert (wg.wavefronts[1].vgprs[0] == np.arange(64, 128)).all()

    def test_local_ids_2d(self, dispatcher):
        disp, _ = dispatcher
        g = LaunchGeometry.of((16, 16), (16, 8))
        wg = disp.build_workgroup(assemble("s_endpgm"), g, (0, 1, 0))
        wf = wg.wavefronts[1]  # flat ids 64..127
        assert wf.vgprs[0][0] == 0 and wf.vgprs[1][0] == 4
        assert wf.vgprs[0][17] == 17 % 16 and wf.vgprs[1][17] == 4 + 17 // 16

    @pytest.mark.parametrize("items,lanes", [(96, [64, 32]), (16, [16])])
    def test_partial_wavefront_exec_mask(self, dispatcher, items, lanes):
        """Each wavefront is dispatched with its lane count, and its
        EXEC is that many low lanes."""
        disp, _ = dispatcher
        g = LaunchGeometry.of((items,), (items,))
        wg = disp.build_workgroup(assemble("s_endpgm"), g, (0, 0, 0))
        assert [wf.lane_count for wf in wg.wavefronts] == lanes
        assert [wf.exec_mask for wf in wg.wavefronts] == \
            [(1 << n) - 1 for n in lanes]

    def test_resurrected_lanes_break_exec_confinement(self, dispatcher):
        """EXEC written past a dispatched partial wavefront's lanes is
        what the invariant checker's EXEC confinement catches."""
        from repro.cu.pipeline import ComputeUnit
        from repro.obs.observer import ObserverHub
        from repro.verify import InvariantChecker, InvariantViolation

        disp, memory = dispatcher
        program = assemble("s_mov_b64 exec, -1\n  v_mov_b32 v1, 0\n"
                           "  s_endpgm")
        wg = disp.build_workgroup(program, LaunchGeometry.of((16,), (16,)),
                                  (0, 0, 0))
        cu = ComputeUnit(memory)
        cu.obs = ObserverHub()
        cu.obs.attach(InvariantChecker())
        with pytest.raises(InvariantViolation, match="EXEC confinement"):
            cu.run_workgroup(wg)

    def test_cb0_contents(self, dispatcher):
        disp, memory = dispatcher
        g = LaunchGeometry.of((128, 4), (64, 2))
        disp.write_cb0(g)
        words = memory.global_mem.read_block(0x100, 48, np.uint32)
        assert tuple(words[CB0_GLOBAL_SIZE:CB0_GLOBAL_SIZE + 3]) == (128, 4, 1)
        assert tuple(words[CB0_LOCAL_SIZE:CB0_LOCAL_SIZE + 3]) == (64, 2, 1)
        assert tuple(words[CB0_NUM_GROUPS:CB0_NUM_GROUPS + 3]) == (2, 2, 1)

    def test_dispatch_cost_scales_with_wavefronts(self, dispatcher):
        disp, _ = dispatcher
        small = disp.dispatch_cost_mb_cycles(LaunchGeometry.of((64,), (64,)))
        big = disp.dispatch_cost_mb_cycles(LaunchGeometry.of((256,), (256,)))
        assert big > small


class TestWorkgroupTemplate:
    """Per-launch register images: copies of one template per workgroup
    carry exactly the ABI state a from-scratch build does."""

    #: 160 work-items: two full wavefronts and one of 32 lanes; two
    #: groups in X and Z, one in Y.
    GEOMETRY = LaunchGeometry.of((16, 10, 4), (8, 10, 2))

    def test_template_build_matches_standalone_build(self, dispatcher):
        disp, _ = dispatcher
        program = assemble(".vgprs 9\n  s_endpgm")
        template = disp.workgroup_template(program, self.GEOMETRY)
        for gid in self.GEOMETRY.group_ids():
            got = disp.build_workgroup(program, self.GEOMETRY, gid, template)
            want = disp.build_workgroup(program, self.GEOMETRY, gid)
            assert len(got.wavefronts) == len(want.wavefronts) == 3
            for a, b in zip(got.wavefronts, want.wavefronts):
                assert a.exec_mask == b.exec_mask
                assert np.array_equal(a.sgprs, b.sgprs)
                assert np.array_equal(a.vgprs, b.vgprs)
        last = got.wavefronts[-1]
        assert last.exec_mask == (1 << 32) - 1
        assert tuple(last.sgprs[GROUP_ID_REG:GROUP_ID_REG + 3]) == (1, 0, 1)

    def test_unused_group_dimensions_stay_zero(self, dispatcher):
        disp, _ = dispatcher
        g = LaunchGeometry.of((128, 4), (64, 4))    # one group in Y and Z
        wg = disp.build_workgroup(assemble("s_endpgm"), g, (1, 0, 0))
        assert wg.wavefronts[0].sgprs[GROUP_ID_REG] == 1
        assert not wg.wavefronts[0].sgprs[GROUP_ID_REG + 1:GROUP_ID_REG + 3].any()

    def test_workgroups_own_their_registers(self, dispatcher):
        disp, _ = dispatcher
        program = assemble("s_endpgm")
        template = disp.workgroup_template(program, self.GEOMETRY)
        assert not template.sgprs.flags.writeable
        assert not template.vgprs.flags.writeable
        first = disp.build_workgroup(program, self.GEOMETRY, (0, 0, 0),
                                     template)
        first.wavefronts[0].sgprs[UAV_DESCRIPTOR_REG] = 7
        first.wavefronts[0].vgprs[0] = 7
        second = disp.build_workgroup(program, self.GEOMETRY, (0, 0, 0),
                                      template)
        assert second.wavefronts[0].sgprs[UAV_DESCRIPTOR_REG] == 0x1000
        assert (second.wavefronts[0].vgprs[0] == np.arange(64) % 8).all()

    def test_register_check_runs_when_the_template_is_built(self, dispatcher):
        disp, _ = dispatcher
        hungry = assemble(".vgprs 128\n  s_endpgm")   # 8 wavefronts fit
        with pytest.raises(LaunchError, match="concurrent wavefronts"):
            disp.workgroup_template(hungry, LaunchGeometry.of((640,), (640,)))


class TestTemplateMemo:
    """Templates are kept per (SGPR count, VGPR count, geometry), at
    most TEMPLATE_MEMO_SIZE of them."""

    GEOMETRY = LaunchGeometry.of((128,), (128,))

    def test_same_shape_reuses_the_template(self, dispatcher):
        disp, _ = dispatcher
        first = disp.workgroup_template(assemble(".vgprs 9\n  s_endpgm"),
                                        self.GEOMETRY)
        # Another program with the same register counts.
        other = assemble(".vgprs 9\n  v_mov_b32 v1, v0\n  s_endpgm")
        assert disp.workgroup_template(other, self.GEOMETRY) is first

    def test_other_geometry_or_register_count_gets_a_fresh_one(
            self, dispatcher):
        disp, _ = dispatcher
        program = assemble(".vgprs 9\n  s_endpgm")
        first = disp.workgroup_template(program, self.GEOMETRY)
        wide = LaunchGeometry.of((256,), (256,))
        by_geometry = disp.workgroup_template(program, wide)
        assert by_geometry is not first
        assert by_geometry.vgprs.shape == (4, 9, 64)
        assert (by_geometry.vgprs[3, 0] == np.arange(192, 256)).all()
        by_vgprs = disp.workgroup_template(
            assemble(".vgprs 12\n  s_endpgm"), self.GEOMETRY)
        assert by_vgprs is not first and by_vgprs.vgprs.shape == (2, 12, 64)
        by_sgprs = disp.workgroup_template(
            assemble(".sgprs 40\n  .vgprs 9\n  s_endpgm"), self.GEOMETRY)
        assert by_sgprs is not first
        assert disp.workgroup_template(program, self.GEOMETRY) is first

    def test_memo_stays_within_its_bound(self, dispatcher):
        disp, _ = dispatcher
        program = assemble("s_endpgm")
        geometries = [LaunchGeometry.of((64 * n,), (64,))
                      for n in range(1, 3 * TEMPLATE_MEMO_SIZE + 1)]
        built = [disp.workgroup_template(program, g) for g in geometries]
        assert len(disp._templates) == TEMPLATE_MEMO_SIZE
        # The most recent ones are kept, the oldest was dropped.
        assert disp.workgroup_template(program, geometries[-1]) is built[-1]
        assert disp.workgroup_template(program, geometries[0]) \
            is not built[0]
        assert len(disp._templates) == TEMPLATE_MEMO_SIZE

    def test_workgroups_never_share_registers(self, dispatcher):
        """Writes into one workgroup's wavefronts (through ``vgprs``,
        ``rows`` and ``sgprs``) show neither in the template, nor in
        another wavefront of the workgroup, nor in the next
        workgroup built from the memo."""
        disp, _ = dispatcher
        program = assemble(".vgprs 6\n  s_endpgm")
        geometry = LaunchGeometry.of((256,), (128,))
        first = disp.build_workgroup(program, geometry, (0, 0, 0))
        fresh = [(w.sgprs.copy(), w.vgprs.copy()) for w in first.wavefronts]
        for w in first.wavefronts:
            assert all(np.shares_memory(row, w.vgprs) for row in w.rows)
        wf = first.wavefronts[0]
        wf.vgprs[0] = 7
        wf.rows[5][...] = 9
        wf.sgprs[UAV_DESCRIPTOR_REG] = 7
        assert (wf.rows[0] == 7).all() and (wf.vgprs[5] == 9).all()
        twin = first.wavefronts[1]
        assert np.array_equal(twin.sgprs, fresh[1][0])
        assert np.array_equal(twin.vgprs, fresh[1][1])
        second = disp.build_workgroup(program, geometry, (1, 0, 0))
        assert second.wavefronts[0].sgprs[GROUP_ID_REG] == 1
        for w, (sgprs, vgprs) in zip(second.wavefronts, fresh):
            sgprs[GROUP_ID_REG] = 1
            assert np.array_equal(w.sgprs, sgprs)
            assert np.array_equal(w.vgprs, vgprs)


class TestLaunchTemplate:
    def test_one_template_per_launch_and_none_in_checkpoints(self,
                                                             monkeypatch):
        from repro.core.config import ArchConfig
        from repro.errors import LaunchPreempted
        from repro.exec.checkpoint import _frame_from_dict, _frame_to_dict
        from repro.soc.gpu import Gpu

        gpu = Gpu(ArchConfig.baseline())
        built = []
        original = gpu.dispatcher.workgroup_template
        monkeypatch.setattr(
            gpu.dispatcher, "workgroup_template",
            lambda *args: built.append(args) or original(*args))
        program = assemble("  v_mov_b32 v1, v0\n  s_endpgm")
        with pytest.raises(LaunchPreempted):
            gpu.launch(program, (256,), (64,), max_slice_instructions=1)
        frame = gpu.paused
        assert frame.template is not None and len(built) == 1
        data = _frame_to_dict(frame)
        assert "template" not in data
        restored = _frame_from_dict(data)
        assert restored.template is None
        # A resumed launch builds its own template once.
        gpu.paused = restored
        result = gpu.resume_launch()
        assert result.executed_groups == 4 and len(built) == 2
