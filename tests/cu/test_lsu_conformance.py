"""Per-instruction conformance matrix for the LSU forms.

Every SMRD, MUBUF/MTBUF and DS form the kernels use runs against a
model built only from one-address accessors -- ``GlobalMemory``'s
``read_u32``/``write_u32``/``read_u8``/``write_u8`` and one LDS dword
at a time: lanes in order, each dword range-checked across the active
lanes before any lane of it moves (all-or-nothing per dword), the last
active lane winning on colliding stores.  The global forms cross
offen/idxen/neither addressing with edge footprints -- aligned,
unaligned, the last valid dword, a dword one or two bytes past the end
of memory, a negative (wrapped) address, an access past
``num_records``, colliding lanes (adjacent and 16 lanes apart).  The
DS forms cross their offsets with aligned, unaligned, last dword, one
dword past the end, out of range, negative (wrapped), colliding lanes
and a workgroup without LDS.  Every scenario runs
under the four EXEC masks of the vector matrix.

Three prepared executors are checked: the one a one-instruction
program binds (the instruction prepared alone), the one the wavefront's
own program binds (``InstPlan.mem_fn``, which the issue loop calls)
and, for every offen buffer load, the one-address form a program binds
when a preceding ``v_mov_b32 v<vaddr>, s<k>`` makes the address row
lane-uniform (the ``uniform`` way; its scenarios put every lane at the
scenario's one address).  All come from the same emitter, and an
executor depends on its instruction and on the program facts at its PC
(:mod:`repro.cu.facts`).  The ``lone`` way pins that nothing else
matters -- not a following ``s_endpgm``, nor the kernel's ``.lds``
directive -- so the matrix holds for each form in every kernel, not
only in the one it builds.  Each must match the model on every
register, every memory byte, ``dirty_hi``, every LDS dword, the access
tuple handed to the timing query (by its lane addresses, and by the
prefetch hit or miss ``MemorySystem.access_time`` gives it under a
contiguous and a discontiguous residency), the static timing query and
occupancy, and the exception type and message.

On PRs a deterministic stride sample of the states runs; exporting
``REPRO_CONFORMANCE_FULL=1`` (the main-branch CI job) runs them all.
"""

import os

import numpy as np
import pytest

from repro.asm import assemble
from repro.cu import lsu
from repro.cu.prepared import get_prepared
from repro.cu.timing import LSU_CYCLES
from repro.cu.wavefront import MASK32, Wavefront
from repro.cu.workgroup import Workgroup
from repro.errors import SimulationError
from repro.mem.params import DCD_PM_TIMING
from repro.mem.system import MemorySystem

from .test_vector_conformance import EXEC_MASKS

FULL_GRID = os.environ.get("REPRO_CONFORMANCE_FULL") == "1"

#: Global memory size: small enough that the scenarios below reach its
#: end.  The top ``_ZERO_TAIL`` bytes stay power-on zero so stores there
#: move ``dirty_hi``.
MEM = 0x2000
_ZERO_TAIL = 0x40

#: soffset register value for offen/idxen forms; the constant offset
#: every buffer form carries.
SOFF = 8
INST_OFFSET = 4

_BUFFER_OPS = ["buffer_load_dword", "buffer_store_dword",
               "tbuffer_load_format_x", "tbuffer_store_format_x",
               "buffer_load_ubyte", "buffer_load_sbyte", "buffer_store_byte"]
_BUFFER_XY = ["tbuffer_load_format_xy", "tbuffer_store_format_xy"]

BUFFER_FORMS = [
    "{} v2, v1, s[4:7], s8 {} offset:{}".format(op, mode, INST_OFFSET)
    for op in _BUFFER_OPS for mode in ("offen", "idxen", "")
] + [
    "{} v[2:3], v1, s[4:7], s8 {} offset:{}".format(op, mode, INST_OFFSET)
    for op in _BUFFER_XY for mode in ("offen", "idxen", "")
] + [
    # Loads that overwrite their own address register: under full EXEC
    # the address rows are the register row itself, so the access tuple
    # holds the pre-load addresses only if the executor copies them.
    "tbuffer_load_format_xy v[1:2], v1, s[4:7], s8 offen offset:4",
    "buffer_load_dword v1, v1, s[4:7], s8 offen offset:4",
    "buffer_load_ubyte v1, v1, s[4:7], s8 offen offset:4",
]

SMRD_FORMS = [
    "s_load_dword s20, s[2:3], 0x3",
    "s_load_dwordx2 s[20:21], s[2:3], 0x3",
    "s_load_dwordx4 s[20:23], s[2:3], 0x3",
    "s_load_dwordx2 s[20:21], s[2:3], s8",
    "s_buffer_load_dword s20, s[4:7], 0x3",
    "s_buffer_load_dwordx2 s[20:21], s[4:7], 0x3",
    "s_buffer_load_dwordx4 s[20:23], s[4:7], 0x3",
    "s_buffer_load_dword s20, s[4:7], s8",
]

_LANES = np.arange(64, dtype=np.int64)

#: (name, buffer base, num_records, per-lane target addresses, the one
#: address a lane-uniform form targets).  The buffer base is where the
#: descriptor base plus ``soffset`` plus the instruction offset lands,
#: so a target at or above it needs no wrapped address VGPR.
#: num_records 0 leaves the records check off, so the memory bound is
#: what bites.
SCENARIOS = [
    ("aligned", 0x1000, 0x1000, 0x1000 + 4 * _LANES, 0x1000 + 4 * 63),
    ("unaligned", 0x1001, 0x1000, 0x1001 + 4 * _LANES, 0x1001 + 4 * 63),
    ("last-dword", 0x1000, 0, MEM - 4 - 4 * (63 - _LANES), MEM - 4),
    # One byte past the last dword: a one-dword SMRD must take the
    # dword-by-dword path and raise there, not index past the store.
    ("last-dword+1", 0x1001, 0, MEM - 3 - 4 * (63 - _LANES), MEM - 3),
    ("straddle-end", 0x1002, 0, MEM - 2 - 4 * (63 - _LANES), MEM - 2),
    ("negative", 0x1000, 0, 0x1000 - 0x1010 + 4 * _LANES, -4),
    ("past-records", 0x1000, 0x80, 0x1000 + 4 * _LANES, 0x1080),
    ("collide", 0x1000, 0x1000, 0x1000 + 4 * (_LANES // 4), 0x1000),
    ("collide-unaligned", 0x1000, 0x1000, 0x1001 + 2 * _LANES, 0x1001),
    # Lanes 16 apart share a dword: the last active one must win.
    ("collide-strided", 0x1000, 0x1000, 0x1000 + 4 * (_LANES % 16), 0x1000),
]

#: LDS bytes of the DS forms' workgroup.
LDS = 0x200

DS_FORMS = [
    "ds_read_b32 v2, v1 offset:8",
    "ds_write_b32 v1, v2 offset:8",
    "ds_add_u32 v1, v2 offset:8",
    "ds_read2_b32 v[2:3], v1 offset0:2 offset1:5",
    "ds_write2_b32 v1, v2, v3 offset0:2 offset1:5",
    # A read that overwrites its own address register.
    "ds_read_b32 v1, v1 offset:8",
]

#: (name, LDS bytes or 0 for none, per-lane target of the first
#: offset).  read2/write2's second address sits 12 bytes above it.
DS_SCENARIOS = [
    ("aligned", LDS, 4 * _LANES),
    ("unaligned", LDS, 1 + 4 * _LANES),
    ("last-dword", LDS, LDS - 4 - 4 * (63 - _LANES)),
    ("one-past-end", LDS, LDS - 4 * (63 - _LANES)),
    ("out-of-range", LDS, LDS - 0x80 + 4 * _LANES),
    ("negative", LDS, -0x10 + 4 * _LANES),
    ("collide", LDS, 4 * (_LANES // 4)),
    ("no-lds", 0, 4 * _LANES),
]


def _states(scenarios):
    """(scenario index, EXEC) pairs.  The PR sample keeps full EXEC for
    every scenario and rotates one of the other three masks through
    them."""
    return [(scenario, mask)
            for scenario in range(len(scenarios))
            for k, (_, mask) in enumerate(EXEC_MASKS)
            if FULL_GRID or k == 0 or k == 1 + scenario % 3]


STATES = _states(SCENARIOS)
DS_STATES = _states(DS_SCENARIOS)

_PROGRAMS = {}


def _program_for(line, lds=0):
    key = (line, lds)
    if key not in _PROGRAMS:
        _PROGRAMS[key] = assemble("{}  {}\n  s_endpgm".format(
            ".lds {}\n".format(lds) if lds else "", line))
    return _PROGRAMS[key]


def _is_ds(line):
    return line.startswith("ds_")


def _uniform_program_for(line):
    """``line`` after a ``v_mov_b32`` that makes its address row
    lane-uniform."""
    vaddr = _program_for(line).instructions[0].fields["vaddr"]
    return _program_for("v_mov_b32 v{}, s9\n  {}".format(vaddr, line))


def _is_uniform_load(line):
    f = _program_for(line).instructions[0].fields
    return "load" in line and f.get("offen") == 1 and not f["idxen"]


UNIFORM_FORMS = [line for line in BUFFER_FORMS if _is_uniform_load(line)]


def _setup(line, state, lane_uniform=False):
    """Fresh (wavefront, memory system) with the state's footprint;
    with ``lane_uniform`` every lane of an offen form addresses the
    scenario's one address."""
    if _is_ds(line):
        return _setup_ds(line, state)
    scenario, exec_mask = state
    _, base, records, want, uniform = SCENARIOS[scenario]
    if lane_uniform:
        want = np.full(64, uniform, dtype=np.int64)
    program = _program_for(line)
    inst = program.instructions[0]
    wf = Wavefront(0, program)
    wf.sgprs[:] = range(0xC0DE0000, 0xC0DE0000 + len(wf.sgprs))
    desc_base = base - SOFF - INST_OFFSET
    wf.sgprs[4:8] = lsu.make_buffer_descriptor(desc_base, records)
    for row in range(len(wf.vgprs)):
        wf.vgprs[row] = 0x5A000000 + (row << 16) + _LANES
    f = inst.fields
    if inst.fmt.name == "SMRD":
        # Aim the one scalar address at the scenario's uniform target.
        if f["imm"]:
            base_value = (uniform - 4 * f["offset"]) & MASK32
            wf.sgprs[2] = base_value
            wf.sgprs[4] = base_value
        else:
            wf.sgprs[2] = base
            wf.sgprs[8] = (uniform - base) & MASK32
    else:
        wf.sgprs[8] = SOFF
        if f["offen"]:
            wf.vgprs[f["vaddr"]] = (want - base) & MASK32
        elif f["idxen"]:
            wf.vgprs[f["vaddr"]] = ((want - base) // 4) & MASK32
        else:
            wf.sgprs[8] = (uniform - desc_base - INST_OFFSET) & MASK32
    wf.exec_mask = exec_mask
    wf.pc = inst.address + inst.words * 4
    memory = MemorySystem(global_size=MEM)
    pattern = np.random.default_rng(7).integers(
        0, 256, MEM - _ZERO_TAIL, dtype=np.uint8)
    memory.global_mem.write_block(0, pattern)
    return inst, wf, memory


def _setup_ds(line, state):
    scenario, exec_mask = state
    _, lds, want = DS_SCENARIOS[scenario]
    program = _program_for(line, lds)
    inst = program.instructions[0]
    wf = Wavefront(0, program, workgroup=Workgroup((0, 0, 0), program,
                                                   (64, 1, 1)))
    for row in range(len(wf.vgprs)):
        wf.vgprs[row] = 0x5A000000 + (row << 16) + _LANES
    f = inst.fields
    first = (4 * f["offset0"] if "2_b32" in inst.spec.name
             else f["offset0"] | (f["offset1"] << 8))
    wf.vgprs[f["addr"]] = (want - first) & MASK32
    if lds:
        wf.workgroup.lds[:] = np.random.default_rng(11).integers(
            0, 1 << 32, lds // 4, dtype=np.uint32)
    wf.exec_mask = exec_mask
    wf.pc = inst.address + inst.words * 4
    return inst, wf, MemorySystem(global_size=MEM)


# ---------------------------------------------------------------------------
# The model: one address at a time through GlobalMemory's accessors.
# ---------------------------------------------------------------------------

def _model_smrd(wf, inst, gm):
    f, name = inst.fields, inst.spec.name
    count = {"dword": 1, "dwordx2": 2, "dwordx4": 4}[name.rsplit("_", 1)[-1]]
    base = int(wf.sgprs[f["sbase"] << 1])
    if f["imm"]:
        addr = base + 4 * f["offset"]
    else:
        addr = base + wf.read_scalar(f["offset"])
    for i in range(count):
        wf.write_scalar(f["sdst"] + i, gm.read_u32(addr + 4 * i))
    return (addr,), lsu.MEM_SCALAR, count


def _model_buffer(wf, inst, gm):
    f, name = inst.fields, inst.spec.name
    srsrc = f["srsrc"] << 2
    base, size = int(wf.sgprs[srsrc]), int(wf.sgprs[srsrc + 2])
    offset = base + wf.read_scalar(f["soffset"]) + f["offset"]
    vaddr = wf.vgprs[f["vaddr"]].astype(np.int64)
    if f["offen"]:
        addrs = vaddr + offset
    elif f["idxen"]:
        addrs = vaddr * 4 + offset
    else:
        addrs = np.full(64, offset, dtype=np.int64)
    lanes = [lane for lane in range(64) if wf.exec_mask >> lane & 1]
    if size and lanes and int(addrs[lanes].max()) >= base + size:
        raise SimulationError(
            "{}: access at 0x{:x} beyond buffer records [0x{:x}, 0x{:x})"
            .format(name, int(addrs[lanes].max()), base, base + size))
    byte = "byte" in name
    nbytes = 1 if byte else 4
    store = "store" in name
    dwords = 2 if name.endswith("_xy") else 1
    vdata = f["vdata"]
    for i in range(dwords):
        if lanes:
            lo = int(addrs[lanes].min()) + 4 * i
            hi = int(addrs[lanes].max()) + 4 * i
            if lo < 0 or hi + nbytes > gm.size:
                raise SimulationError(
                    "global memory access out of range: 0x{:x}..0x{:x} "
                    "(size 0x{:x})".format(lo, hi + nbytes, gm.size))
        for lane in lanes:
            addr = int(addrs[lane]) + 4 * i
            if store:
                value = int(wf.vgprs[vdata + i][lane])
                if byte:
                    gm.write_u8(addr, value)
                else:
                    gm.write_u32(addr, value)
            elif byte:
                value = gm.read_u8(addr)
                if name == "buffer_load_sbyte" and value & 0x80:
                    value |= 0xFFFFFF00
                wf.vgprs[vdata + i][lane] = value
            else:
                wf.vgprs[vdata + i][lane] = gm.read_u32(addr)
    if lanes:
        access = (len(lanes), int(addrs[lanes].min()),
                  int(addrs[lanes].max()), addrs[lanes])
    else:
        access = (0, 0, 0, None)
    return access, lsu.MEM_VECTOR, dwords


def _model_ds(wf, inst, lds):
    """``lds`` is the workgroup's LDS as a list of dwords, or None."""
    f, name = inst.fields, inst.spec.name
    if lds is None:
        raise SimulationError("kernel uses LDS but the workgroup has none "
                              "(missing .lds directive?)")
    pair = "2_b32" in name
    offsets = ([4 * f["offset0"], 4 * f["offset1"]] if pair
               else [f["offset0"] | (f["offset1"] << 8)])
    lanes = [lane for lane in range(64) if wf.exec_mask >> lane & 1]
    vaddr = [int(wf.vgprs[f["addr"]][lane]) for lane in lanes]
    words = []
    for offset in offsets:
        addrs = [a + offset for a in vaddr]
        if any(a & 3 for a in addrs):
            raise SimulationError("{}: unaligned LDS access".format(name))
        if any(a >> 2 >= len(lds) for a in addrs):
            raise SimulationError(
                "{}: LDS access out of range (size {} dwords)".format(
                    name, len(lds)))
        words.append([a >> 2 for a in addrs])
    data = [[int(wf.vgprs[f[key]][lane]) for lane in lanes]
            for key in (("data0", "data1") if pair else ("data0",))]
    for k, lane in enumerate(lanes):
        if name.startswith("ds_read"):
            for i, idx in enumerate(words):
                wf.vgprs[f["vdst"] + i][lane] = lds[idx[k]]
        elif name == "ds_add_u32":
            lds[words[0][k]] = (lds[words[0][k]] + data[0][k]) & MASK32
        else:  # writes: offset0 then offset1 per lane, lanes in order
            for i, idx in enumerate(words):
                lds[idx[k]] = data[i][k]
    return (), lsu.MEM_LDS, len(offsets)


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------

def _run(line, state, way, lane_uniform=False):
    inst, wf, memory = _setup(line, state, lane_uniform)
    gm = memory.global_mem
    lds = wf.workgroup.lds if wf.workgroup is not None else None
    error = info = None
    try:
        if way == "model":
            if inst.fmt.name == "DS":
                words = None if lds is None else [int(w) for w in lds]
                try:
                    access, timing, transactions = _model_ds(wf, inst, words)
                finally:
                    if words is not None:
                        lds[:] = words
            else:
                model = (_model_smrd if inst.fmt.name == "SMRD"
                         else _model_buffer)
                access, timing, transactions = model(wf, inst,
                                                     _Accessors(gm))
            occupancy = LSU_CYCLES * transactions
        else:
            if way == "uniform":
                prepared = get_prepared(_uniform_program_for(line))
                plan = prepared.plans[1]
                assert plan.index in prepared.facts.uniform_loads
            else:
                program = (assemble(line) if way == "lone" else wf.program)
                plan = get_prepared(program).plans[0]
            access = plan.mem_fn(wf, gm)
            timing, occupancy = plan.mem_timing, plan.occupancy
        info = {"access": _access(access), "hits": _hits(access),
                "timing": timing, "occupancy": occupancy}
    except Exception as exc:  # the type and message are compared
        error = (type(exc), str(exc))
    return {"sgprs": wf.sgprs.tobytes(), "vgprs": wf.vgprs.tobytes(),
            "exec": wf.exec_mask, "vcc": wf.vcc, "m0": wf.m0, "scc": wf.scc,
            "memory": gm.snapshot().tobytes(), "dirty_hi": gm.dirty_hi,
            "lds": None if lds is None else lds.tobytes(),
            "error": error}, info


class _Accessors:
    """The model's only window on memory: the one-address accessors."""

    def __init__(self, gm):
        self._gm = gm
        self.size = gm.size

    def read_u32(self, addr):
        return self._gm.read_u32(addr)

    def write_u32(self, addr, value):
        self._gm.write_u32(addr, value)

    def read_u8(self, addr):
        return self._gm.read_u8(addr)

    def write_u8(self, addr, value):
        self._gm.write_u8(addr, value)


def _access(access):
    """A vector access tuple with its lane addresses built, as the
    timing query builds them; other access tuples as they are."""
    if len(access) == 5:
        active, lo, hi, rows, offset = access
        lanes = (np.asarray(rows).astype(np.int64) + offset if active
                 else None)
        return (active, lo, hi, lanes)
    return tuple(access)


#: Prefetch residencies (start, bytes) the hit outcome is taken under:
#: one range, and two discontiguous ones that only the per-lane scan
#: can prove to cover an access.
RESIDENCIES = (((0x1000, 0x100),), ((0x1000, 0x80), (0x1080, 0x800)))


def _hits(access):
    """Per residency, whether ``MemorySystem.access_time`` counts a
    vector access as a prefetch hit; None for other accesses."""
    if len(access) not in (4, 5):
        return None
    if len(access) == 4:    # the model's (active, lo, hi, lane addresses)
        access = tuple(access) + (0,)
    hits = []
    for residency in RESIDENCIES:
        memory = MemorySystem(params=DCD_PM_TIMING, global_size=MEM)
        for start, nbytes in residency:
            memory.preload(0, start, nbytes)
        memory.access_time(0, 0.0, access)
        hits.append(memory.stats["prefetch_hits"])
    return hits


def _same(got, want):
    if isinstance(want, tuple) and isinstance(got, tuple):
        return len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want))
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        return (got is not None and want is not None
                and np.array_equal(np.asarray(got), np.asarray(want)))
    return got == want


def _check(line, state, way):
    lane_uniform = way == "uniform"
    want, want_info = _run(line, state, "model", lane_uniform)
    got, got_info = _run(line, state, way, lane_uniform)
    scenarios = DS_SCENARIOS if _is_ds(line) else SCENARIOS
    where = "{} {} {}".format(line, scenarios[state[0]][0], hex(state[1]))
    for key in want:
        assert got[key] == want[key], "{} [{}]: diverges in {}".format(
            where, way, key)
    if want["error"] is not None:
        return
    for key, value in want_info.items():
        assert _same(got_info[key], value), (
            "{} [{}]: {} is {!r}, model {!r}".format(
                where, way, key, got_info[key], value))


WAYS = ("lone", "plan")


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("line", SMRD_FORMS + BUFFER_FORMS)
def test_conformance(line, way):
    for state in STATES:
        _check(line, state, way)


@pytest.mark.parametrize("line", UNIFORM_FORMS)
def test_uniform_conformance(line):
    for state in STATES:
        _check(line, state, "uniform")


def test_uniform_forms_cover_every_buffer_load():
    names = {_program_for(line).instructions[0].spec.name
             for line in UNIFORM_FORMS}
    assert names == {name for name in _BUFFER_OPS + _BUFFER_XY
                     if "load" in name}
    # Loads into their own address register are among them.
    assert sum(_program_for(line).instructions[0].fields["vaddr"] == 1
               and _program_for(line).instructions[0].fields["vdata"] == 1
               for line in UNIFORM_FORMS) == 3


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("line", DS_FORMS)
def test_ds_conformance(line, way):
    for state in DS_STATES:
        _check(line, state, way)


def test_matrix_reaches_every_outcome():
    """The grid raises both errors, and raises after partial effects."""
    outcomes = set()
    for line in SMRD_FORMS + BUFFER_FORMS:
        for state in STATES:
            result, _ = _run(line, state, "model")
            if result["error"] is None:
                continue
            outcomes.add("records" if "records" in result["error"][1]
                         else "range")
            _, fresh, memory = _setup(line, state)
            if (result["sgprs"] != fresh.sgprs.tobytes()
                    or result["vgprs"] != fresh.vgprs.tobytes()
                    or result["memory"] != memory.global_mem.snapshot()
                    .tobytes()):
                outcomes.add("partial")
    assert outcomes == {"records", "range", "partial"}


def test_forms_cover_every_global_memory_opcode():
    names = {_program_for(line).instructions[0].spec.name
             for line in SMRD_FORMS + BUFFER_FORMS}
    assert names == {
        "s_load_dword", "s_load_dwordx2", "s_load_dwordx4",
        "s_buffer_load_dword", "s_buffer_load_dwordx2",
        "s_buffer_load_dwordx4", *_BUFFER_OPS, *_BUFFER_XY}


def test_ds_matrix_reaches_every_outcome():
    """The DS grid raises each LDS error and completes some accesses."""
    outcomes = set()
    for line in DS_FORMS:
        for state in DS_STATES:
            result, _ = _run(line, state, "model")
            error = result["error"]
            outcomes.add("ok" if error is None
                         else "none" if "has none" in error[1]
                         else "unaligned" if "unaligned" in error[1]
                         else "range")
    assert outcomes == {"ok", "none", "unaligned", "range"}


def test_ds_forms_cover_every_lds_opcode():
    names = {_program_for(line).instructions[0].spec.name
             for line in DS_FORMS}
    assert names == {"ds_read_b32", "ds_write_b32", "ds_add_u32",
                     "ds_read2_b32", "ds_write2_b32"}
