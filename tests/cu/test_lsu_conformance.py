"""Per-instruction conformance matrix for the global-memory LSU forms.

Every SMRD and MUBUF/MTBUF form the kernels use runs against a model
built only from ``GlobalMemory``'s one-address accessors
(``read_u32``/``write_u32``/``read_u8``/``write_u8``): lanes in order,
each dword range-checked across the active lanes before any lane of it
moves (all-or-nothing per dword), the last active lane winning on
colliding stores.  The forms cross offen/idxen/neither addressing with
edge footprints -- aligned, unaligned, the last valid dword, a dword
straddling the end of memory, a negative (wrapped) address, an access
past ``num_records``, colliding lanes -- and the four EXEC masks of the
vector matrix.

Both ways an instruction reaches memory are checked: the reference
loop's ``lsu.execute_memory`` and the executor the prepared plan binds
(``InstPlan.mem_fn``).  Each must match the model on every register,
every memory byte, ``dirty_hi``, the ``AccessInfo`` fields and the
exception type and message.

On PRs a deterministic stride sample of the states runs; exporting
``REPRO_CONFORMANCE_FULL=1`` (the main-branch CI job) runs them all.
"""

import os

import numpy as np
import pytest

from repro.asm import assemble
from repro.cu import lsu
from repro.cu.prepared import get_prepared
from repro.cu.wavefront import MASK32, Wavefront
from repro.errors import SimulationError
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
    # A load that overwrites its own address register.
    "tbuffer_load_format_xy v[1:2], v1, s[4:7], s8 offen offset:4",
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

#: (name, descriptor base, num_records, per-lane target addresses,
#: the one address a lane-uniform form targets).  num_records 0 leaves
#: the records check off, so the memory bound is what bites.
SCENARIOS = [
    ("aligned", 0x1000, 0x1000, 0x1000 + 4 * _LANES, 0x1000 + 4 * 63),
    ("unaligned", 0x1001, 0x1000, 0x1001 + 4 * _LANES, 0x1001 + 4 * 63),
    ("last-dword", 0x1000, 0, MEM - 4 - 4 * (63 - _LANES), MEM - 4),
    ("straddle-end", 0x1002, 0, MEM - 2 - 4 * (63 - _LANES), MEM - 2),
    ("negative", 0x1000, 0, 0x1000 - 0x1010 + 4 * _LANES, -4),
    ("past-records", 0x1000, 0x80, 0x1000 + 4 * _LANES, 0x1080),
    ("collide", 0x1000, 0x1000, 0x1000 + 4 * (_LANES // 4), 0x1000),
    ("collide-unaligned", 0x1000, 0x1000, 0x1001 + 2 * _LANES, 0x1001),
]

#: (scenario index, EXEC) pairs.  The PR sample keeps full EXEC for
#: every scenario and rotates one of the other three masks through them.
STATES = [(scenario, mask)
          for scenario in range(len(SCENARIOS))
          for k, (_, mask) in enumerate(EXEC_MASKS)
          if FULL_GRID or k == 0 or k == 1 + scenario % 3]

_PROGRAMS = {}


def _program_for(line):
    if line not in _PROGRAMS:
        _PROGRAMS[line] = assemble("  {}\n  s_endpgm".format(line))
    return _PROGRAMS[line]


def _setup(line, state):
    """Fresh (wavefront, memory system) with the state's footprint."""
    scenario, exec_mask = state
    _, base, records, want, uniform = SCENARIOS[scenario]
    program = _program_for(line)
    inst = program.instructions[0]
    wf = Wavefront(0, program)
    wf.sgprs[:] = range(0xC0DE0000, 0xC0DE0000 + len(wf.sgprs))
    wf.sgprs[4:8] = lsu.make_buffer_descriptor(base, records)
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
        offset = base + SOFF + INST_OFFSET
        if f["offen"]:
            wf.vgprs[f["vaddr"]] = (want - offset) & MASK32
        elif f["idxen"]:
            wf.vgprs[f["vaddr"]] = ((want - offset) // 4) & MASK32
        else:
            wf.sgprs[8] = (uniform - base - INST_OFFSET) & MASK32
    wf.exec_mask = exec_mask
    wf.pc = inst.address + inst.words * 4
    memory = MemorySystem(global_size=MEM)
    pattern = np.random.default_rng(7).integers(
        0, 256, MEM - _ZERO_TAIL, dtype=np.uint8)
    memory.global_mem.write_block(0, pattern)
    return inst, wf, memory


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
    return {"space": "global", "counter": "lgkm", "is_write": False,
            "addrs": addr, "lane_mask": None, "transactions": count,
            "span": None}


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
        span = (len(lanes), int(addrs[lanes].min()), int(addrs[lanes].max()))
    else:
        span = (0, 0, 0)
    mask = np.array([wf.exec_mask >> lane & 1 for lane in range(64)],
                    dtype=bool)
    return {"space": "global", "counter": "vm", "is_write": store,
            "addrs": addrs, "lane_mask": mask, "transactions": dwords,
            "span": span}


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------

def _run(line, state, way):
    inst, wf, memory = _setup(line, state)
    gm = memory.global_mem
    error = info = None
    try:
        if way == "model":
            model = _model_smrd if inst.fmt.name == "SMRD" else _model_buffer
            info = model(wf, inst, _Accessors(gm))
        elif way == "execute_memory":
            info = _fields(lsu.execute_memory(wf, inst, memory))
        else:
            plan = get_prepared(_program_for(line)).plans[0]
            info = _fields(plan.mem_fn(wf, inst, memory))
    except Exception as exc:  # the type and message are compared
        error = (type(exc), str(exc))
    return {"sgprs": wf.sgprs.tobytes(), "vgprs": wf.vgprs.tobytes(),
            "exec": wf.exec_mask, "vcc": wf.vcc, "m0": wf.m0, "scc": wf.scc,
            "memory": gm.snapshot().tobytes(), "dirty_hi": gm.dirty_hi,
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


def _fields(info):
    return {"space": info.space, "counter": info.counter,
            "is_write": info.is_write, "addrs": info.addrs,
            "lane_mask": info.lane_mask, "transactions": info.transactions,
            "span": info.span}


def _same(got, want):
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        return (got is not None and want is not None
                and np.array_equal(np.asarray(got), np.asarray(want)))
    return got == want


def _check(line, state, way):
    want, want_info = _run(line, state, "model")
    got, got_info = _run(line, state, way)
    where = "{} {} {}".format(line, SCENARIOS[state[0]][0],
                              hex(state[1]))
    for key in want:
        assert got[key] == want[key], "{} [{}]: diverges in {}".format(
            where, way, key)
    if want["error"] is not None:
        return
    for key, value in want_info.items():
        if key == "span" and got_info["span"] is None:
            continue  # a span is optional; when given it must be exact
        assert _same(got_info[key], value), (
            "{} [{}]: AccessInfo.{} is {!r}, model {!r}".format(
                where, way, key, got_info[key], value))


WAYS = ("execute_memory", "plan")


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("line", SMRD_FORMS + BUFFER_FORMS)
def test_conformance(line, way):
    for state in STATES:
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
