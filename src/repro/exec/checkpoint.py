"""Checkpoint/restore: a board's execution state as first-class data.

A :class:`BoardCheckpoint` is everything needed to continue a (possibly
in-flight) run on *any* board with the same content key: the global-
memory image, the heap map, prefetch residency, channel/functional-unit
occupancy, the timeline and MicroBlaze accounting, and -- when a launch
was preempted at a workgroup boundary -- the paused
:class:`~repro.soc.gpu.LaunchFrame` (pending workgroups, per-CU free
times, the instruction-count watermark, and the retired wavefronts'
register files with their EXEC/VCC/SCC state).

Checkpoints are **serializable and digest-verified**: the payload is a
JSON-ready mapping under the :mod:`repro.obs.serialize` convention,
``to_dict``/``from_dict`` round-trip losslessly, and a SHA-256 digest
over the canonical encoding is checked before any restore -- a
corrupted or tampered checkpoint raises
:class:`~repro.errors.CheckpointError` instead of silently computing
garbage.  The raw capture/restore mechanics live in
:mod:`repro.soc.state`; this module adds the wire format.

The public API is :meth:`repro.exec.BoardLease.checkpoint` /
:meth:`~repro.exec.BoardLease.restore`; the
:class:`~repro.exec.Executor` drives both when a request carries
``max_slice_instructions`` (producing a ``PREEMPTED`` result with a
:class:`PreemptedResult` envelope) or ``checkpoint=`` next to the
workload it was taken from (resuming one, after
:meth:`BoardCheckpoint.check_heap` on the workload's host setup).
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.config import ArchConfig
from ..errors import CheckpointError
from ..isa.categories import FunctionalUnit
from ..obs.serialize import SerializableMixin

#: ``ExecutionResult.status`` values.
STATUS_DONE = "done"
STATUS_PREEMPTED = "preempted"

#: Wire-format version; bumped on incompatible payload changes
#: (3: the paused frame no longer names a launch engine; 4: frame
#: stats carry the stall/occupancy/issue-path aggregates; 5: frame
#: stats drop the issue-path split).
CHECKPOINT_VERSION = 5


def _b64(raw):
    return base64.b64encode(bytes(raw)).decode("ascii")


def _unb64(text):
    return base64.b64decode(text.encode("ascii"))


def _digest_payload(payload):
    """Canonical SHA-256 over a JSON-ready payload mapping."""
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


# -- stats / registers / frame serialization ---------------------------------


def _stats_to_dict(stats):
    # per_unit is keyed by FunctionalUnit *value* strings already (the
    # pipeline accumulates ``inst.spec.unit.value``).
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "per_unit": dict(sorted(stats.per_unit.items())),
        "per_name": dict(sorted(stats.per_name.items())),
        "memory_accesses": stats.memory_accesses,
        "wavefronts": stats.wavefronts,
        "active_cycles": stats.active_cycles,
        "stalls": dict(sorted(stats.stalls.items())),
        "workgroups": stats.workgroups,
        "peak_wavefronts": stats.peak_wavefronts,
        # JSON object keys are strings; CU indices stay ints as rows.
        "per_cu": [[cu, stats.cu_cycles[cu], stats.cu_workgroups[cu]]
                   for cu in sorted(stats.cu_cycles)],
    }


def _stats_from_dict(data):
    from ..cu.pipeline import CuRunStats

    return CuRunStats(
        cycles=data["cycles"],
        instructions=data["instructions"],
        per_unit=dict(data["per_unit"]),
        per_name=dict(data["per_name"]),
        memory_accesses=data["memory_accesses"],
        wavefronts=data["wavefronts"],
        active_cycles=data["active_cycles"],
        stalls=dict(data["stalls"]),
        workgroups=data["workgroups"],
        peak_wavefronts=data["peak_wavefronts"],
        cu_cycles={cu: cycles for cu, cycles, _ in data["per_cu"]},
        cu_workgroups={cu: groups for cu, _, groups in data["per_cu"]},
    )


def _registers_to_list(registers):
    out = []
    for (group_id, wf_id), state in sorted(registers.items()):
        out.append({
            "group_id": list(group_id),
            "wf_id": wf_id,
            "sgprs": _b64(state["sgprs"]),
            "vgprs": _b64(state["vgprs"]),
            "vcc": state["vcc"],
            "exec": state["exec"],
            "scc": state["scc"],
        })
    return out


def _registers_from_list(entries):
    registers = {}
    for entry in entries:
        key = (tuple(entry["group_id"]), entry["wf_id"])
        registers[key] = {
            "sgprs": _unb64(entry["sgprs"]),
            "vgprs": _unb64(entry["vgprs"]),
            "vcc": entry["vcc"],
            "exec": entry["exec"],
            "scc": entry["scc"],
        }
    return registers


def _program_to_dict(program):
    return {
        "name": program.name,
        "words": list(program.words),
        "labels": dict(program.labels),
        "args": [[arg.name, arg.kind, arg.offset] for arg in program.args],
        "sgpr_count": program.sgpr_count,
        "vgpr_count": program.vgpr_count,
        "lds_size": program.lds_size,
    }


def _program_from_dict(data):
    from ..asm.program import KernelArg, Program

    return Program(
        name=data["name"],
        words=list(data["words"]),
        labels={name: addr for name, addr in data["labels"].items()},
        args=[KernelArg(name=n, kind=k, offset=o)
              for n, k, o in data["args"]],
        sgpr_count=data["sgpr_count"],
        vgpr_count=data["vgpr_count"],
        lds_size=data["lds_size"],
    )


def _frame_to_dict(frame):
    return {
        "program": _program_to_dict(frame.program),
        "global_size": list(frame.geometry.global_size),
        "local_size": list(frame.geometry.local_size),
        "pending": [list(gid) for gid in frame.pending],
        "dispatch_cost": frame.dispatch_cost,
        "total_groups": frame.total_groups,
        "sampled": frame.sampled,
        "cu_free": list(frame.cu_free),
        "disp_free": frame.disp_free,
        "end_time": frame.end_time,
        "stats": _stats_to_dict(frame.stats),
        "executed_groups": frame.executed_groups,
        "registers": (None if frame.registers is None
                      else _registers_to_list(frame.registers)),
    }


#: The exact key set of a serialized frame.
_FRAME_FIELDS = frozenset((
    "program", "global_size", "local_size", "pending", "dispatch_cost",
    "total_groups", "sampled", "cu_free", "disp_free", "end_time",
    "stats", "executed_groups", "registers"))


def _frame_from_dict(data):
    from ..soc.dispatcher import LaunchGeometry
    from ..soc.gpu import LaunchFrame

    # A frame with fields this version does not write (or without ones
    # it does) cannot be resumed faithfully.
    if set(data) != _FRAME_FIELDS:
        raise CheckpointError(
            "checkpoint frame has unknown fields {} and lacks {}".format(
                sorted(set(data) - _FRAME_FIELDS),
                sorted(_FRAME_FIELDS - set(data))))
    return LaunchFrame(
        program=_program_from_dict(data["program"]),
        geometry=LaunchGeometry(tuple(data["global_size"]),
                                tuple(data["local_size"])),
        pending=[tuple(gid) for gid in data["pending"]],
        dispatch_cost=data["dispatch_cost"],
        total_groups=data["total_groups"],
        sampled=data["sampled"],
        cu_free=list(data["cu_free"]),
        disp_free=data["disp_free"],
        end_time=data["end_time"],
        stats=_stats_from_dict(data["stats"]),
        executed_groups=data["executed_groups"],
        registers=(None if data["registers"] is None
                   else _registers_from_list(data["registers"])),
    )


def _timing_to_dict(state):
    relay_state, port_states, stats, cu_states = state
    return {
        "relay": list(relay_state),
        "ports": [list(port) for port in port_states],
        "stats": dict(stats),
        "cus": [{unit.name: [list(busy), cycles]
                 for unit, (busy, cycles) in sorted(
                     pools.items(), key=lambda kv: kv[0].name)}
                for pools in cu_states],
    }


def _timing_from_dict(data):
    return (
        tuple(data["relay"]),
        [tuple(port) for port in data["ports"]],
        dict(data["stats"]),
        [{FunctionalUnit[name]: (list(busy), cycles)
          for name, (busy, cycles) in pools.items()}
         for pools in data["cus"]],
    )


def _heap_map(heap):
    return [{"name": buf.name, "offset": buf.offset, "nbytes": buf.nbytes,
             "dtype": np.dtype(buf.dtype).str} for buf in heap]


# -- the checkpoint ----------------------------------------------------------


@dataclass(frozen=True)
class BoardCheckpoint(SerializableMixin):
    """One serializable, digest-verified board state.

    Internally the checkpoint *is* its JSON-ready payload mapping plus
    the SHA-256 digest over its canonical encoding -- which makes
    ``to_dict``/``from_dict`` lossless by construction and lets
    :meth:`verify` detect any corruption before a restore touches a
    board.  Capture with :meth:`capture` (or, normally,
    :meth:`repro.exec.BoardLease.checkpoint`).
    """

    payload: Mapping[str, object]
    digest: str

    # -- construction ------------------------------------------------------

    @staticmethod
    def capture(board) -> "BoardCheckpoint":
        """Snapshot a :class:`~repro.runtime.device.SoftGpu` board.

        Records the board's per-CU instruction cap (part of the board
        content key, so a restore can demand an identically-capped
        board).
        """
        from ..soc.state import board_state

        gpu = board.gpu
        state = board_state(gpu)
        payload = {
            "version": CHECKPOINT_VERSION,
            "arch": board.arch.to_dict(),
            "global_mem_size": gpu.memory.global_mem.size,
            "max_instructions": board.max_instructions,
            "memory": _b64(np.ascontiguousarray(state["memory"]).tobytes()),
            "heap": {
                "cursor": board.heap.used,
                "buffers": _heap_map(board.heap),
            },
            "timing": _timing_to_dict(state["timing"]),
            "now": state["now"],
            "total_instructions": state["total_instructions"],
            "microblaze": {
                "cycles": state["microblaze"]["cycles"],
                "phases": [[name, spent] for name, spent
                           in state["microblaze"]["phases"]],
            },
            "prefetch": {
                "ranges": [[[start, end] for start, end in ranges]
                           for ranges in state["prefetch"]["ranges"]],
            },
            "frame": (None if gpu.paused is None
                      else _frame_to_dict(gpu.paused)),
            "watermark": (0 if gpu.paused is None
                          else gpu.paused.instructions),
        }
        return BoardCheckpoint(payload=payload,
                               digest=_digest_payload(payload))

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        out = dict(self.payload)
        out["digest"] = self.digest
        return out

    @classmethod
    def from_dict(cls, data) -> "BoardCheckpoint":
        data = dict(data)
        digest = data.pop("digest", None)
        if digest is None:
            raise CheckpointError("checkpoint payload has no digest")
        if data.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                "unsupported checkpoint version {!r} (expected {})".format(
                    data.get("version"), CHECKPOINT_VERSION))
        cp = cls(payload=data, digest=digest)
        cp.verify()
        return cp

    def verify(self):
        """Recompute the digest; raises :class:`CheckpointError` on
        mismatch.  Returns self so calls chain."""
        actual = _digest_payload(self.payload)
        if actual != self.digest:
            raise CheckpointError(
                "checkpoint digest mismatch: payload hashes to {}.., "
                "recorded {}..".format(actual[:16], self.digest[:16]))
        return self

    # -- identity ----------------------------------------------------------

    @property
    def arch(self) -> ArchConfig:
        return ArchConfig.from_dict(self.payload["arch"])

    @property
    def global_mem_size(self):
        return self.payload["global_mem_size"]

    @property
    def max_instructions(self):
        return self.payload["max_instructions"]

    @property
    def watermark(self):
        """Instructions retired by the paused launch at capture time."""
        return self.payload["watermark"]

    @property
    def paused(self):
        """Whether the checkpoint carries an in-flight launch frame."""
        return self.payload["frame"] is not None

    def board_key(self):
        """The content key of any board this checkpoint restores onto."""
        from .lease import board_key

        return board_key(self.arch, self.global_mem_size,
                         self.max_instructions)

    # -- restore -----------------------------------------------------------

    def check_heap(self, heap):
        """Raise :class:`CheckpointError` unless ``heap`` -- what a
        resuming workload's host setup just allocated -- has this
        checkpoint's buffers (name, offset, size, dtype), in order."""
        expected = self.payload["heap"]["buffers"]
        actual = _heap_map(heap)
        if actual != expected:
            raise CheckpointError(
                "checkpoint was not taken from this workload: its heap "
                "holds {} but the workload allocated {}".format(
                    expected, actual))

    def apply(self, board):
        """Restore this checkpoint onto a (reset or fresh) board.

        Callers go through :meth:`repro.exec.BoardLease.restore`,
        which also enforces the board-key match; ``apply`` assumes the
        board's physical identity is right and rebuilds everything
        else: memory, heap, prefetch, timing, timeline, and the paused
        launch frame (if any).
        """
        from ..runtime.buffers import Buffer
        from ..soc.state import restore_board_state

        self.verify()
        payload = self.payload
        # Decoded before the board is touched: a frame that fails
        # validation leaves the board as it was.
        frame = (None if payload["frame"] is None
                 else _frame_from_dict(payload["frame"]))
        gpu = board.gpu
        image = np.frombuffer(_unb64(payload["memory"]), dtype=np.uint8)
        if image.size != gpu.memory.global_mem.size:
            raise CheckpointError(
                "memory image is {} bytes; board has {}".format(
                    image.size, gpu.memory.global_mem.size))
        restore_board_state(gpu, {
            "memory": image,
            "timing": _timing_from_dict(payload["timing"]),
            "now": payload["now"],
            "total_instructions": payload["total_instructions"],
            "microblaze": {
                "cycles": payload["microblaze"]["cycles"],
                "phases": [(name, spent) for name, spent
                           in payload["microblaze"]["phases"]],
            },
            "prefetch": {
                "ranges": [[(start, end) for start, end in ranges]
                           for ranges in payload["prefetch"]["ranges"]],
            },
        })
        heap = payload["heap"]
        board.heap.reset()
        for entry in heap["buffers"]:
            board.heap._buffers[entry["name"]] = Buffer(
                name=entry["name"], offset=entry["offset"],
                nbytes=entry["nbytes"], dtype=np.dtype(entry["dtype"]))
        board.heap._cursor = heap["cursor"]
        gpu.paused = frame
        return board


@dataclass(frozen=True)
class PreemptedResult(SerializableMixin):
    """The ``PREEMPTED`` result envelope: progress + checkpoint.

    What a sliced run hands back instead of outputs -- picklable and
    JSON round-trippable, so it can cross the service's process
    boundary and be resubmitted (possibly to a different worker, which
    is what makes preempted jobs migratable).
    """

    checkpoint: BoardCheckpoint
    kernel: str
    instructions: int        # retired so far in the preempted launch
    groups_executed: int
    groups_total: int

    def to_dict(self):
        return {
            "kernel": self.kernel,
            "instructions": self.instructions,
            "groups_executed": self.groups_executed,
            "groups_total": self.groups_total,
            "checkpoint": self.checkpoint.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "PreemptedResult":
        return cls(
            checkpoint=BoardCheckpoint.from_dict(data["checkpoint"]),
            kernel=data["kernel"],
            instructions=data["instructions"],
            groups_executed=data["groups_executed"],
            groups_total=data["groups_total"],
        )
