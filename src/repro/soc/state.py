"""Board-state capture and restore: the one snapshot mechanism.

Everything that revives a board goes through this module: the
public checkpoint/restore API
(:class:`repro.exec.checkpoint.BoardCheckpoint`) is its only user.

* :func:`timing_state` / :func:`restore_timing` -- channel occupancy,
  memory counters and functional-unit pool state.
* :func:`board_state` / :func:`restore_board_state` -- the full
  board: global-memory image, prefetch residency, timeline, MicroBlaze
  accounting, on top of the timing state.  What a serializable
  checkpoint is built from.

State structures are plain tuples/dicts of Python scalars plus one
numpy memory image; they hold **live values, not references**, so a
captured state stays valid while the board keeps running.
"""

from __future__ import annotations

from ..cu.timing import POOL_UNITS


def timing_state(gpu):
    """Capture channel/pool occupancy and memory counters of ``gpu``."""
    mem = gpu.memory
    return (
        (mem.relay.busy_until, mem.relay.requests),
        [(port.busy_until, port.requests) for port in mem._prefetch_ports],
        dict(mem.stats),
        [{unit: (list(pool.busy_until), pool.busy_cycles)
          for unit, pool in zip(POOL_UNITS, cu.pools)} for cu in gpu.cus],
    )


def restore_timing(gpu, state):
    """Inverse of :func:`timing_state`."""
    relay_state, port_states, stats, cu_states = state
    mem = gpu.memory
    mem.relay.busy_until, mem.relay.requests = relay_state
    for port, (busy, requests) in zip(mem._prefetch_ports, port_states):
        port.busy_until = busy
        port.requests = requests
    mem.stats.update(stats)
    for cu, pool_states in zip(gpu.cus, cu_states):
        for unit, (busy, cycles) in pool_states.items():
            pool = cu.pool(unit)
            pool.busy_until = list(busy)
            pool.busy_cycles = cycles


def board_state(gpu):
    """Capture everything :func:`restore_board_state` needs to revive
    ``gpu`` on this or any board with the same content key."""
    mem = gpu.memory
    return {
        "memory": mem.global_mem.snapshot(),
        "timing": timing_state(gpu),
        "now": gpu.now,
        "total_instructions": gpu.total_instructions,
        "microblaze": {
            "cycles": gpu.microblaze.cycles,
            "phases": list(gpu.microblaze.phases),
        },
        "prefetch": {
            "ranges": [list(buf.ranges) for buf in mem.prefetch],
        },
    }


def restore_board_state(gpu, state):
    """Inverse of :func:`board_state` (launch history is *not* part of
    the state: a revived board starts with an empty launch log)."""
    mem = gpu.memory
    mem.global_mem.restore(state["memory"])
    restore_timing(gpu, state["timing"])
    gpu.now = state["now"]
    gpu.total_instructions = state["total_instructions"]
    gpu.microblaze.cycles = state["microblaze"]["cycles"]
    gpu.microblaze.phases = list(state["microblaze"]["phases"])
    for buf, ranges in zip(mem.prefetch, state["prefetch"]["ranges"]):
        buf.clear()
        for start, end in ranges:
            if not buf.preload(start, end - start):
                # Content-key equality guarantees identical capacity;
                # a refusal here means the state is inconsistent.
                from ..errors import CheckpointError

                raise CheckpointError(
                    "prefetch range 0x{:x}+{} does not fit the target "
                    "board's buffer".format(start, end - start))
    gpu.launches = []
