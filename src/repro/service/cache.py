"""Content-addressed cache for the static SCRATCH flow.

The paper's central observation is that the expensive, *application-
aware* work -- binary analysis, architecture trimming, synthesis --
happens once per application and is reused across every subsequent
launch (Algorithm 1; the Section 4.3 reconfiguration study prices
exactly this reuse).  This module makes that reuse explicit: every
static artifact is memoized under a content hash, so repeated
submissions of the same application skip the whole assemble -> trim ->
synthesize pipeline.

Three key spaces:

* **source key** -- SHA-256 of the raw assembly text; memoizes the
  assembler.
* **binary key** -- SHA-256 of the *assembled* kernel (dwords +
  dispatch metadata).  Whitespace or comment edits re-assemble to the
  same dwords and therefore land on the same binary key, so trim plans
  survive cosmetic source changes -- content addressing at the level
  the trimming tool actually consumes.
* **config key** -- SHA-256 of an :class:`ArchConfig`'s semantic
  fields; memoizes synthesis reports and names the warm-board slots of
  the worker pool.

All methods are thread-safe (submissions may arrive from many client
threads).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict

from ..asm.assembler import assemble
from ..core.config import ArchConfig
# The config-key space is owned by the execution layer (it also names
# warm boards there); re-exported here for the service's callers.
from ..exec.lease import config_key  # noqa: F401


def _sha(*chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        digest.update(chunk)
        digest.update(b"\x00")
    return digest.hexdigest()


def source_key(source):
    """Content hash of raw kernel source text."""
    return _sha("src", source)


def binary_key(program):
    """Content hash of an assembled kernel.

    Covers everything execution depends on: the instruction dwords,
    the kernel name, the CB1 argument layout, register counts and LDS
    size.  Deliberately excludes the source text, labels and any
    formatting, so whitespace-only edits map to the same key.

    Delegates to :meth:`Program.content_key` -- the same key space the
    simulator's prepared-program cache is indexed by, so a service
    cache hit and a decode/prepare cache hit are one and the same
    event.
    """
    return program.content_key()


def application_key(programs, baseline, datapath_bits):
    """Content hash of a whole application's static-flow input.

    Order-independent over kernels (Algorithm 1 unions requirements),
    and parameterised by the baseline architecture and datapath width
    the trim is derived against.
    """
    return _sha(
        "app",
        ",".join(sorted(binary_key(p) for p in programs)),
        config_key(baseline),
        str(datapath_bits),
    )




@dataclass
class CacheStats:
    """Hit/miss accounting, per artifact kind and overall."""

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)

    def record(self, kind, hit):
        table = self.hits if hit else self.misses
        table[kind] = table.get(kind, 0) + 1

    @property
    def total_hits(self):
        return sum(self.hits.values())

    @property
    def total_misses(self):
        return sum(self.misses.values())

    @property
    def hit_rate(self):
        total = self.total_hits + self.total_misses
        return self.total_hits / total if total else 0.0

    def to_dict(self):
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "hit_rate": self.hit_rate,
        }


class ArtifactCache:
    """Memoizes the static flow: assembly, trim plans, synthesis."""

    def __init__(self):
        self._lock = threading.Lock()
        self._programs = {}    # source key -> Program
        self._trims = {}       # application key -> TrimResult
        self._reports = {}     # config key -> SynthesisReport
        self.stats = CacheStats()

    # -- assembler ---------------------------------------------------------

    def assemble(self, source):
        """Assemble ``source``, memoized under its content hash."""
        key = source_key(source)
        with self._lock:
            program = self._programs.get(key)
            self.stats.record("assemble", program is not None)
        if program is None:
            program = assemble(source)
            with self._lock:
                self._programs[key] = program
        return program

    # -- trimming tool -----------------------------------------------------

    def trim(self, programs, tool, baseline=None, datapath_bits=32):
        """Run (or reuse) Algorithm 1 for an application's kernels."""
        baseline = baseline or ArchConfig.baseline()
        key = application_key(programs, baseline, datapath_bits)
        with self._lock:
            result = self._trims.get(key)
            self.stats.record("trim", result is not None)
        if result is None:
            result = tool.trim(programs, baseline=baseline,
                               datapath_bits=datapath_bits)
            with self._lock:
                self._trims[key] = result
        return result

    # -- prepared programs ---------------------------------------------------

    def prepared(self, program, timing=None):
        """Decode-and-specialize ``program`` for the compiled launch engines.

        Backed by the simulator's global prepared-program cache (keyed
        by ``binary_key`` x timing parameters), so warming a kernel
        here makes every worker's subsequent launch of the same binary
        skip decode and plan construction entirely.  The per-program
        timing table shares the same key space and is warmed alongside
        (plan construction reads its rows).  Records ``prepare`` and
        ``timing-table`` hits/misses in :attr:`stats`.
        """
        from ..cu.prepared import DEFAULT_TIMING, lookup_prepared
        from ..cu.timing import lookup_timing_table

        timing = timing or DEFAULT_TIMING
        _, table_hit = lookup_timing_table(program, timing)
        prepared, hit = lookup_prepared(program, timing)
        with self._lock:
            self.stats.record("prepare", hit)
            self.stats.record("timing-table", table_hit)
        return prepared

    # -- synthesis ---------------------------------------------------------

    def synthesize(self, config, synthesizer):
        """Synthesise ``config`` (or reuse the memoized report)."""
        key = config_key(config)
        with self._lock:
            report = self._reports.get(key)
            self.stats.record("synth", report is not None)
        if report is None:
            report = synthesizer.synthesize(config)
            with self._lock:
                self._reports[key] = report
        return report

    # -- introspection -----------------------------------------------------

    def __len__(self):
        with self._lock:
            return (len(self._programs) + len(self._trims)
                    + len(self._reports))

    def clear(self):
        with self._lock:
            self._programs.clear()
            self._trims.clear()
            self._reports.clear()
            self.stats = CacheStats()
