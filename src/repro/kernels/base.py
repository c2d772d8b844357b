"""Benchmark base class and assembly helpers.

Every evaluated application (Section 4's 17 benchmarks, plus the 25
APP-SDK-style characterisation kernels of Figure 4) is a
:class:`Benchmark`: it assembles one or more Southern Islands kernels,
prepares device buffers, runs the launch-and-host-phase choreography a
MicroBlaze host template would run, and verifies the output against a
NumPy reference -- the paper's own validation procedure ("the output
of all applications were compared and validated with the corresponding
standard implementations", Section 4).
"""

from __future__ import annotations

import functools
import numbers
from typing import Dict, List

import numpy as np

from ..asm.assembler import assemble
from ..errors import SimulationError

#: Common kernel prologue: load the flat 1-D global work-item id into
#: ``v3`` (group_id.x * local_size.x + local_id.x).  Kernels append
#: their argument loads to the same lgkmcnt wait.
PROLOGUE_GID_X = """
  s_buffer_load_dword s19, s[8:11], 3     ; local_size.x
"""

GID_X = """
  s_mul_i32 s1, s16, s19                  ; group_id.x * local_size.x
  v_add_i32 v3, vcc, s1, v0               ; v3 = flat global id
"""


@functools.lru_cache(maxsize=None)
def _assemble_cached(source):
    return assemble(source)


def build(source):
    """Assemble (with caching -- kernels are reused across configs)."""
    return _assemble_cached(source)


def _type_error(default, value):
    """Why ``value`` cannot stand in for a parameter whose default is
    ``default``, or None when it can.

    The default's type is the parameter's type: an ``int`` takes any
    integral number but never a ``bool``, a ``float`` any real number
    (bools excluded), a tuple a list or tuple whose items take the
    default's first item's type, and a ``None`` default anything.  A
    parameter (or tuple item) of integer type is never negative: every
    one is a size, a count or a seed.
    """
    if default is None:
        return None
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, numbers.Integral):
        ok = (isinstance(value, numbers.Integral)
              and not isinstance(value, bool))
        if ok and value < 0:
            return "must be non-negative, got {!r}".format(value)
    elif isinstance(default, numbers.Real):
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    elif isinstance(default, (tuple, list)):
        ok = isinstance(value, (tuple, list))
        if ok and default:
            for item in value:
                reason = _type_error(default[0], item)
                if reason is not None:
                    return "items " + reason
    else:
        ok = isinstance(value, type(default))
    if ok:
        return None
    return "must be {}, got {} {!r}".format(
        type(default).__name__, type(value).__name__, value)


class Benchmark:
    """One benchmark application.

    Subclasses define ``name``, ``uses_float`` and the four hooks
    (``programs``, ``prepare``, ``execute``, ``reference``); parameters
    arrive via the constructor and are stored on the instance.
    """

    #: Unique benchmark identifier, e.g. ``"matrix_add_i32"``.
    name = None
    #: Whether any kernel of the application uses the SIMF.
    uses_float = False
    #: Preferred datapath width (the INT8 NIN variant narrows this).
    datapath_bits = 32
    #: Default parameters, overridden by constructor kwargs.
    defaults: Dict[str, object] = {}
    #: ``(rtol, atol)`` for float outputs in :meth:`verify`; integer
    #: outputs always match exactly.
    tolerance = (2e-4, 1e-5)

    def __init__(self, **params):
        merged = dict(self.defaults)
        unknown = set(params) - set(merged)
        if unknown:
            raise SimulationError(
                "{}: unknown parameters {}".format(self.name, sorted(unknown)))
        for key in sorted(params):
            reason = _type_error(merged[key], params[key])
            if reason is not None:
                raise SimulationError("{}: parameter {!r} {}".format(
                    self.name, key, reason))
        merged.update(params)
        self.params = merged
        for key, value in merged.items():
            setattr(self, key, value)

    # -- hooks ---------------------------------------------------------------

    def programs(self) -> List:
        """The application's assembled kernels (used by the trimmer)."""
        raise NotImplementedError

    def prepare(self, device) -> dict:
        """Allocate and populate device buffers; returns a context."""
        raise NotImplementedError

    def execute(self, device, ctx):
        """Run the launch/host-phase choreography."""
        raise NotImplementedError

    def reference(self, ctx) -> Dict[str, np.ndarray]:
        """Expected outputs, keyed by buffer name."""
        raise NotImplementedError

    # -- drivers ---------------------------------------------------------------

    def run_on(self, device, verify=True, resume=None):
        """prepare -> preload -> execute (-> verify); returns the context.
        ``resume()``, when given, stands in for preload + execute."""
        ctx = self.prepare(device)
        if resume is not None:
            resume()
        else:
            device.preload_all()
            self.execute(device, ctx)
        if verify:
            self.verify(device, ctx)
        return ctx

    def verify(self, device, ctx):
        """Compare device outputs with the NumPy reference.

        Computes :meth:`reference` once and returns its dict, so callers
        that also digest the outputs (``BenchmarkWorkload``) name them
        from it instead of computing the reference again.  Integer
        outputs must match exactly; float outputs within
        :attr:`tolerance`.
        """
        rtol, atol = self.tolerance
        expected_outputs = self.reference(ctx)
        for name, expected in expected_outputs.items():
            actual = device.read(ctx[name], dtype=expected.dtype,
                                 count=expected.size)
            actual = actual.reshape(expected.shape)
            if np.issubdtype(expected.dtype, np.floating):
                bad = np.flatnonzero(
                    ~np.isclose(actual, expected, rtol=rtol, atol=atol))
            else:
                bad = np.flatnonzero(actual.ravel() != expected.ravel())
            if bad.size:
                raise SimulationError(
                    "{}: output {!r} mismatches reference at {} positions "
                    "(first: index {}, got {}, want {})".format(
                        self.name, name, bad.size, bad[:1],
                        actual.ravel()[bad[:1]], expected.ravel()[bad[:1]]))
        return expected_outputs

    def describe(self):
        return "{}({})".format(
            self.name,
            ", ".join("{}={}".format(k, v) for k, v in sorted(self.params.items())))
