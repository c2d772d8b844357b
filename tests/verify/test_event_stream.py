"""One event stream: observed, the issue loop emits exactly the spec
loop's events, on every corpus case and on suite kernels with barriers
and LDS; unobserved, it dispatches none."""

import contextlib
import glob
import os

import pytest

from repro.core.config import ArchConfig
from repro.kernels import KERNELS
from repro.runtime.device import SoftGpu
from repro.verify.fuzz import parse_corpus_text
from repro.verify.oracles import EventRecorder, run_case
from repro.verify.spec import spec_execution

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

#: Suite kernels and small sizes: ``histogram`` (LDS atomics between
#: barriers) and ``nin_i32`` (an LDS reduction behind an s_barrier).
SUITE = {"histogram": {"n": 512}, "nin_i32": {"n": 8}}


def _loop(spec):
    return spec_execution() if spec else contextlib.nullcontext()


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(CORPUS, "*.s"))),
    ids=lambda p: os.path.basename(p))
def test_corpus_streams_equal(path):
    with open(path) as handle:
        case = parse_corpus_text(handle.read())
    arch = ArchConfig.baseline()
    with spec_execution():
        spec = run_case(case, arch, label="spec")
    issue = run_case(case, arch, label="issue")
    assert spec.events
    assert issue.events == spec.events


def _suite_run(name, observed, spec=False):
    device = SoftGpu(ArchConfig.baseline())
    recorder = device.attach(EventRecorder()) if observed else None
    with _loop(spec):
        KERNELS[name](**SUITE[name]).run_on(device, verify=True)
    return device, recorder


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_streams_equal(name):
    _, spec = _suite_run(name, observed=True, spec=True)
    _, issue = _suite_run(name, observed=True)
    kinds = {event[0] for event in spec.events}
    assert {"InstructionIssue", "Stall", "MemAccess", "WavefrontStep",
            "Span"} <= kinds
    names = {event[5] for event in spec.events
             if event[0] == "InstructionIssue"}
    assert "s_barrier" in names and any(n.startswith("ds_") for n in names)
    assert issue.events == spec.events


@pytest.mark.parametrize("name", sorted(SUITE))
def test_unobserved_run_dispatches_nothing(name):
    device, _ = _suite_run(name, observed=False)
    assert device.gpu.hub.dispatched == 0
