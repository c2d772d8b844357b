"""The six architecture labels resolve to one architecture everywhere.

The static flow (``ScratchFlow.arch``), service admission and
``repro profile --config`` must agree, label by label, on the
architecture an application runs on.
"""

import pytest

from repro.cli import build_parser
from repro.core.config import ARCH_LABELS
from repro.core.flow import ScratchFlow
from repro.exec.lease import config_key
from repro.kernels import KERNELS
from repro.obs.profiler import profile_kernel
from repro.service import Job, KernelService

BENCHMARK = "matrix_add_i32"


@pytest.fixture(scope="module")
def service():
    with KernelService(workers=1, mode="inline") as svc:
        yield svc


@pytest.mark.parametrize("label", ARCH_LABELS)
def test_label_resolves_alike(label, service):
    flow_key = config_key(ScratchFlow(KERNELS[BENCHMARK]()).arch(label))
    _, _, admitted_key = service._resolve(Job(BENCHMARK, config=label))
    args = build_parser().parse_args(
        ["profile", BENCHMARK, "--config", label, "--no-verify",
         "--max-groups", "1"])
    profiled = profile_kernel(args.benchmark, config=args.config,
                              max_groups=args.max_groups,
                              verify=not args.no_verify)
    assert admitted_key == flow_key
    assert config_key(profiled.result.arch) == flow_key
