"""SoC substrate: clocks, dispatcher, MicroBlaze host, full GPU system."""

from .clocks import DUAL_DOMAIN, SINGLE_DOMAIN, ClockDomains
from .dispatcher import (
    CB0_GLOBAL_SIZE,
    CB0_LOCAL_SIZE,
    CB0_NUM_GROUPS,
    Dispatcher,
    LaunchGeometry,
)
from .gpu import CB0_BASE, CB1_BASE, CB1_SIZE, HEAP_BASE, Gpu, LaunchResult
from .microblaze import MicroBlaze

__all__ = [
    "ClockDomains", "SINGLE_DOMAIN", "DUAL_DOMAIN",
    "Dispatcher", "LaunchGeometry",
    "CB0_GLOBAL_SIZE", "CB0_LOCAL_SIZE", "CB0_NUM_GROUPS",
    "Gpu", "LaunchResult", "CB0_BASE", "CB1_BASE", "CB1_SIZE", "HEAP_BASE",
    "MicroBlaze",
]
