"""MIAOW2.0 compute-unit simulator."""

from .lsu import make_buffer_descriptor
from .pipeline import ComputeUnit, CuRunStats
from .vector import VECTOR_OPS, VectorOpSpec, execute_lanewise, lanewise_execution
from .wavefront import Wavefront
from .workgroup import Workgroup

__all__ = [
    "ComputeUnit", "CuRunStats", "Wavefront", "Workgroup",
    "make_buffer_descriptor",
    "VECTOR_OPS", "VectorOpSpec", "execute_lanewise", "lanewise_execution",
]
