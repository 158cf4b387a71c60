"""repro.xisort — the stateful χ-sort case study (paper §IV.B, thesis §3.3).

A smart-memory machine: an array of SIMD cells (datum + index interval +
selection/saved flags) under a logarithmic tree of fold/scan nodes, driven
by a microcode ROM and a two-state controller FSM, wrapped into the
framework by a functional-unit adapter.  Every operation takes a fixed
number of clock cycles regardless of the number of elements.
"""

from ..smem.tree import NodeValue, TreeNetwork, fold_reduce, tree_depth, tree_node_count
from .adapter import XiSortUnit, xisort_factory
from .algorithm import XiSortAccelerator
from .cell import INTERVAL_BITS, SENTINEL, Cell, CellCmd, CellState, cell_step
from .cellarray import StructuralCellArray, VectorCellArray
from .controller import XiSortController
from .core import DirectXiSortMachine, XiSortCore
from .microcode import (
    MICROCODE,
    XI_FIND_PIVOT,
    XI_FIND_PIVOT_AT,
    XI_FLAG_FOUND,
    XI_LOAD,
    XI_READ_AT,
    XI_RESET,
    XI_SPLIT,
    XI_STATUS,
    XI_WRITE_AT,
    XI_RANK,
    XI_COUNT_EQ,
    MicroInstr,
    format_microcode,
    format_microinstr,
    pack_interval,
    program_length,
    unpack_interval,
    write_profile,
)
from .reference import (
    SoftwareXiSort,
    SwCell,
    quickselect_counted,
    quicksort_counted,
)

__all__ = [
    "XiSortUnit",
    "xisort_factory",
    "XiSortAccelerator",
    "INTERVAL_BITS",
    "SENTINEL",
    "Cell",
    "CellCmd",
    "CellState",
    "cell_step",
    "StructuralCellArray",
    "VectorCellArray",
    "XiSortController",
    "DirectXiSortMachine",
    "XiSortCore",
    "MICROCODE",
    "XI_FIND_PIVOT",
    "XI_FIND_PIVOT_AT",
    "XI_FLAG_FOUND",
    "XI_LOAD",
    "XI_READ_AT",
    "XI_RESET",
    "XI_SPLIT",
    "XI_STATUS",
    "XI_WRITE_AT",
    "XI_RANK",
    "XI_COUNT_EQ",
    "MicroInstr",
    "format_microcode",
    "format_microinstr",
    "pack_interval",
    "program_length",
    "unpack_interval",
    "write_profile",
    "SoftwareXiSort",
    "SwCell",
    "quickselect_counted",
    "quicksort_counted",
    "NodeValue",
    "TreeNetwork",
    "fold_reduce",
    "tree_depth",
    "tree_node_count",
]
