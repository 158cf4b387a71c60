"""First-order FPGA area model (Cyclone-class logic elements).

The paper reports only that the system fits "a small scale system intended
for prototyping" (an Altera Cyclone, §IV.B).  This model estimates logic
element (LE) consumption per component with the standard first-order rules
for 4-input-LUT fabrics:

* one LE per register bit,
* one LE per adder/comparator bit (carry chain),
* one LE per 4:1-mux bit / 2 two-input gate bits.

It reproduces the *scaling shape* (linear in cell count and word width,
n−1 tree nodes) that the ablation benchmarks A1/A2 chart; it is not a
synthesis replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import FrameworkConfig
from ..smem.tree import tree_node_count
from ..xisort.cell import INTERVAL_BITS

#: LE capacity of the smallest/largest Cyclone I parts (device handbook [3]).
CYCLONE_EP1C3_LES = 2_910
CYCLONE_EP1C12_LES = 12_060
CYCLONE_EP1C20_LES = 20_060


@dataclass
class AreaEstimate:
    """LE totals with a per-component breakdown."""

    breakdown: dict[str, int] = field(default_factory=dict)

    def add(self, component: str, les: int) -> None:
        self.breakdown[component] = self.breakdown.get(component, 0) + int(les)

    @property
    def total(self) -> int:
        return sum(self.breakdown.values())

    def fits(self, capacity: int = CYCLONE_EP1C12_LES) -> bool:
        return self.total <= capacity

    def merged(self, other: "AreaEstimate") -> "AreaEstimate":
        out = AreaEstimate(dict(self.breakdown))
        for k, v in other.breakdown.items():
            out.add(k, v)
        return out


# -- framework components -----------------------------------------------------------

def area_register_file(config: FrameworkConfig) -> int:
    """Registers + read muxes (3 read ports) + write decode."""
    bits = config.n_regs * config.word_bits
    read_mux = 3 * config.word_bits * (config.n_regs // 4 + 1)
    return bits + read_mux + config.n_regs


def area_flag_file(config: FrameworkConfig) -> int:
    bits = config.n_flag_regs * config.flag_bits
    read_mux = config.flag_bits * (config.n_flag_regs // 4 + 1)
    return bits + read_mux + config.n_flag_regs


def area_lock_manager(config: FrameworkConfig) -> int:
    """One lock bit per register plus set/clear decode."""
    return 2 * (config.n_regs + config.n_flag_regs)


def area_pipeline(config: FrameworkConfig) -> int:
    """Decoder/dispatcher/execution stage registers + control."""
    stage_regs = 3 * (64 + 16)          # held instruction + control vector
    decode_logic = 200                   # opcode/variety lookup cloud
    handshake = 6 * 4                    # per-stage valid/ready logic
    return stage_regs + decode_logic + handshake


def area_write_arbiter(config: FrameworkConfig, n_units: int) -> int:
    grant = 8 * max(1, n_units)
    data_mux = config.word_bits * (n_units // 4 + 1)
    return grant + data_mux


def area_transceiver(config: FrameworkConfig) -> int:
    fifo = 2 * config.transceiver_fifo_depth * 32
    framing = 150
    return fifo + framing


def area_arith_unit(config: FrameworkConfig) -> int:
    """Adder + operand steering + output registers (Table 3.1 datapath)."""
    w = config.word_bits
    adder = w
    steering = 2 * w // 2            # zero/complement muxes
    out_regs = w + 8 + 8             # data, flag, side-band registers
    return adder + steering + out_regs


def area_logic_unit(config: FrameworkConfig) -> int:
    w = config.word_bits
    func = 2 * w                      # Boolean function generators + select
    out_regs = w + 8 + 8
    return func + out_regs


def area_cell(word_bits: int) -> int:
    """One SIMD cell (Fig. 3.12): registers + comparator + bound muxes."""
    regs = word_bits + 2 * INTERVAL_BITS + 2          # data, lo, hi, sel, saved
    comparator = word_bits                             # data vs broadcast
    bound_cmp = 2 * INTERVAL_BITS                      # lo/hi vs broadcast
    muxes = (word_bits + 2 * INTERVAL_BITS) // 2
    return regs + comparator + bound_cmp + muxes


def area_tree(n_cells: int, word_bits: int) -> int:
    """Interior nodes: count adders + leftmost select + OR retrieval."""
    per_node = (n_cells.bit_length()) + word_bits // 2 + INTERVAL_BITS
    return tree_node_count(n_cells) * per_node


def area_xisort_controller(word_bits: int) -> int:
    temps = 4 * word_bits
    alu = word_bits
    rom_decode = 120
    return temps + alu + rom_decode


def area_xisort_unit(n_cells: int, word_bits: int) -> AreaEstimate:
    est = AreaEstimate()
    est.add("xisort.cells", n_cells * area_cell(word_bits))
    est.add("xisort.tree", area_tree(n_cells, word_bits))
    est.add("xisort.controller", area_xisort_controller(word_bits))
    est.add("xisort.adapter", 2 * word_bits + 60)
    return est


def area_framework(config: FrameworkConfig, n_units: int = 2) -> AreaEstimate:
    """The fixed framework (everything except user functional units)."""
    est = AreaEstimate()
    est.add("regfile", area_register_file(config))
    est.add("flagfile", area_flag_file(config))
    est.add("lockmgr", area_lock_manager(config))
    est.add("pipeline", area_pipeline(config))
    est.add("write_arbiter", area_write_arbiter(config, n_units))
    est.add("transceiver", area_transceiver(config))
    return est


def area_case_study_system(
    config: FrameworkConfig, n_cells: int = 0, include_stateless: bool = True
) -> AreaEstimate:
    """Framework + case-study units (+ optional ξ-sort of a given size)."""
    n_units = (2 if include_stateless else 0) + (1 if n_cells else 0)
    est = area_framework(config, n_units=max(1, n_units))
    if include_stateless:
        est.add("arith_unit", area_arith_unit(config))
        est.add("logic_unit", area_logic_unit(config))
    if n_cells:
        est = est.merged(area_xisort_unit(n_cells, min(config.word_bits, 64)))
    return est
