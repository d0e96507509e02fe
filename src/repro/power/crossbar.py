"""Crossbar power models (paper Table 3 and Appendix).

Two common implementations are modelled:

* :class:`MatrixCrossbarPower` — a grid of input lines crossing output
  lines with connector (pass) transistors at each crosspoint, gated by
  per-crosspoint control lines driven by the arbiter's grant signals.
* :class:`MuxTreeCrossbarPower` — each output selects its input through a
  tree of 2:1 multiplexers of depth ``ceil(log2 I)``.

Per the Appendix, control lines run in the same direction as input lines,
so their average wire length is ``L_in / 2``; control-line switching energy
(``E_xb_ctr``) is charged to the *arbiter* (grant signals drive the control
lines, so they share switching behaviour).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.power.base import EnergyModel, expected_switches
from repro.tech import sizing


@dataclass(frozen=True)
class MatrixCrossbarPower(EnergyModel):
    """Matrix (crosspoint) crossbar of ``I`` inputs by ``O`` outputs,
    ``W`` bits wide."""

    inputs: int = 5
    outputs: int = 5
    width_bits: int = 32

    input_line_cap: float = field(init=False)
    output_line_cap: float = field(init=False)
    control_line_cap: float = field(init=False)

    def __post_init__(self) -> None:
        if self.inputs < 1 or self.outputs < 1:
            raise ValueError("crossbar needs at least one input and one output")
        if self.width_bits < 1:
            raise ValueError(f"crossbar width must be >= 1, got {self.width_bits}")
        set_ = object.__setattr__
        set_(self, "input_line_cap", self._input_line_cap())
        set_(self, "output_line_cap", self._output_line_cap())
        set_(self, "control_line_cap", self._control_line_cap())

    # --- geometry -------------------------------------------------------------

    @property
    def crosspoint_pitch_um(self) -> float:
        """Per-wire pitch inside the crosspoint array: two wire pitches,
        leaving room for the connector transistor beside each track."""
        return 2.0 * self.tech.wire_spacing_um

    @property
    def input_line_length_um(self) -> float:
        """``L_in``: an input line spans all ``O`` output columns, each
        ``W`` wires wide at the crosspoint pitch."""
        return self.outputs * self.width_bits * self.crosspoint_pitch_um

    @property
    def output_line_length_um(self) -> float:
        """``L_out``: an output line spans all ``I`` input rows."""
        return self.inputs * self.width_bits * self.crosspoint_pitch_um

    # --- capacitances -----------------------------------------------------------

    def _input_line_cap(self) -> float:
        """``C_in = Ca(T_id) + O*Cd(T_x) + Cw(L_in)``.

        Each input data line is loaded by its (load-sized) input driver,
        one connector-transistor drain per output column, and the wire.
        """
        tech = self.tech
        connector_drain = tech.diff_cap(tech.scaled_width("crossbar_pass"))
        wire = tech.wire_cap(self.input_line_length_um, layer="word")
        passive = self.outputs * connector_drain + wire
        driver = sizing.driver_total_cap(tech, passive)
        return driver + passive

    def _output_line_cap(self) -> float:
        """``C_out = Ca(T_od) + I*Cd(T_x) + Cw(L_out)``."""
        tech = self.tech
        connector_drain = tech.diff_cap(tech.scaled_width("crossbar_pass"))
        wire = tech.wire_cap(self.output_line_length_um, layer="word")
        passive = self.inputs * connector_drain + wire
        driver = sizing.driver_total_cap(tech, passive)
        return driver + passive

    def _control_line_cap(self) -> float:
        """``C_xb_ctr = W*Cg(T_x) + Cw(L_in/2)``.

        One control line gates the ``W`` connector transistors of a
        crosspoint; control lines run alongside input lines, average
        length ``L_in / 2``.
        """
        tech = self.tech
        gate = tech.gate_cap(tech.scaled_width("crossbar_pass"), pass_gate=True)
        wire = tech.wire_cap(self.input_line_length_um / 2.0, layer="word")
        return self.width_bits * gate + wire

    # --- energies ----------------------------------------------------------------

    @property
    def input_line_energy(self) -> float:
        """``E_in``: one input data line switching."""
        return self.switch_energy(self.input_line_cap)

    @property
    def output_line_energy(self) -> float:
        """``E_out``: one output data line switching."""
        return self.switch_energy(self.output_line_cap)

    @property
    def control_line_energy(self) -> float:
        """``E_xb_ctr``: one crosspoint control line switching (charged to
        the arbiter per the Appendix)."""
        return self.switch_energy(self.control_line_cap)

    def traversal_energy(self,
                         old_value: Optional[int] = None,
                         new_value: Optional[int] = None) -> float:
        """``E_xb``: one flit crossing the fabric.

        ``delta`` input lines and the corresponding output lines switch,
        where ``delta`` is the Hamming distance between consecutive values
        on the path (or ``W/2`` under the random-data default).
        """
        switching = expected_switches(self.width_bits, old_value, new_value)
        return switching * (self.input_line_energy + self.output_line_energy)

    def describe(self) -> dict:
        """Capacitances and energies for reports and validation."""
        return {
            "inputs": self.inputs,
            "outputs": self.outputs,
            "width_bits": self.width_bits,
            "input_line_length_um": self.input_line_length_um,
            "output_line_length_um": self.output_line_length_um,
            "input_line_cap_f": self.input_line_cap,
            "output_line_cap_f": self.output_line_cap,
            "control_line_cap_f": self.control_line_cap,
            "traversal_energy_j": self.traversal_energy(),
        }


@dataclass(frozen=True)
class MuxTreeCrossbarPower(EnergyModel):
    """Multiplexer-tree crossbar: each output owns a binary tree of 2:1
    muxes over the ``I`` inputs.

    A traversal charges, per switching bit, one mux node per tree level on
    the selected path plus the distribution wiring at each level.
    """

    inputs: int = 5
    outputs: int = 5
    width_bits: int = 32

    path_cap: float = field(init=False)

    def __post_init__(self) -> None:
        if self.inputs < 1 or self.outputs < 1:
            raise ValueError("crossbar needs at least one input and one output")
        if self.width_bits < 1:
            raise ValueError(f"crossbar width must be >= 1, got {self.width_bits}")
        object.__setattr__(self, "path_cap", self._path_cap())

    @property
    def depth(self) -> int:
        """Tree depth ``ceil(log2 I)`` (0 for a single input)."""
        return max(1, math.ceil(math.log2(self.inputs))) if self.inputs > 1 else 0

    @property
    def level_wire_length_um(self) -> float:
        """Average wire run per tree level: the tree spans the input rows,
        halving the span each level; total span across levels is bounded by
        the full input column, so we charge ``L_span / depth`` per level."""
        span = self.inputs * self.width_bits * self.tech.wire_spacing_um
        return span / max(1, self.depth)

    def _path_cap(self) -> float:
        """Capacitance switched per bit per traversal along the mux path."""
        tech = self.tech
        mux_width = tech.scaled_width("crossbar_pass")
        # Each 2:1 mux stage: the driven node sees two pass-transistor
        # drains (this stage) and one gate of the next stage, plus wire.
        per_level = (
            2.0 * tech.diff_cap(mux_width)
            + tech.gate_cap(mux_width, pass_gate=True)
            + tech.wire_cap(self.level_wire_length_um, layer="word")
        )
        cap = self.depth * per_level
        # Output driver sized for the final load.
        return cap + sizing.driver_total_cap(tech, cap)

    @property
    def per_bit_energy(self) -> float:
        """Energy of one bit switching through the tree."""
        return self.switch_energy(self.path_cap)

    def traversal_energy(self,
                         old_value: Optional[int] = None,
                         new_value: Optional[int] = None) -> float:
        """``E_xb`` for one flit traversal through the mux tree."""
        switching = expected_switches(self.width_bits, old_value, new_value)
        return switching * self.per_bit_energy

    @property
    def control_line_energy(self) -> float:
        """Energy of reconfiguring one output's select lines (charged to
        the arbiter, mirroring the matrix model)."""
        tech = self.tech
        mux_width = tech.scaled_width("crossbar_pass")
        # Each select line gates W muxes' pass transistors at one level.
        per_level = self.width_bits * tech.gate_cap(mux_width, pass_gate=True)
        return self.switch_energy(self.depth * per_level)

    def describe(self) -> dict:
        """Capacitances and energies for reports and validation."""
        return {
            "inputs": self.inputs,
            "outputs": self.outputs,
            "width_bits": self.width_bits,
            "depth": self.depth,
            "path_cap_f": self.path_cap,
            "traversal_energy_j": self.traversal_energy(),
        }
