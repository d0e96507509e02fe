"""Shared machinery for the architectural power models.

Every component power model in this package follows the paper's recipe:

1. describe the component's canonical circuit structure in terms of
   *architectural* parameters (buffer depth, flit width, port counts) and
   *technological* parameters (cell geometry, transistor sizes);
2. derive parameterised switch-capacitance equations for each circuit node
   (wordlines, bitlines, crossbar input/output/control lines, ...);
3. combine the capacitances with switching-activity counts — either the
   default random-data expectation or exact counts observed during
   simulation — into per-operation energies.

Dynamic power then follows as ``P = E * f_clk`` with
``E = 1/2 * alpha * C * Vdd^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tech.technology import Technology

# Expected fraction of lines that switch per operation under random data:
# each line toggles with probability 1/2.
RANDOM_SWITCHING_FACTOR = 0.5


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two non-negative integers."""
    if a < 0 or b < 0:
        raise ValueError("hamming_distance operands must be non-negative")
    return (a ^ b).bit_count()


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount operand must be non-negative")
    return value.bit_count()


@dataclass(frozen=True)
class EnergyModel:
    """Base class binding a component model to a :class:`Technology`."""

    tech: Technology

    def switch_energy(self, cap: float) -> float:
        """Energy (J) of one full switching event on a node of cap ``cap``."""
        return self.tech.switch_energy(cap)


def expected_switches(width_bits: int,
                      old_value: Optional[int],
                      new_value: Optional[int]) -> float:
    """How many of ``width_bits`` lines switch for a data transfer.

    With both values supplied, returns the exact Hamming distance (the
    simulator's tracked switching activity).  With either missing, returns
    the random-data expectation ``width / 2``.
    """
    if width_bits < 0:
        raise ValueError(f"width must be non-negative, got {width_bits}")
    if old_value is None or new_value is None:
        return RANDOM_SWITCHING_FACTOR * width_bits
    return float(hamming_distance(old_value, new_value))
