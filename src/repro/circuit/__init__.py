"""``repro.circuit`` — netlist substrate.

Design containers (:class:`~repro.circuit.design.Design`), Bookshelf
benchmark I/O compatible with the ISPD 2011 / DAC 2012 contest files, and
the synthetic superblue-like benchmark generator used when the real contest
data is unavailable.
"""

from .design import Design, DesignStats, validate_design
from .bookshelf import BookshelfError, read_aux, read_design, write_design
from .generator import DesignSpec, generate_design, superblue_suite, SUPERBLUE_IDS

__all__ = [
    "Design", "DesignStats", "validate_design",
    "BookshelfError", "read_aux", "read_design", "write_design",
    "DesignSpec", "generate_design", "superblue_suite", "SUPERBLUE_IDS",
]
