from .cones import ConeDims
from .ipm import conelp
from .program import (
    Builder,
    ConicProgram,
    ConicSolution,
    SolverError,
    set_program_dump,
    solve,
    solve_or_raise,
)

__all__ = [
    "Builder",
    "ConeDims",
    "ConicProgram",
    "ConicSolution",
    "SolverError",
    "conelp",
    "set_program_dump",
    "solve",
    "solve_or_raise",
]
