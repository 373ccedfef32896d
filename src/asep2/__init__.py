"""Exact-verification and simulation toolkit for the two-component ASEP.

Modules:

    qring      exact Laurent-polynomial arithmetic and q-combinatorics
    lattice    configurations, sectors, counting functions
    sparse     sparse matrices over the exact or float scalar ring
    generator  the Markov generator in quantum-Hamiltonian form
    qsym       deformed gl(3) ladder/Cartan operators and relation checks
    measures   reversible, canonical, grandcanonical and pure measures
    duality    duality functions, symmetry operator, intertwining checks
    dynamics   uniformized kernels, the one batch sampler, the law of eta_t
    cli        the `asep2` command-line interface
"""

from .generator import ModelParams, Ring
from .lattice import A, B, VACANT, Config, Sector
from .qring import LaurentPoly

__all__ = [
    "A",
    "B",
    "VACANT",
    "Config",
    "LaurentPoly",
    "ModelParams",
    "Ring",
    "Sector",
]

__version__ = "0.1.0"
