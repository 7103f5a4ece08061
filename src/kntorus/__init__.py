"""Krichever-Novikov algebra of a complex torus with three symmetric punctures.

Library layout:

* config     -- TorusConfig (lattice, punctures, level-line target)
* elliptic   -- Weierstrass wp, wp' over arrays (a point as a one-entry
                array), half-period values
* basis      -- punctures, the per-point frame (wp - p, w, w'), adapted
                function basis and the lam4..lam7 scalars
* propagation-- propagation differential, residues, string time, moduli
* algebra    -- structure constants and the bracket oracle
* cocycle    -- duality pairing, central-extension cocycle (sum + closed form)
* fock       -- semi-infinite wedge representation grounding the cocycle
* verify     -- deterministic invariant batteries (also behind the CLI)
* cli        -- kntorus command line front end
"""

from .basis import AlgebraParams, WITT_PARAMS, formal_params, lambda_coefficients
from .config import TorusConfig
from .elliptic import HalfPeriodValues, half_period_values, wp_pair
from .errors import (
    BadContourError,
    BisectionError,
    DegenerateModuliError,
    KNTorusError,
    NonIntegerWindingError,
    PoleOnPathError,
    PoleProximityError,
    QuadratureError,
    WindowViolationError,
)

__all__ = [
    "AlgebraParams",
    "BadContourError",
    "BisectionError",
    "DegenerateModuliError",
    "HalfPeriodValues",
    "KNTorusError",
    "NonIntegerWindingError",
    "PoleOnPathError",
    "PoleProximityError",
    "QuadratureError",
    "TorusConfig",
    "WindowViolationError",
    "WITT_PARAMS",
    "formal_params",
    "half_period_values",
    "lambda_coefficients",
    "wp_pair",
]

__version__ = "0.1.0"
