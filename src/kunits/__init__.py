"""k-units modulo n.

A unit a of Z_n is a k-unit when a^k = 1.  This package computes the
k-unit census (du, pdu, rdu) in closed form from the cyclic decomposition
of U(Z_n), solves rdu_k(n) = 1 completely for any fixed k, classifies
integers as Carmichael / i-Knodel / generalized-Carmichael numbers, and
cross-checks OEIS b-files; its tests verify every closed form against the
brute-force oracles of ``tests/oracles.py``.

The public names are those each layer lists in its own ``__all__``.
"""

from . import arith, bfile, classify, solver, unitgroup
from .errors import CapabilityError, DomainError

__version__ = "0.1.0"

# Read before the star imports: ``from .classify import *`` rebinds
# ``kunits.classify`` from the module to the function.
__all__ = [
    "__version__",
    "DomainError",
    "CapabilityError",
    *arith.__all__,
    *unitgroup.__all__,
    *solver.__all__,
    *classify.__all__,
    *bfile.__all__,
]

from .arith import *  # noqa: E402,F403
from .bfile import *  # noqa: E402,F403
from .classify import *  # noqa: E402,F403
from .solver import *  # noqa: E402,F403
from .unitgroup import *  # noqa: E402,F403
