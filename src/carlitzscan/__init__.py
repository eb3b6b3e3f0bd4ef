"""Exact verification of Carlitz-type congruences for alternating binomial sums.

The headline family: for an odd prime p and a >= 1,

    sum_{k=0}^{p-1} (-1)^((a-1)k) C(p-1, k)^a
        == 2^(a(p-1)) + a(a-1)(3a-4)/48 * p^3 * B_(p-3)   (mod p^4),

together with its relatives (the central binomial coefficient mod p^3
and p^4, the mod-p^3 power sum statement, the u-sums with two binomial
factors, exact alternating identities) and the half-range and
parity-restricted harmonic sums the proofs run on.

Everything is integer arithmetic: a check compares two canonical
residues and reports equality, never "close enough".
"""

from . import bernoulli, congruences, context, harmonic, residues
from .bernoulli import *  # noqa: F401,F403
from .congruences import *  # noqa: F401,F403
from .context import *  # noqa: F401,F403
from .harmonic import *  # noqa: F401,F403
from .residues import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ declares its public names once
__all__ = [
    "__version__",
    *bernoulli.__all__,
    *congruences.__all__,
    *context.__all__,
    *harmonic.__all__,
    *residues.__all__,
]
