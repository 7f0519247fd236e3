"""carentropy: finite CAR lattice algebras and von Neumann entropy inequalities.

The package realizes the fermionic lattice algebra on n ordered sites as a
concrete matrix algebra, represents states of its region subalgebras with a
fixed normalization convention, and provides:

* entropy, restriction (conditional expectation), fidelity, relative
  entropy, oddness quantifier, random and product states;
* Schmidt decomposition, pure extensions, and the parity-matched symmetric
  purification that exists for every even state;
* strong subadditivity / triangle / monotonicity-form entropy gaps with
  verdict classification;
* the explicit noneven joint extension whose product with an even third
  state breaks the triangle and monotonicity-form inequalities by ln 2
  while strong subadditivity keeps holding;
* a CLI (``carentropy``) for verification campaigns and reports.

The package re-exports the ``__all__`` of each module but ``cli`` and ``tolerances``.
"""

from . import car_algebra, counterexamples, errors, inequalities, operators, purification, states
from .car_algebra import *
from .counterexamples import *
from .errors import *
from .inequalities import *
from .operators import *
from .purification import *
from .states import *

__version__ = "0.1.0"

_MODULES = (car_algebra, counterexamples, errors, inequalities, operators, purification, states)
__all__ = [name for module in _MODULES for name in module.__all__]
