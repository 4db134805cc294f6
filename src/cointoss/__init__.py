"""Entanglement-based strong coin tossing: exact simulation and cheating analysis.

The package root loads no other module of the package; import the
submodules (``analysis``, ``forms``, ``protocol``, ``qstate``,
``random_bob``, ``strategies``, ``cli``) directly. It defines the two
errors the CLI maps to their own exit codes (a bad configuration is a
``ValueError``), and the two constants every report ends with, so
that the CLI can catch and print them without loading the modules that
raise or use them; a module that raises one imports it from here. It also
holds Alice's honest and optimal weights, which both ``forms`` and
``strategies`` read, so that neither module loads the other.
"""

import math

__version__ = "0.1.0"

# Both parties are bounded by 3/4; the reference constant is the analytic
# floor on the bias of any protocol of this kind, shown for comparison only.
ANALYTIC_BOUND = 0.75
KITAEV_REFERENCE = 1.0 / math.sqrt(2.0) - 0.5

# Alice's weights (a00, a01, a10, a11) on her four aligned branches: the
# honest preparation, and the optimum that wins with 3/4.
HONEST_WEIGHTS = (0.5, 0.5, 0.5, 0.5)
OPTIMAL_WEIGHTS = (math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0), 0.0)


class UnknownStrategyError(Exception):
    """A strategy identifier does not name any known strategy."""


class InvariantViolationError(Exception):
    """An internal consistency guarantee failed; results are not trustworthy."""
