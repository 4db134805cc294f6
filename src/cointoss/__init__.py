"""Entanglement-based strong coin tossing: exact simulation and cheating analysis.

The package root loads nothing else; import the submodules (``analysis``,
``protocol``, ``qstate``, ``strategies``, ``cli``) directly. It defines the
errors the CLI maps to exit codes, so that the CLI can catch them without
loading the modules that raise them; ``qstate``, ``strategies`` and
``analysis`` export them too.
"""

__version__ = "0.1.0"


class NotNormalizedError(Exception):
    """Squared weights do not sum to 1 within tolerance."""


class UnknownStrategyError(Exception):
    """A strategy identifier does not name any known strategy."""


class StrategyRegisterMismatchError(Exception):
    """A run needs one party's strategy, and the id names the other's."""


class InvariantViolationError(Exception):
    """An internal consistency guarantee failed; results are not trustworthy."""
