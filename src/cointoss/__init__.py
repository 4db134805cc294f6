"""Entanglement-based strong coin tossing: exact simulation and cheating analysis.

The package root loads nothing else; import the submodules (``analysis``,
``protocol``, ``qstate``, ``strategies``, ``cli``) directly.
"""

__version__ = "0.1.0"
