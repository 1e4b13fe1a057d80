"""Exact-arithmetic workbench for the generic Clifford algebra of binary
cubic forms: rewriting-based basis and center verification, central
quotients, representation structure, point modules, and discriminant loci.
"""

from .fields import make_field

__all__ = ["make_field"]

__version__ = "0.1.0"
