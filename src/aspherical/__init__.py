"""Symplectically aspherical abelian groups and Lefschetz fibration
presentations: exact integer linear algebra, group homology via Kunneth,
presentation-level fiber sums, and the classification verdict layer.

The package root exports the five names of the README's Library example;
everything else is imported from its module (`aspherical.zlinalg`, ...)."""

from .abhomology import group_homology
from .asphericity import classify
from .fibersum import witness_presentation
from .zlinalg import FgAbelian, abelianization

__version__ = "0.1.0"

__all__ = ["FgAbelian", "classify", "group_homology", "witness_presentation", "abelianization"]
