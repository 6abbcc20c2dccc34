"""Exact computation of Kazhdan-Lusztig cells for signed permutation groups.

The package models the rank-``n`` hyperoctahedral Coxeter group with an
unequal-parameter weight (``a`` on the swap generators, ``b`` on the sign
change) and provides, with exact integer/Laurent arithmetic throughout:

- :mod:`bncells.group` -- signed permutations, words, length, descents,
  suffixes, the canonical enumeration and its index tables;
- :mod:`bncells.hecke` -- the Iwahori-Hecke algebra, the Kazhdan-Lusztig
  basis, and its left cells (the oracle);
- :mod:`bncells.tableaux` -- the count of standard bitableaux, signed
  Robinson-Schensted insertion as row lists, their text, and the
  recording fibers;
- :mod:`bncells.knuth` -- the classes of the generalized Knuth moves;
- :mod:`bncells.descents` -- the weight-gated generalized descent invariant
  and its fibers;
- :mod:`bncells.area` -- the distinguished two-column region, its explicit
  words, and its cell decompositions;
- :mod:`bncells.vogan` -- cellular self-maps of parabolics, their left
  extensions as index tables, orbit partitions, and the refinement
  fixpoint classes;
- :mod:`bncells.cli` -- the ``bncells`` command-line front door.
"""

from .errors import (
    BnCellsError,
    BudgetError,
    FalsificationError,
    InvalidInputError,
    RankError,
    RegimeError,
)
from .group import SignedPerm, WeightFunction

__all__ = [
    "BnCellsError",
    "BudgetError",
    "FalsificationError",
    "InvalidInputError",
    "RankError",
    "RegimeError",
    "SignedPerm",
    "WeightFunction",
]

__version__ = "0.1.0"
