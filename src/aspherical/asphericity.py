"""Classification of symplectically aspherical abelian groups.

A finitely generated abelian group is symplectically aspherical exactly
when it is Z^2 or has free rank at least 4.  Rank 3 fails because the
real cohomological dimension is 3 (an aspherical symplectic class would
square to zero, forcing a surface, killing H^3); rank 2 with torsion
fails because only the torus survives in dimension 2; finite groups and
Z are ruled out by external input.  On top of the verdict this module
reports the realizable manifold dimensions and whether dimension-4
realizations are forced to have nonzero pi_2 (the Hopf-sequence
comparison of H_3 of the manifold against H_3 of the group).

That comparison needs no homology groups, only two counts.  Z^m maps
onto a group exactly when the group needs at most m generators, its free
rank plus its number of invariant factors (the free-source rule of
`zlinalg.exists_epimorphism`).  For H_3 of Z^m plus t invariant factors
these are C(m, 3) and c_3, read off the Poincare series of the group's
homology over F_p (`abhomology.invariant_factor_counts`).
"""

from __future__ import annotations

import enum
import math

from .abhomology import invariant_factor_counts
from .word import _Value
from .zlinalg import FgAbelian


class Reason(enum.Enum):
    IS_Z2 = "IsZ2"
    RANK_AT_LEAST_4 = "RankAtLeast4"
    RANK_ZERO_OR_ONE = "RankZeroOrOne"
    RANK_TWO_WITH_TORSION = "RankTwoWithTorsion"
    RANK_THREE = "RankThree"


# Each verdict's citations and, for a rejecting one, what a refused witness
# says; a verdict with no phrase is aspherical.
VERDICTS: dict[Reason, tuple[tuple[str, ...], str | None]] = {
    Reason.IS_Z2: (("Theorem 1.2",), None),
    Reason.RANK_AT_LEAST_4: (("Theorem 1.2", "Corollary 5.2"), None),
    Reason.RANK_ZERO_OR_ONE: (("[IKRT] (external input)",), "free rank 0 or 1"),
    Reason.RANK_TWO_WITH_TORSION: (("Theorem 1.2",), "free rank 2 with torsion"),
    Reason.RANK_THREE: (("Example 1.3",), "free rank 3"),
}

CLASS_NOTE_Z2 = "A\\B"
CLASS_NOTE_Z4_Z2 = "B\\A"

COVERING_NOTE_Z4 = (
    "Corollary 5.4: a two-sheeted cover of a manifold realizing Z^4 + Z/2 "
    "is symplectically aspherical with fundamental group Z^4 and pi_2 != 0."
)


class AsphericityVerdict(_Value):
    __slots__ = ("reason", "realizable_dims", "pi2_forced_nonzero_in_dim4", "class_note")

    def __init__(self, reason: Reason, realizable_dims: frozenset[int],
                 pi2_forced_nonzero_in_dim4: bool, class_note: str | None):
        if bool(realizable_dims) != (VERDICTS[reason][1] is None):
            raise ValueError("realizable dimensions must be nonempty exactly when aspherical")
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "realizable_dims", realizable_dims)
        object.__setattr__(self, "pi2_forced_nonzero_in_dim4", pi2_forced_nonzero_in_dim4)
        object.__setattr__(self, "class_note", class_note)

    @property
    def aspherical(self) -> bool:
        return VERDICTS[self.reason][1] is None


def realizable_dimensions(gamma: FgAbelian) -> frozenset[int]:
    """{2} for Z^2; all even 2n with 4 <= 2n <= rank for rank >= 4; else empty."""
    reason = classify_reason(gamma)
    if reason is Reason.RANK_AT_LEAST_4:
        return frozenset(range(4, gamma.free_rank + 1, 2))
    return frozenset({2} if reason is Reason.IS_Z2 else ())


def hopf_obstruction_dim4(gamma: FgAbelian) -> bool:
    """Whether a closed 4-manifold with this fundamental group and pi_2 = 0
    is impossible.

    With pi_2 = 0 the Hopf sequence forces H_3 of the manifold, which is
    Z^rank by duality and universal coefficients, onto H_3 of the group;
    the obstruction fires when no such epimorphism exists, that is when
    H_3 needs more than rank generators.

    >>> [hopf_obstruction_dim4(FgAbelian(m)) for m in (4, 5, 2)]
    [False, True, False]
    >>> hopf_obstruction_dim4(FgAbelian(4, (2,)))
    True
    """
    m = gamma.free_rank
    return m < math.comb(m, 3) + invariant_factor_counts(m, len(gamma.torsion), 3)[3]


def covering_note(gamma: FgAbelian) -> str | None:
    """The double-cover remark attached to Z^4 reports; pure reporting."""
    if gamma.free_rank == 4 and not gamma.torsion:
        return COVERING_NOTE_Z4
    return None


def classify_reason(gamma: FgAbelian) -> Reason:
    """The classification's verdict alone.  The real cohomological
    dimension of an abelian group is its free rank (real cohomology is the
    exterior algebra on the free part), so the rank-3 obstruction reads it off."""
    rcd = gamma.free_rank
    if rcd == 2 and not gamma.torsion:
        return Reason.IS_Z2
    if rcd >= 4:
        return Reason.RANK_AT_LEAST_4
    if rcd == 3:
        return Reason.RANK_THREE
    if rcd == 2:
        return Reason.RANK_TWO_WITH_TORSION
    return Reason.RANK_ZERO_OR_ONE


def classify(gamma: FgAbelian) -> AsphericityVerdict:
    """The verdict of `classify_reason` with what is reported alongside it."""
    reason = classify_reason(gamma)
    if reason is Reason.IS_Z2:
        class_note = CLASS_NOTE_Z2
    elif gamma.free_rank == 4 and gamma.torsion == (2,):
        class_note = CLASS_NOTE_Z4_Z2
    else:
        class_note = None
    pi2 = VERDICTS[reason][1] is None and hopf_obstruction_dim4(gamma)
    return AsphericityVerdict(reason, realizable_dimensions(gamma), pi2, class_note)
