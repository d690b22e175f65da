"""Presentation-level fiber sums and the aspherical witness pipeline.

A fibered total space is carried around as a surface-fibered
`Presentation`: the genus-f fiber's surface generators, the surface
relator first, then extra relators.  Summing with a trivial bundle
Sigma_e x F adjoins base generators x_j, y_j, the base surface relator
and mixed commutators, realizing pi_1(X) x pi_e at the presentation
level.
"""

from __future__ import annotations

from .asphericity import VERDICTS, Reason, classify_reason
from .fpgroup import (
    GroupHom,
    InvalidGenus,
    Presentation,
    abelian_presentation,
    compose,
    pinch_presentation_map,
    surface_generators,
    surface_relator,
)
from .limits import _MAX_BASE_GENUS, _MAX_GENUS_PRODUCT, _MAX_PARSED_LETTERS, _MAX_WITNESS_GENERATORS
from .word import Word
from .zlinalg import FgAbelian


class NotSurfaceFibered(ValueError):
    pass


class RankTooSmall(ValueError):
    pass


class NotAspherical(ValueError):
    """A witness was asked for a group the classification rejects for `reason`."""

    def __init__(self, reason: Reason):
        super().__init__(f"not symplectically aspherical: {VERDICTS[reason][1]}")
        self.reason = reason


def fiber_sum_with_trivial_bundle(p: Presentation, e: int) -> Presentation:
    """Presentation, unlabelled, of the fiber sum of p with Sigma_e x F.

    p must be surface-fibered over the fiber genus f = len(p.generators)
    // 2: its generators are a_1,b_1,...,a_f,b_f in order and its first
    relator is their surface relator; the rest are the extra relators
    cutting the total space's fundamental group out of pi_f.  Otherwise
    NotSurfaceFibered is raised, before the base genus e is checked.

    Generators: the fiber's a_i, b_i followed by base generators
    x_1,y_1,...,x_e,y_e.  Relators: both surface relators, the mixed
    commutators [x_j,a_i], [x_j,b_i], [y_j,a_i], [y_j,b_i], then the
    extra relators of p; a relator of p that repeats as one object stays
    one object.  The abelianization is always ab(p) + Z^{2e}.
    """
    f = len(p.generators) // 2
    if p.generators != surface_generators(f):
        raise NotSurfaceFibered(
            f"generators must be exactly those of the genus-{f} surface group, in order"
        )
    if not p.relators or p.relators[0] != surface_relator(p.generators):
        raise NotSurfaceFibered("first relator must be the surface relator")
    if e < 1:
        raise InvalidGenus(f"base genus must be at least 1, got {e}")
    if e > _MAX_BASE_GENUS:
        raise ValueError(f"base genus {e} exceeds the limit of {_MAX_BASE_GENUS}")
    if e * f > _MAX_GENUS_PRODUCT:
        raise ValueError(
            f"base genus {e} times fiber genus {f} exceeds the limit of {_MAX_GENUS_PRODUCT}"
        )
    gens = p.generators + surface_generators(e, "xy")
    fiber_relators = {id(w): w for w in p.relators}
    rebound = {k: Word(gens, w.syllables) for k, w in fiber_relators.items()}
    first, *extra = [rebound[id(r)] for r in p.relators]
    return Presentation(gens, _fiber_sum_relators(gens, f, e, first, extra))


def _fiber_sum_relators(
    gens: tuple[str, ...], f: int, e: int, fiber_relator: Word, extra: list[Word]
) -> tuple[Word, ...]:
    """The fiber sum's relators over `gens`, a genus-f fiber's generators
    then genus-e base generators: the fiber's surface relator, the base's,
    the mixed commutators [u, g] for base generator u and fiber generator
    g (by base pair j, fiber pair i, u, then g), then the extra relators."""
    relators = [fiber_relator, surface_relator(gens, 2 * f)]
    for j in range(e):
        for i in range(f):
            for u in (2 * f + 2 * j, 2 * f + 2 * j + 1):
                for g in (2 * i, 2 * i + 1):
                    relators.append(Word(gens, ((u, 1), (g, 1), (u, -1), (g, -1))))
    relators += extra
    return tuple(relators)


def presentation_chain_for(gamma: FgAbelian) -> tuple[GroupHom, int]:
    """The construction chain onto an abelian group of free rank >= 2.

    With r the generator count of gamma's presentation and h = 2r: pinch
    a genus-(h+1) surface onto pi_h * pi_1, send a_1..a_r of the first
    factor over gamma's generators (killing the other surface
    generators), and send the torus factor isomorphically onto gamma's
    last two free generators.  Returns the composite pi_g -> gamma's
    presentation together with g; its abelianized matrix is surjective.
    """
    m = gamma.free_rank
    if m < 2:
        raise RankTooSmall(f"need free rank at least 2, got {m}")
    target = abelian_presentation(gamma)
    r = len(target.generators)
    h = 2 * r
    pinch = pinch_presentation_map(h, 1)
    middle = pinch.target
    trivial = Word(target.generators, ())

    def tgt(i: int) -> Word:
        return Word(target.generators, ((i, 1),))

    collapse: list[Word] = []
    for i in range(h):
        collapse.append(tgt(i) if i < r else trivial)  # a_{i+1}
        collapse.append(trivial)  # b_{i+1}
    collapse.append(tgt(m - 2))  # torus factor onto the last two
    collapse.append(tgt(m - 1))  # free generators of gamma
    phi = GroupHom(middle, target, tuple(collapse))
    return compose(pinch, phi), h + 1


def witness_presentation(gamma: FgAbelian) -> Presentation:
    """A presentation abelianizing to gamma, built the way the existence
    direction of the classification does it.

    Z^2 gets the torus group.  Rank m >= 4 splits as A + Z^2 with
    A = Z^{m-2} + torsion: normal generators of the kernel of the chain
    for A (`presentation_chain_for`), written on its genus-g source, give
    a fibered presentation whose quotient is exactly A, and the
    trivial-bundle fiber sum with base genus 1 adjoins the Z^2 factor.
    The relators are those of that fibered presentation summed by
    `fiber_sum_with_trivial_bundle`, each written once, directly over the
    final generators a_1,...,b_g, x_1, y_1.  Everything else is rejected.
    """
    reason = classify_reason(gamma)
    if VERDICTS[reason][1] is not None:
        raise NotAspherical(reason)
    label = f"witness {gamma.render()}"
    if reason is Reason.IS_Z2:
        gens = surface_generators(1)
        return Presentation(gens, (surface_relator(gens),), label=label)
    m, torsion = gamma.free_rank, gamma.torsion
    if m + len(torsion) > _MAX_WITNESS_GENERATORS:
        raise ValueError(
            f"free rank plus torsion factors is {m + len(torsion)}, over the "
            f"witness limit of {_MAX_WITNESS_GENERATORS}"
        )
    if sum(torsion) > _MAX_PARSED_LETTERS:
        raise ValueError(
            f"torsion relators would take {sum(torsion)} letters, over the "
            f"witness limit of {_MAX_PARSED_LETTERS}"
        )

    m_prime = m - 2  # A = Z^{m'} + torsion
    r = m_prime + len(torsion)
    h = 2 * r
    g = h + 1
    gens = surface_generators(g) + surface_generators(1, "xy")

    # Normal generators of the chain's kernel: the killed generators, the
    # identification of the torus pair a_g, b_g with the two surface
    # generators hitting the same free generators of A, commutators making
    # the survivors commute, and the torsion powers.
    relators: list[Word] = []
    for i in range(h):
        relators.append(Word(gens, ((2 * i + 1, 1),)))  # b_{i+1}
    for j in range(r, h):
        relators.append(Word(gens, ((2 * j, 1),)))  # a_{j+1} beyond the generator range
    relators.append(Word(gens, ((2 * h, 1), (2 * (m_prime - 2), -1))))
    relators.append(Word(gens, ((2 * h + 1, 1), (2 * (m_prime - 1), -1))))
    for i in range(r):
        for j in range(i + 1, r):
            relators.append(Word(gens, ((2 * i, 1), (2 * j, 1), (2 * i, -1), (2 * j, -1))))
    for t, dt in enumerate(torsion):
        relators.append(Word(gens, ((2 * (m_prime + t), dt),)))

    fiber_relator = surface_relator(gens, 0, 2 * g)
    return Presentation(gens, _fiber_sum_relators(gens, g, 1, fiber_relator, relators), label=label)
