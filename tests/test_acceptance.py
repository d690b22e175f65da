"""Acceptance suite: one test per criterion, each printing a pass/fail
line (visible with `pytest -s`), with the stated time budget enforced."""

import random
import time

from oracles import (
    determinant,
    epi_exists_oracle,
    oracle_group_homology,
    reference_direct_sum,
    symplectic_gram,
    torsion_chains,
    transpose,
    word_from_letters,
)
from aspherical.abhomology import group_homology
from aspherical.asphericity import classify, hopf_obstruction_dim4, realizable_dimensions
from aspherical.fibersum import (
    NotAspherical,
    fiber_sum_with_trivial_bundle,
    witness_presentation,
)
from aspherical.fpgroup import Presentation, surface_group
from aspherical.lefschetz import (
    MonodromyFactorization,
    homology_trivial,
    monodromy_product,
    total_space_pi1,
    twist_matrix,
)
from aspherical.word import cyclic_reduce, parse_word
from aspherical.zlinalg import (
    FgAbelian,
    IntMatrix,
    abelianization,
    cokernel,
    exists_epimorphism,
    smith_normal_form,
)


def _run_criterion(n, budget_seconds, description, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {n}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_seconds
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}  {description} ({elapsed:.2f}s)")
    assert ok, f"criterion {n} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"


def G(rank, *torsion):
    return FgAbelian(rank, torsion)


def test_criterion_1_classification_table():
    def body():
        aspherical = [G(2), G(4), G(5), G(4, 2), G(6, 3, 6)]
        not_aspherical = [G(0), G(1), G(0, 5), G(2, 2), G(3), G(3, 7)]
        for gamma in aspherical:
            assert classify(gamma).aspherical is True, gamma
        for gamma in not_aspherical:
            assert classify(gamma).aspherical is False, gamma

    _run_criterion(1, 1.0, "classification table", body)


def test_criterion_2_hopf_obstruction_reproduction():
    def body():
        gamma = G(4, 2)
        h3 = group_homology(gamma, 3)
        assert h3 == FgAbelian(4, (2,) * 7)
        assert h3.contains_summand(G(4, 2))
        assert h3 == oracle_group_homology([0, 0, 0, 0, 2], 3)
        assert exists_epimorphism(FgAbelian(4), h3) is False
        assert hopf_obstruction_dim4(gamma) is True

    _run_criterion(2, 1.0, "degree-3 homology and pi_2 obstruction for Z^4 + Z/2", body)


def test_criterion_3_realizable_dimensions():
    def body():
        for m in range(4, 9):
            for torsion in ((), (2,)):
                expected = frozenset(2 * n for n in range(2, m // 2 + 1))
                assert realizable_dimensions(FgAbelian(m, torsion)) == expected, (m, torsion)

    _run_criterion(3, 1.0, "realizable even dimensions for rank 4..8", body)


def test_criterion_4_fiber_sum_abelianizations():
    def body():
        rng = random.Random(20260809)
        for _ in range(20):
            genus = rng.randrange(1, 4)
            p = surface_group(genus)
            extras = []
            for _ in range(rng.randrange(5)):
                letters = [
                    (rng.randrange(2 * genus), rng.choice((1, -1)))
                    for _ in range(rng.randrange(1, 9))
                ]
                extras.append(cyclic_reduce(word_from_letters(p.generators, letters)))
            x = Presentation(p.generators, p.relators + tuple(extras))
            base = abelianization(x)
            for e in (1, 2):
                total = fiber_sum_with_trivial_bundle(x, e)
                assert abelianization(total) == reference_direct_sum(base, FgAbelian(2 * e))

    _run_criterion(4, 5.0, "fiber sum abelianizations ab(x) + Z^{2e}", body)


def test_criterion_5_smith_normal_form_properties():
    def body():
        rng = random.Random(20260810)
        for _ in range(500):
            rows = rng.randrange(7)
            cols = rng.randrange(7)
            a = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            snf = smith_normal_form(a)
            assert snf.u.mul(a).mul(snf.v) == snf.d
            assert abs(determinant(snf.u)) == 1
            assert abs(determinant(snf.v)) == 1
            diag = snf.diagonal
            for i, d in enumerate(diag):
                assert d >= 0
                if i:
                    assert d % diag[i - 1] == 0 if diag[i - 1] else d == 0
            base = cokernel(a)
            shuffled_rows = a.to_rows()
            rng.shuffle(shuffled_rows)
            perm = list(range(cols))
            rng.shuffle(perm)
            permuted = IntMatrix.from_rows(
                [[row[j] for j in perm] for row in shuffled_rows], cols=cols
            )
            assert cokernel(permuted) == base

    _run_criterion(5, 10.0, "Smith decomposition and cokernel invariance, 500 matrices", body)


def test_criterion_6_epimorphism_criterion_vs_enumeration():
    def body():
        groups = [
            FgAbelian(rank, chain)
            for chain in torsion_chains(64)
            for rank in range(3)
        ]
        assert len(groups) > 300
        checked = 0
        for a in groups:
            for b in groups:
                assert exists_epimorphism(a, b) == epi_exists_oracle(a, b), (a, b)
                checked += 1
        assert checked == len(groups) ** 2

    _run_criterion(
        6, 60.0, "epimorphism criterion vs exhaustive enumeration (order <= 64)", body
    )


def test_criterion_7_lefschetz_quotients_and_twists():
    def body():
        pi2 = surface_group(2)
        kill_all = MonodromyFactorization(
            2,
            tuple(parse_word(t, pi2.generators) for t in ("a1", "b1", "a2", "b2")),
            (1, 1, 1, 1),
        )
        assert abelianization(total_space_pi1(kill_all, homology_trivial(kill_all))) == FgAbelian(0)
        for h in (1, 2, 3):
            empty = MonodromyFactorization(h, (), ())
            assert abelianization(total_space_pi1(empty, homology_trivial(empty))) == FgAbelian(2 * h)
        rng = random.Random(20260811)
        for _ in range(100):
            g = rng.randrange(1, 5)
            j = symplectic_gram(g)
            c = tuple(rng.randint(-4, 4) for _ in range(2 * g))
            t = twist_matrix(c, rng.choice((1, -1)))
            assert transpose(t).mul(j).mul(t) == j
            assert determinant(t) == 1
        pi1 = surface_group(1)
        pair = [parse_word("a1", pi1.generators), parse_word("b1", pi1.generators)]
        sixth = MonodromyFactorization(1, tuple(pair * 6), (1,) * 12)
        assert monodromy_product(sixth) == IntMatrix.identity(2)
        assert homology_trivial(sixth)

    _run_criterion(7, 5.0, "total space quotients and Picard-Lefschetz matrices", body)


def test_criterion_8_witness_pipeline():
    def body():
        torsions = ((), (2,), (2, 4), (6,))
        for m in range(4, 7):
            for torsion in torsions:
                gamma = FgAbelian(m, torsion)
                assert abelianization(witness_presentation(gamma)) == gamma
        for m in range(7):
            for torsion in torsions:
                gamma = FgAbelian(m, torsion)
                in_theorem = gamma == FgAbelian(2) or m >= 4
                try:
                    witness_presentation(gamma)
                    produced = True
                except NotAspherical:
                    produced = False
                assert produced == in_theorem, gamma

    _run_criterion(8, 10.0, "witness presentations abelianize back; complement rejected", body)
