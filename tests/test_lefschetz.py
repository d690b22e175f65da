import random

import pytest

from oracles import (
    chain_relation,
    determinant,
    invert,
    multiply,
    symplectic_gram,
    transpose,
    word_from_letters,
)
from aspherical import lefschetz
from aspherical.cli import main
from aspherical.fpgroup import FormatError, InvalidGenus, Presentation, surface_group
from aspherical.lefschetz import (
    MonodromyFactorization,
    euler_characteristic,
    homology_trivial,
    monodromy_product,
    parse_factorization,
    total_space_pi1,
    twist_matrix,
)
from aspherical.word import (
    cyclic_reduce,
    exponent_vector,
    parse_word,
    render_word,
)
from aspherical.zlinalg import (
    DimensionMismatch,
    FgAbelian,
    IntMatrix,
    abelianization,
    cokernel,
)


def cycle(genus, text, *, conjugate_by=None):
    p = surface_group(genus)
    w = parse_word(text, p.generators)
    if conjugate_by is not None:
        c = parse_word(conjugate_by, p.generators)
        w = multiply(multiply(c, w), invert(c))
    return cyclic_reduce(w)


def factorization(genus, *signed_texts):
    cycles = tuple(cycle(genus, t) for _, t in signed_texts)
    signs = tuple(s for s, _ in signed_texts)
    return MonodromyFactorization(genus, cycles, signs)


def test_twist_matrix_torus_basics():
    t = twist_matrix((1, 0), 1)  # twist along a1
    assert t.apply([1, 0]) == (1, 0)  # fixes a1
    assert t.apply([0, 1]) == (-1, 1)  # b1 -> b1 - a1


def test_twist_fixes_its_cycle():
    rng = random.Random(501)
    for _ in range(30):
        g = rng.randrange(1, 5)
        coords = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        for sign in (1, -1):
            assert twist_matrix(coords, sign).apply(coords) == coords


def test_twist_inverse_pair():
    c = (2, -1, 0, 3)
    assert twist_matrix(c, 1).mul(twist_matrix(c, -1)) == IntMatrix.identity(4)


def test_twist_matrices_are_symplectic():
    rng = random.Random(502)
    checked = 0
    for g in range(1, 5):
        j = symplectic_gram(g)
        basis = [tuple(1 if i == k else 0 for i in range(2 * g)) for k in range(2 * g)]
        randoms = [tuple(rng.randint(-4, 4) for _ in range(2 * g)) for _ in range(25)]
        for c in basis + randoms:
            for sign in (1, -1):
                t = twist_matrix(c, sign)
                assert transpose(t).mul(j).mul(t) == j
                assert determinant(t) == 1
                checked += 1
    assert checked >= 100


def test_monodromy_product_empty():
    m = MonodromyFactorization(2, (), ())
    assert monodromy_product(m) == IntMatrix.identity(4)
    assert homology_trivial(m)


def test_monodromy_product_single_twist():
    m = factorization(1, (1, "a1"))
    assert monodromy_product(m) == twist_matrix((1, 0), 1)


def test_monodromy_ab_pair_has_order_six():
    pair = [(1, "a1"), (1, "b1")]
    m = factorization(1, *pair)
    p = monodromy_product(m)
    power = IntMatrix.identity(2)
    orders = []
    for k in range(1, 7):
        power = p.mul(power)
        if power == IntMatrix.identity(2):
            orders.append(k)
    assert orders == [6]
    assert homology_trivial(factorization(1, *(pair * 6)))


def test_monodromy_product_matches_dense_twist_fold():
    rng = random.Random(505)
    for g in range(1, 5):
        p = surface_group(g)
        for _ in range(12):
            cycles, signs = [], []
            for _ in range(rng.randrange(12)):
                letters = [
                    (rng.randrange(2 * g), rng.choice((1, -1))) for _ in range(rng.randrange(1, 7))
                ]
                cycles.append(cyclic_reduce(word_from_letters(p.generators, letters)))
                signs.append(rng.choice((1, -1)))
            if rng.random() < 0.5:  # undo every twist, last first: trivial
                cycles += reversed(cycles)
                signs += [-s for s in reversed(signs)]
            m = MonodromyFactorization(g, tuple(cycles), tuple(signs))
            dense = IntMatrix.identity(2 * g)
            for c, s in zip(cycles, signs):
                dense = twist_matrix(exponent_vector(c), s).mul(dense)
            assert monodromy_product(m) == dense
            trivial = dense == IntMatrix.identity(2 * g)
            assert homology_trivial(m) == trivial
            assert ("caveat" not in total_space_pi1(m, homology_trivial(m)).label) == trivial


def test_monodromy_order_convention():
    # leftmost twist acts first: product for (a1,+),(b1,+) is T_b1 * T_a1
    m = factorization(1, (1, "a1"), (1, "b1"))
    ta = twist_matrix((1, 0), 1)
    tb = twist_matrix((0, 1), 1)
    assert monodromy_product(m) == tb.mul(ta)


def test_homology_trivial_cancelling_pair():
    assert homology_trivial(factorization(1, (1, "a1"), (-1, "a1")))
    assert not homology_trivial(factorization(1, (1, "a1")))


def test_homology_trivial_conjugation_invariant():
    # conjugating cycle words leaves exponent sums, hence all twist
    # matrices, unchanged
    rng = random.Random(503)
    base = [(1, "a1 b2"), (-1, "a2"), (1, "b1 a1")]
    m = factorization(2, *base)
    p = surface_group(2)
    ks = [rng.randrange(1, 3) for _ in base]
    conj = tuple(
        cyclic_reduce(parse_word(f"(a1 b1)^{k} ({t}) (a1 b1)^-{k}", p.generators))
        for k, (_, t) in zip(ks, base)
    )
    # rebuild with the same homology classes
    for c, original in zip(conj, m.cycles):
        assert exponent_vector(c) == exponent_vector(original)
    m2 = MonodromyFactorization(2, conj, m.signs)
    assert monodromy_product(m2) == monodromy_product(m)


def test_total_space_pi1_kill_everything():
    m = factorization(2, (1, "a1"), (1, "b1"), (1, "a2"), (1, "b2"))
    p = total_space_pi1(m, homology_trivial(m))
    assert abelianization(p) == FgAbelian(0)


def test_total_space_pi1_partial_kill():
    m = factorization(2, (1, "a1"), (1, "b1"))
    assert abelianization(total_space_pi1(m, homology_trivial(m))) == FgAbelian(2)


def test_total_space_pi1_no_cycles():
    m = MonodromyFactorization(3, (), ())
    p = total_space_pi1(m, homology_trivial(m))
    assert p.generators == surface_group(3).generators
    assert p.relators == surface_group(3).relators
    assert abelianization(p) == FgAbelian(6)
    assert "caveat" not in (p.label or "")


def test_total_space_pi1_caveat_label():
    m = factorization(1, (1, "a1"))
    assert not homology_trivial(m)
    p = total_space_pi1(m, homology_trivial(m))
    assert "caveat" in p.label


def test_total_space_abelianization_matches_cycle_lattice():
    rng = random.Random(504)
    for _ in range(20):
        g = rng.randrange(1, 4)
        p = surface_group(g)
        cycles = []
        for _ in range(rng.randrange(4)):
            letters = [
                (rng.randrange(2 * g), rng.choice((1, -1))) for _ in range(rng.randrange(1, 6))
            ]
            w = word_from_letters(p.generators, letters)
            cycles.append(cyclic_reduce(w))
        m = MonodromyFactorization(g, tuple(cycles), (1,) * len(cycles))
        rows = [[0] * (2 * g)]  # the surface relator abelianizes to zero
        rows += [list(exponent_vector(c)) for c in cycles]
        expected = cokernel(IntMatrix.from_rows(rows, cols=2 * g))
        assert abelianization(total_space_pi1(m, homology_trivial(m))) == expected


def test_vanishing_cycle_reduces_and_records_homology():
    m, _ = parse_factorization("fibration x\nfiber_genus 2\ncycle + b1^-1 (a1 a2) b1\n")
    assert m.cycles == (parse_word("a1 a2", surface_group(2).generators),)
    assert exponent_vector(m.cycles[0]) == (1, 0, 1, 0)


def test_factorization_validation():
    p1 = surface_group(1)
    c = parse_word("a1", p1.generators)
    with pytest.raises(ValueError):
        MonodromyFactorization(1, (c,), ())
    with pytest.raises(ValueError):
        MonodromyFactorization(1, (c,), (2,))
    with pytest.raises(ValueError):
        MonodromyFactorization(2, (c,), (1,))
    with pytest.raises(DimensionMismatch):
        twist_matrix((1, 0, 0), 1)
    with pytest.raises(ValueError):
        twist_matrix((1, 0), 2)


def test_euler_characteristic():
    assert euler_characteristic(MonodromyFactorization(1, (), ())) == 0
    assert euler_characteristic(MonodromyFactorization(2, (), ())) == -4
    twelve = factorization(1, *([(1, "a1"), (1, "b1")] * 6))
    assert euler_characteristic(twelve) == 12
    # additivity in the cycle count when concatenating factorizations
    m1 = factorization(1, (1, "a1"))
    m2 = factorization(1, (1, "b1"), (-1, "a1"))
    joined = MonodromyFactorization(1, m1.cycles + m2.cycles, m1.signs + m2.signs)
    base = euler_characteristic(MonodromyFactorization(1, (), ()))
    assert euler_characteristic(joined) - base == (
        euler_characteristic(m1) - base
    ) + (euler_characteristic(m2) - base)


FILE_TEXT = """fibration torus_ab
fiber_genus 1
cycle + a1
cycle + b1
"""


def test_parse_factorization():
    m, label = parse_factorization(FILE_TEXT)
    assert label == "torus_ab"
    assert m.fiber_genus == 1
    assert [render_word(c) for c in m.cycles] == ["a1", "b1"]
    assert m.signs == (1, 1)


def test_parse_factorization_negative_sign():
    m, _ = parse_factorization("fibration x\nfiber_genus 2\ncycle - a1 b2^-1\n")
    assert m.signs == (-1,)
    assert m.cycles[0] == parse_word("a1 b2^-1", surface_group(2).generators)


# Every FormatError of a fibration file, with its exact message.
_FACTORIZATION_ERRORS = {
    "fiber_genus 1\n": "line 1: fiber_genus before fibration",
    "fibration x\n": "missing fibration/fiber_genus lines",
    "fibration x\nfiber_genus -1\n": "line 2: negative genus",
    "fibration x\nfiber_genus q\n": "line 2: bad genus 'q'",
    "fibration x\nfiber_genus 1\ncycle * a1\n": "line 3: expected + or -, found '*'",
    "fibration x\nfiber_genus 1\ncycle + zz\n": "line 3: unknown generator 'zz'",
    "fibration x\ncycle + a1\nfiber_genus 1\n": "line 2: cycle before fiber_genus",
    "fibration x\nfiber_genus 1\nnonsense\n": "line 3: unknown directive 'nonsense'",
    "fibration x\nfibration y\nfiber_genus 1\n": "line 2: repeated fibration line",
    "fibration x\nfiber_genus 1\nfiber_genus 1\n": "line 3: repeated fiber_genus line",
    "fibration x\nfiber_genus 513\n": "line 2: fiber_genus 513 exceeds the limit of 512",
    "fibration x\nfiber_genus 1\ncycle +\ta1\n": "line 3: expected + or -, found '+\\ta1'",
    "fibration x\nfiber_genus 1\ncycle + a1^\n": (
        "line 3: at position 3: expected number, found 'end of input'"
    ),
    "\n\tfiber_genus 1\nfibration x\n": "line 2: fiber_genus before fibration",
}


@pytest.mark.parametrize("text", list(_FACTORIZATION_ERRORS))
def test_parse_factorization_errors(text):
    with pytest.raises(FormatError) as exc:
        parse_factorization(text)
    assert str(exc.value) == _FACTORIZATION_ERRORS[text]


def test_fibration_builds_no_throwaway_presentation_and_pairs_each_cycle_once(
    monkeypatch, capsys, tmp_path
):
    with pytest.raises(InvalidGenus, match="negative genus"):
        MonodromyFactorization(-1, (), ())
    text = chain_relation(6)
    m, _ = parse_factorization(text)
    distinct = len({id(c) for c in m.cycles})
    assert (len(m.cycles), distinct) == (182, 13)

    counts = {"Presentation": 0, "_pairing_row": 0}
    init, pairing_row = Presentation.__init__, lefschetz._pairing_row

    def counting_init(self, *args, **kwargs):
        counts["Presentation"] += 1
        init(self, *args, **kwargs)

    def counting_pairing_row(c):
        counts["_pairing_row"] += 1
        return pairing_row(c)

    monkeypatch.setattr(Presentation, "__init__", counting_init)
    monkeypatch.setattr(lefschetz, "_pairing_row", counting_pairing_row)
    MonodromyFactorization(m.fiber_genus, m.cycles, m.signs)
    assert counts == {"Presentation": 0, "_pairing_row": 0}
    assert homology_trivial(m)
    assert counts == {"Presentation": 0, "_pairing_row": distinct}

    # The command: the surface presentation and its quotient, one
    # monodromy fold.
    counts.update(Presentation=0, _pairing_row=0)
    fib = tmp_path / "chain6.txt"
    fib.write_text(text)
    assert main(["fibration", str(fib)]) == 0
    assert "homology_trivial: true" in capsys.readouterr().out
    assert counts == {"Presentation": 2, "_pairing_row": distinct}
