"""Repeated relators are shared objects, built and validated once.

A fibration's chain relation repeats every vanishing cycle 2g+2 times.
Parsing keeps one `Word` per distinct `rel` or `cycle` line, the
sharing survives `cyclic_reduce`, the quotient and the fiber sum, and
rendering and abelianizing visit each object once.  These tests check
that the shared path gives what the unshared one did, and that
generator commutators laid out letter by letter equal the folded ones.
"""

import hashlib
import json
import random
import time

import pytest

from oracles import (
    chain_relation,
    generator_word,
    reference_cokernel,
    reference_commutator,
    word_from_letters,
)
from aspherical import lefschetz
from aspherical.cli import main
from aspherical.fibersum import (
    SurfaceFiberedPresentation,
    fiber_sum_with_trivial_bundle,
    witness_presentation,
)
from aspherical.fpgroup import (
    FormatError,
    Presentation,
    abelian_presentation,
    parse_presentation,
    render_presentation,
    surface_group,
)
from aspherical.lefschetz import (
    MonodromyFactorization,
    homology_trivial,
    monodromy_product,
    parse_factorization,
    total_space_pi1,
    twist_matrix,
)
from aspherical.word import (
    Generator,
    cyclic_reduce,
    exponent_vector,
    parse_word,
    render_word,
)
from aspherical.zlinalg import FgAbelian, IntMatrix, abelianization, relator_matrix


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _distinct(words) -> int:
    return len({id(w) for w in words})


def test_repeated_rel_lines_parse_to_shared_objects_and_render_each_relator():
    text = (
        "group shared\n"
        "gens a b c\n"
        "rel a b a^-1 b^-1\n"
        "rel c^2\n"
        "rel b a c a^-1 b^-1\n"  # cyclically reduces to c
        "rel a b a^-1 b^-1\n"
        "rel c^2\n"
        "rel  a b a^-1 b^-1 \n"  # the same text once stripped
        "rel a*b a^-1 b^-1\n"  # another text for an equal word
        "rel b a c a^-1 b^-1\n"
    )
    p = parse_presentation(text)
    r = p.relators
    assert r[0] is r[3] is r[5]
    assert r[1] is r[4]
    assert r[2] is r[7]
    assert r[6] == r[0] and r[6] is not r[0]
    assert render_word(r[2]) == "c"
    assert _distinct(r) == 4
    lines = render_presentation(p).splitlines()
    assert lines[:2] == ["group shared", "gens a b c"]
    assert lines[2:] == [f"rel {render_word(w)}" for w in r]


def test_abelianization_with_duplicated_relators_matches_the_dense_reference():
    rng = random.Random(7101)
    for _ in range(60):
        n = rng.randrange(1, 7)
        gens = tuple(Generator(f"g{i + 1}") for i in range(n))
        distinct = []
        for _ in range(rng.randrange(1, 6)):
            letters = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(8))]
            distinct.append(cyclic_reduce(word_from_letters(gens, letters)))
        relators = [rng.choice(distinct) for _ in range(rng.randrange(1, 15))]
        relators += [word_from_letters(gens, w.letters) for w in relators[:2]]  # equal, not shared
        rng.shuffle(relators)
        p = Presentation(gens, tuple(relators))
        expected = reference_cokernel(relator_matrix(p))
        assert abelianization(p) == expected
        again = parse_presentation(render_presentation(p))
        assert _distinct(again.relators) <= _distinct(relators)
        assert abelianization(again) == expected


def test_a_repeated_bad_line_reports_its_first_line():
    gens = tuple(Generator(x) for x in "ab")
    with pytest.raises(ValueError) as direct:
        parse_word("a q", gens)
    text = "group x\ngens a b\nrel a b\nrel a q\nrel a b\nrel a q\n"
    with pytest.raises(FormatError) as exc:
        parse_presentation(text)
    assert str(exc.value) == f"line 4: {direct.value}"

    fiber = surface_group(1).generators
    with pytest.raises(ValueError) as direct:
        parse_word("a1 (b1", fiber)
    text = "fibration x\nfiber_genus 1\ncycle + a1\ncycle + a1 (b1\ncycle + a1 (b1\n"
    with pytest.raises(FormatError) as exc:
        parse_factorization(text)
    assert str(exc.value) == f"line 4: {direct.value}"


def test_cyclic_reduce_returns_a_reduced_word_itself():
    gens = surface_group(2).generators
    w = parse_word("a1 b1 a2", gens)
    assert cyclic_reduce(w) is w
    u = parse_word("b2 a1 b1 b2^-1", gens)
    assert cyclic_reduce(u) == parse_word("a1 b1", gens)


@pytest.mark.parametrize("g", range(1, 7))
def test_chain_relation_cycles_stay_shared_through_the_constructions(g):
    text = chain_relation(g)
    lines = {line for line in text.splitlines() if line.startswith("cycle")}
    assert len(lines) == (2 * g + 1 if g > 1 else 2)  # genus 1: b1, a1, b1
    m, _ = parse_factorization(text)
    assert len(m.cycles) == (2 * g + 1) * (2 * g + 2)
    assert _distinct(m.cycles) == len(lines)
    fiber = m.cycles[0].alphabet
    assert all(c.alphabet is fiber for c in m.cycles)
    pi1 = total_space_pi1(m, homology_trivial(m))
    assert pi1.generators is fiber
    assert _distinct(pi1.relators) == len(lines) + 1
    total = fiber_sum_with_trivial_bundle(SurfaceFiberedPresentation(g, pi1), 2)
    extra = total.relators[2 + 8 * g :]
    assert len(extra) == len(m.cycles)
    assert _distinct(extra) == len(lines)
    assert [w.letters for w in extra] == [c.letters for c in m.cycles]


@pytest.mark.parametrize("g", range(1, 7))
def test_chain_relation_monodromy_equals_the_dense_twist_fold(g):
    # Proper prefixes of the relation fold to nontrivial matrices.
    m, _ = parse_factorization(chain_relation(g))
    dense = IntMatrix.identity(2 * g)
    for k, (c, s) in enumerate(zip(m.cycles, m.signs), start=1):
        dense = twist_matrix(exponent_vector(c), s).mul(dense)
        if k in (1, 2 * g, 2 * g + 3, len(m.cycles) - 1):
            prefix = MonodromyFactorization(g, m.cycles[:k], m.signs[:k])
            assert monodromy_product(prefix) == dense != IntMatrix.identity(2 * g)
    assert monodromy_product(m) == dense == IntMatrix.identity(2 * g)


def test_a_fibration_command_folds_its_monodromy_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return monodromy_product(m)

    monkeypatch.setattr(lefschetz, "monodromy_product", counting)
    files = (
        ("chain.txt", chain_relation(3), True),
        ("one.txt", "fibration twist\nfiber_genus 1\ncycle + a1\n", False),
    )
    for name, text, trivial in files:
        (tmp_path / name).write_text(text)
        calls.clear()
        code, out = run(capsys, "fibration", str(tmp_path / name))
        assert code == 0
        assert len(calls) == 1
        assert f"homology_trivial: {'true' if trivial else 'false'}\n" in out
        assert ("caveat" in out) != trivial


def test_laid_out_commutators_equal_commutator_of_generator_words():
    for f, e in ((1, 1), (2, 3), (4, 2)):
        pi_f = surface_group(f)
        total = fiber_sum_with_trivial_bundle(SurfaceFiberedPresentation(f, pi_f), e)
        gens = total.generators
        mixed = [
            reference_commutator(generator_word(gens, u), generator_word(gens, k))
            for j in range(e)
            for i in range(f)
            for u in (2 * f + 2 * j, 2 * f + 2 * j + 1)
            for k in (2 * i, 2 * i + 1)
        ]
        assert list(total.relators[2 : 2 + 4 * e * f]) == mixed

    for gamma in (FgAbelian(4), FgAbelian(6, (3, 6)), FgAbelian(9, (2,))):
        p = witness_presentation(gamma)
        r = gamma.free_rank - 2 + len(gamma.torsion)
        h = 2 * r
        g = h + 1
        start = 2 + 4 * g + h + (h - r) + 2
        pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        gens = p.generators
        assert list(p.relators[start : start + len(pairs)]) == [
            reference_commutator(generator_word(gens, 2 * i), generator_word(gens, 2 * j))
            for i, j in pairs
        ]
        assert p.label == f"witness {gamma.render()}"

    q = abelian_presentation(FgAbelian(3, (2, 4)))
    n = len(q.generators)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert list(q.relators[: len(pairs)]) == [
        reference_commutator(generator_word(q.generators, i), generator_word(q.generators, j))
        for i, j in pairs
    ]


# SHA-256 of the stdout of `fibersum -e 4` on the pi1 presentation that
# `fibration` prints for the genus-40 chain relation (6642 cycles, 81
# distinct), as text and as JSON, recorded from the implementation that
# parsed, rendered and abelianized every repeated relator again.
_GENUS_40_TEXT = "9307af776a8856a2b32658a126ad0558d1d53cd96549129eca82f1cbd7f1dbbd"
_GENUS_40_JSON = "9b9a651e1da5c5eb6ca1a177031dd96e869a784ebb49e6ad75a8d4a0ece8723d"


def test_fibersum_of_a_genus_40_chain_relation_in_bounded_time(capsys, tmp_path):
    # 0.13-0.17 s when every repeat was parsed, rendered and abelianized.
    fib = tmp_path / "fib40.txt"
    fib.write_text(chain_relation(40))
    _, out = run(capsys, "--format", "json", "fibration", str(fib))
    pi1 = tmp_path / "pi1_40.txt"
    pi1.write_text(json.loads(out)["pi1_presentation"])
    for fmt, digest in (("text", _GENUS_40_TEXT), ("json", _GENUS_40_JSON)):
        code, out = run(capsys, "--format", fmt, "fibersum", str(pi1), "-e", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
    times = []
    for _ in range(3):
        start = time.perf_counter()
        code, out = run(capsys, "fibersum", str(pi1), "-e", "4")
        times.append(time.perf_counter() - start)
    assert code == 0
    assert "abelianization_check: PASS" in out
    assert min(times) < 0.08
