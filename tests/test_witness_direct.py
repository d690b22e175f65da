"""The witness is written once over its final alphabet.

`witness_presentation` writes every relator directly over a_1..b_g,
x_1, y_1 and builds one `Presentation`.  It must equal the two-stage
construction it replaced (`reference_witness_presentation`: the fibered
presentation on the fiber alphabet, then the fiber sum with a genus-1
trivial bundle), and it must build exactly one `Word` per relator.  The
fiber sum re-binds each distinct relator object of its input once.
"""

import json
import random

import pytest

from oracles import chain_relation, reference_witness_presentation
from aspherical import fibersum
from aspherical.cli import main
from aspherical.fibersum import NotAspherical, witness_presentation
from aspherical.fpgroup import Presentation, parse_presentation
from aspherical.word import Word
from aspherical.zlinalg import FgAbelian


def _small_chain(rng: random.Random, length: int) -> tuple[int, ...]:
    chain: list[int] = []
    d = rng.choice((2, 3, 4, 5, 6))
    for _ in range(length):
        chain.append(d)
        d *= rng.choice((1, 2, 3))
    return tuple(chain)


def _assert_same_presentation(p: Presentation, q: Presentation) -> None:
    assert p.label == q.label
    assert p.generators == q.generators
    assert len(p.relators) == len(q.relators)
    for mine, theirs in zip(p.relators, q.relators):
        assert mine.alphabet == theirs.alphabet
        assert mine.letters == theirs.letters
    assert p == q


@pytest.mark.parametrize("m", [2, *range(4, 15)])
def test_witness_equals_the_two_stage_construction(m):
    rng = random.Random(9100 + m)
    for length in range(4):
        gamma = FgAbelian(m, _small_chain(rng, length))
        if m == 2 and length:
            with pytest.raises(NotAspherical):
                witness_presentation(gamma)
            with pytest.raises(NotAspherical):
                reference_witness_presentation(gamma)
            continue
        expected = reference_witness_presentation(gamma)
        _assert_same_presentation(witness_presentation(gamma), expected)


def test_largest_witness_rung_equals_the_two_stage_construction():
    gamma = FgAbelian(30, (2, 4))
    p = witness_presentation(gamma)
    _assert_same_presentation(p, reference_witness_presentation(gamma))
    assert len(p.relators) == 775
    assert all(r.alphabet is p.generators for r in p.relators)


@pytest.fixture
def constructions(monkeypatch):
    counts = {"Word": 0, "Presentation": 0}
    for cls in (Word, Presentation):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_witness_command_builds_one_word_per_relator_and_one_presentation(
    capsys, constructions
):
    assert main(["witness", "Z^30+Z/2+Z/4"]) == 0
    out = capsys.readouterr().out
    assert "abelianization_check: PASS" in out
    assert out.count("\nrel ") == 775
    assert constructions == {"Word": 775, "Presentation": 1}


def test_fibersum_rewraps_each_distinct_relator_once(capsys, tmp_path, monkeypatch, constructions):
    g, e = 6, 1
    fib = tmp_path / "chain6.txt"
    fib.write_text(chain_relation(g))
    assert main(["--format", "json", "fibration", str(fib)]) == 0
    text = json.loads(capsys.readouterr().out)["pi1_presentation"]
    distinct = len({id(r) for r in parse_presentation(text).relators})
    pi1 = tmp_path / "pi1_6.txt"
    pi1.write_text(text)

    inside = {}
    fiber_sum = fibersum.fiber_sum_with_trivial_bundle

    def counted(*args):
        before = dict(constructions)
        result = fiber_sum(*args)
        inside.update({k: constructions[k] - before[k] for k in constructions})
        return result

    monkeypatch.setattr(fibersum, "fiber_sum_with_trivial_bundle", counted)
    assert main(["fibersum", str(pi1), "-e", str(e)]) == 0
    assert "abelianization_check: PASS" in capsys.readouterr().out
    # The fiber surface relator the surface check compares with, one
    # re-bound word per distinct input relator, the base surface relator
    # and the 4 e g mixed commutators.
    assert inside == {"Word": 1 + distinct + 1 + 4 * e * g, "Presentation": 1}
