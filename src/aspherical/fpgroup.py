"""Finitely presented groups and presentation-level homomorphisms.

A presentation's generators are a tuple of names, the alphabet of its
relator words.  Subcommands build surface groups with the standard
one-relator presentation, and quotients by normal closures of word sets.
Free products, abelian group presentations and the genus-sum pinch map
serve no subcommand: they stay while `perfbench/tracing.py` pins them
and their one caller, `fibersum.presentation_chain_for`.
`_read_word_file` is the one reader of both word file formats:
presentation files here, whose gens line is where names are checked
against the ident grammar, and fibration files for `lefschetz`.

Homomorphisms carry one image word per source generator.  Validity is
certified at the abelianized level only (the image of every source
relator must have exponent vector inside the target's relation
lattice); deciding relator triviality in an arbitrary finitely
presented group is not attempted.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable

from . import zlinalg
from .limits import _MAX_FILE_SYLLABLES
from .word import (
    Word,
    _Value,
    _free_reduce,
    _inv,
    _quote,
    _render_syllables,
    cyclic_reduce,
    exponent_vector,
    parse_word,
    render_word,
)
from .zlinalg import FgAbelian


class InvalidGenus(ValueError):
    pass


class TargetSourceMismatch(ValueError):
    pass


class InvalidHomomorphism(ValueError):
    pass


class FormatError(ValueError):
    pass


class Presentation(_Value):
    """Generator names plus relator words; relators stay cyclically reduced."""

    __slots__ = ("generators", "relators", "label")

    def __init__(
        self, generators: tuple[str, ...], relators: tuple[Word, ...], label: str | None = None
    ):
        if len(set(generators)) != len(generators):
            raise ValueError(f"duplicate generator names in {_quote(list(generators))}")
        if label is not None and "\n" in label:
            raise ValueError("label must be a single line")
        for r in relators:
            if r.alphabet is not generators and r.alphabet != generators:
                raise ValueError("relator over a different alphabet")
            if (s := r.syllables) and s[0][0] == s[-1][0] and s[0][1] * s[-1][1] < 0:
                raise ValueError(f"relator {render_word(r)!r} is not cyclically reduced")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)
        object.__setattr__(self, "label", label)


class GroupHom(_Value):
    """A homomorphism given by one target word per source generator."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Presentation, target: Presentation, images: tuple[Word, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)
        self.__post_init__()  # a method of its own: perfbench/tracing.py times the check

    def __post_init__(self):
        if len(self.images) != len(self.source.generators):
            raise ValueError(
                f"{len(self.images)} images for {len(self.source.generators)} generators"
            )
        for w in self.images:
            if w.alphabet != self.target.generators:
                raise ValueError("image word over a different alphabet")
        matrix = zlinalg.induced_matrix(self)
        lattice = zlinalg.relator_matrix(self.target)
        for r in self.source.relators:
            image_vec = matrix.apply(exponent_vector(r))
            if not zlinalg.in_row_lattice(image_vec, lattice):
                raise InvalidHomomorphism(
                    f"image of relator {render_word(r)!r} is nontrivial in the "
                    "abelianized target"
                )


def apply_hom(f: GroupHom, w: Word) -> Word:
    """Substitute images generator-wise and freely reduce."""
    if w.alphabet != f.source.generators:
        raise ValueError("word over a different alphabet than the source")
    syllables: list[tuple[int, int]] = []
    for i, e in w.syllables:
        syllables += (f.images[i].syllables if e > 0 else _inv(f.images[i].syllables)) * abs(e)
    return Word(f.target.generators, _free_reduce(syllables))


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """The composite g after f."""
    if f.target != g.source:
        raise TargetSourceMismatch("target of the first factor is not the source of the second")
    return GroupHom(f.source, g.target, tuple(apply_hom(g, w) for w in f.images))


# --- constructors -----------------------------------------------------------


def surface_generators(g: int, letters: str = "ab") -> tuple[str, ...]:
    """a_1,b_1,...,a_g,b_g (or the pairs named by `letters`), in order."""
    return tuple(f"{c}{i + 1}" for i in range(g) for c in letters)


def surface_relator(gens: tuple[str, ...], first: int = 0, stop: int | None = None) -> Word:
    """[a_1,b_1]...[a_g,b_g] over the generator pairs from index `first` up
    to `stop` (the end by default), laid out already reduced: neighbouring
    syllables name different generators."""
    syllables: list[tuple[int, int]] = []
    for i in range(first, len(gens) if stop is None else stop, 2):
        syllables += ((i, 1), (i + 1, 1), (i, -1), (i + 1, -1))
    return Word(gens, tuple(syllables))


def surface_group(g: int) -> Presentation:
    """Genus-g surface group <a_1,b_1,...,a_g,b_g | [a_1,b_1]...[a_g,b_g]>.

    Genus 0 gives the trivial group with no generators.
    """
    if g < 0:
        raise InvalidGenus("negative genus")
    if g == 0:
        return Presentation((), (), label="pi_0")
    gens = surface_generators(g)
    return Presentation(gens, (surface_relator(gens),), label=f"pi_{g}")


def _rebind(w: Word, alphabet: tuple[str, ...], shift: int = 0) -> Word:
    return Word(alphabet, tuple((i + shift, e) for i, e in w.syllables))


def free_product(p: Presentation, q: Presentation) -> Presentation:
    """Disjoint union of generators and relators.

    Name clashes in the second factor are resolved by a numeric suffix
    (x -> x_2, x_3, ...), deterministically.
    """
    taken = set(p.generators)
    renamed = []
    for name in q.generators:
        if name in taken:
            k = 2
            while f"{name}_{k}" in taken:
                k += 1
            name = f"{name}_{k}"
        taken.add(name)
        renamed.append(name)
    gens = p.generators + tuple(renamed)
    shift = len(p.generators)
    relators = tuple(_rebind(r, gens) for r in p.relators) + tuple(
        _rebind(r, gens, shift) for r in q.relators
    )
    return Presentation(gens, relators)


def quotient_by_normal_closure(p: Presentation, ws: Iterable[Word]) -> Presentation:
    """Extend p's relators by the cyclically reduced words ws, which must
    be over p's generators."""
    extra = tuple(cyclic_reduce(w) for w in ws)
    return Presentation(p.generators, p.relators + extra, label=p.label)


def abelian_presentation(g: FgAbelian) -> Presentation:
    """One generator per free rank (g1, g2, ...) and per invariant factor
    (t1, t2, ...); relators are all pairwise commutators plus t_i^{d_i}."""
    gens = tuple(f"g{i + 1}" for i in range(g.free_rank)) + tuple(
        f"t{i + 1}" for i in range(len(g.torsion))
    )
    relators = [
        Word(gens, ((i, 1), (j, 1), (i, -1), (j, -1)))
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    for i, d in enumerate(g.torsion):
        relators.append(Word(gens, ((g.free_rank + i, d),)))
    return Presentation(gens, tuple(relators), label=g.render())


def pinch_presentation_map(g1: int, g2: int) -> GroupHom:
    """Collapse the separating circle: the genus-(g1+g2) surface group onto
    the free product of the genus-g1 and genus-g2 surface groups, matching
    generators pairwise.  The separating circle [a_1,b_1]...[a_g1,b_g1]
    lands on the first factor's relator, so its image abelianizes to zero.
    """
    if g1 < 0 or g2 < 1:
        raise InvalidGenus(f"need g1 >= 0 and g2 >= 1, got ({g1}, {g2})")
    source = surface_group(g1 + g2)
    target = free_product(surface_group(g1), surface_group(g2))
    images = tuple(Word(target.generators, ((i, 1),)) for i in range(len(source.generators)))
    return GroupHom(source, target, images)


# --- text format ------------------------------------------------------------


def render_presentation(p: Presentation) -> str:
    """group/gens/rel lines; generators and relators in declared order.
    The name tables are made once, and a relator object that repeats is
    rendered once."""
    names = p.generators
    inverses = [f"{name}^-1" for name in names]
    lines = [f"group {p.label}" if p.label else "group", " ".join(["gens", *names])]
    rendered: dict[int, str] = {}
    for r in p.relators:
        line = rendered.get(id(r))
        if line is None:
            line = rendered[id(r)] = "rel " + _render_syllables(r.syllables, names, inverses)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    """Parse group/gens/rel text: generator names, then relator words."""
    label, gens, relators, _ = _read_word_file(
        text, "group", "gens", "rel", _generator_names, lambda rest: (None, rest)
    )
    try:
        return Presentation(gens, tuple(relators), label=label)
    except ValueError as e:  # duplicate generator names
        raise FormatError(str(e)) from e


_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def _generator_names(text: str) -> tuple[str, ...]:
    """A gens line's names, each checked against the ident grammar of `word`."""
    names = tuple(text.split())
    for name in names:
        if not _IDENT_RE.match(name):
            raise ValueError(f"invalid generator name {_quote(name)}")
    return names


def _read_word_file(
    text: str, header: str, space: str, item: str, alphabet_of: Callable, split: Callable
) -> tuple[str | None, tuple[str, ...], list[Word], list]:
    """The reader of presentation and fibration files: blank lines aside,
    the `header` line once (its rest is the label), the `space` line once
    (`alphabet_of` reads its rest; the names are indexed once), then
    `item` lines (`split` reads each rest as a tag and a word text;
    `parse_word`, given that index, parses a distinct word text once, and
    it is cyclically reduced once; the syllables are summed against
    _MAX_FILE_SYLLABLES as it parses).  Returns the label, alphabet, words
    and tags; a ValueError on a line becomes a FormatError naming it."""
    label, alphabet, seen_header = None, None, False
    words, tags, parsed, syllables = [], [], {}, 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, _, rest = raw.strip().partition(" ")
        rest = rest.strip()
        try:
            if key == item and alphabet is not None:
                tag, word_text = split(rest)
                if word_text not in parsed:
                    word = parse_word(word_text, alphabet, index)
                    syllables += len(word.syllables)
                    if syllables > _MAX_FILE_SYLLABLES:
                        raise ValueError(
                            f"the distinct {item} lines take {syllables} syllables, "
                            f"over the limit of {_MAX_FILE_SYLLABLES}"
                        )
                    parsed[word_text] = cyclic_reduce(word)
                words.append(parsed[word_text])
                tags.append(tag)
            elif key == header and not seen_header:
                seen_header, label = True, rest or None
            elif key == space and seen_header and alphabet is None:
                alphabet = alphabet_of(rest)
                index = {name: i for i, name in enumerate(alphabet)}
            elif key == item:
                raise ValueError(f"{item} before {space}")
            elif key == space and not seen_header:
                raise ValueError(f"{space} before {header}")
            elif key in (header, space):
                raise ValueError(f"repeated {key} line")
            elif key:
                raise ValueError(f"unknown directive {_quote(key)}")
        except ValueError as e:
            raise FormatError(f"line {lineno}: {e}") from e
    if not seen_header or alphabet is None:
        raise FormatError(f"missing {header}/{space} lines")
    return label, alphabet, words, tags
