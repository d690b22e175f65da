"""Finitely presented groups and presentation-level homomorphisms.

Covers the constructors the constructions need: surface groups with the
standard one-relator presentation, free groups, free products,
quotients by normal closures of word sets, presentations of
finitely generated abelian groups, and the pinch map collapsing the
separating circle of a genus sum.

Homomorphisms carry one image word per source generator.  Validity is
certified at the abelianized level only (the image of every source
relator must have exponent vector inside the target's relation
lattice); deciding relator triviality in an arbitrary finitely
presented group is not attempted.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import zlinalg
from .word import (
    Generator,
    UnknownGenerator,
    Word,
    _Value,
    _free_reduce,
    _inv,
    _render_letters,
    cyclic_reduce,
    exponent_vector,
    generator_word,
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
    """Generators plus relator words; relators stay cyclically reduced."""

    __slots__ = ("generators", "relators", "label")

    def __init__(
        self, generators: tuple[Generator, ...], relators: tuple[Word, ...], label: str | None = None
    ):
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        if label is not None and "\n" in label:
            raise ValueError("label must be a single line")
        for r in relators:
            if r.alphabet is not generators and r.alphabet != generators:
                raise ValueError("relator over a different alphabet")
            if r.letters and r.letters[0] == (r.letters[-1][0], -r.letters[-1][1]):
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
    letters: list[tuple[int, int]] = []
    for i, s in w.letters:
        letters += f.images[i].letters if s > 0 else _inv(f.images[i].letters)
    return Word(f.target.generators, _free_reduce(letters))


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """The composite g after f."""
    if f.target != g.source:
        raise TargetSourceMismatch("target of the first factor is not the source of the second")
    return GroupHom(f.source, g.target, tuple(apply_hom(g, w) for w in f.images))


# --- constructors -----------------------------------------------------------


def free_group(r: int) -> Presentation:
    if r < 0:
        raise ValueError("negative rank")
    gens = tuple(Generator(f"g{i + 1}") for i in range(r))
    return Presentation(gens, (), label=f"F_{r}")


def surface_generators(g: int, letters: str = "ab") -> tuple[Generator, ...]:
    """a_1,b_1,...,a_g,b_g (or the pairs named by `letters`), in order."""
    return tuple(Generator(f"{c}{i + 1}") for i in range(g) for c in letters)


def surface_relator(gens: tuple[Generator, ...], first: int = 0, stop: int | None = None) -> Word:
    """[a_1,b_1]...[a_g,b_g] over the generator pairs from index `first` up
    to `stop` (the end by default), laid out already reduced: neighbouring
    letters name different generators."""
    letters: list[tuple[int, int]] = []
    for i in range(first, len(gens) if stop is None else stop, 2):
        letters += ((i, 1), (i + 1, 1), (i, -1), (i + 1, -1))
    return Word(gens, tuple(letters))


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


def _rebind(w: Word, alphabet: tuple[Generator, ...], shift: int = 0) -> Word:
    return Word(alphabet, tuple((i + shift, s) for i, s in w.letters))


def free_product(p: Presentation, q: Presentation) -> Presentation:
    """Disjoint union of generators and relators.

    Name clashes in the second factor are resolved by a numeric suffix
    (x -> x_2, x_3, ...), deterministically.
    """
    taken = {g.name for g in p.generators}
    renamed = []
    for g in q.generators:
        name = g.name
        if name in taken:
            k = 2
            while f"{name}_{k}" in taken:
                k += 1
            name = f"{name}_{k}"
        taken.add(name)
        renamed.append(Generator(name))
    gens = p.generators + tuple(renamed)
    shift = len(p.generators)
    relators = tuple(_rebind(r, gens) for r in p.relators) + tuple(
        _rebind(r, gens, shift) for r in q.relators
    )
    return Presentation(gens, relators)


def quotient_by_normal_closure(p: Presentation, ws: Iterable[Word]) -> Presentation:
    """Extend p's relators by the cyclically reduced words ws."""
    extra = []
    for w in ws:
        if w.alphabet is not p.generators and w.alphabet != p.generators:
            names = {g.name for g in p.generators}
            for g in w.alphabet:
                if g.name not in names:
                    raise UnknownGenerator(g.name)
            w = Word(
                p.generators,
                tuple((p.generators.index(w.alphabet[i]), s) for i, s in w.letters),
            )
        extra.append(cyclic_reduce(w))
    return Presentation(p.generators, p.relators + tuple(extra), label=p.label)


def abelian_presentation(g: FgAbelian) -> Presentation:
    """One generator per free rank (g1, g2, ...) and per invariant factor
    (t1, t2, ...); relators are all pairwise commutators plus t_i^{d_i}."""
    gens = tuple(Generator(f"g{i + 1}") for i in range(g.free_rank)) + tuple(
        Generator(f"t{i + 1}") for i in range(len(g.torsion))
    )
    relators = [
        Word(gens, ((i, 1), (j, 1), (i, -1), (j, -1)))
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    for i, d in enumerate(g.torsion):
        relators.append(Word(gens, ((g.free_rank + i, 1),) * d))
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
    images = tuple(generator_word(target.generators, i) for i in range(len(source.generators)))
    return GroupHom(source, target, images)


# --- text format ------------------------------------------------------------


def render_presentation(p: Presentation) -> str:
    """group/gens/rel lines; generators and relators in declared order.
    The name tables are made once, and a relator object that repeats is
    rendered once."""
    names = [g.name for g in p.generators]
    inverses = [f"{name}^-1" for name in names]
    lines = [f"group {p.label}" if p.label else "group", " ".join(["gens", *names])]
    rendered: dict[int, str] = {}
    for r in p.relators:
        line = rendered.get(id(r))
        if line is None:
            line = rendered[id(r)] = "rel " + _render_letters(r.letters, names, inverses)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    """Parse group/gens/rel text; a repeated relator text is parsed once."""
    label: str | None = None
    gens: tuple[Generator, ...] | None = None
    relators: list[Word] = []
    parsed: dict[str, Word] = {}
    seen_group = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "group":
            if seen_group:
                raise FormatError(f"line {lineno}: repeated group line")
            seen_group = True
            label = rest or None
        elif key == "gens":
            if not seen_group:
                raise FormatError(f"line {lineno}: gens before group")
            if gens is not None:
                raise FormatError(f"line {lineno}: repeated gens line")
            try:
                gens = tuple(Generator(name) for name in rest.split())
            except ValueError as e:
                raise FormatError(f"line {lineno}: {e}") from e
        elif key == "rel":
            if gens is None:
                raise FormatError(f"line {lineno}: rel before gens")
            if rest not in parsed:
                try:
                    parsed[rest] = cyclic_reduce(parse_word(rest, gens))
                except ValueError as e:
                    raise FormatError(f"line {lineno}: {e}") from e
            relators.append(parsed[rest])
        else:
            raise FormatError(f"line {lineno}: unknown directive {key!r}")
    if not seen_group or gens is None:
        raise FormatError("missing group/gens lines")
    try:
        return Presentation(gens, tuple(relators), label=label)
    except ValueError as e:
        raise FormatError(str(e)) from e
