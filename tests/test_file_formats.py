"""The one reader of presentation and fibration files against the two
it replaced, and error messages that quote at most 64 characters of an
input however long it is, through `cli.main`."""

import re

import pytest

from format_differential import check_against_reference
from aspherical.cli import main
from aspherical.word import UnknownGenerator, _quote, parse_word

_N = 100_000
_LONG = "q" * _N


def test_the_one_reader_reads_as_the_two_it_replaced():
    checked, accepted, rejected, header_rule = check_against_reference()
    assert checked == 3000
    assert min(accepted, rejected, header_rule) > 100  # each outcome is exercised


# One case per message that quotes input: the argv ("@" for the file
# written from the text), the file's text, and how the error line starts.
_CLIPPED = [
    (["classify", "Z^" + _LONG], None, "error: bad free part 'Z^qqq"),
    (["classify", "Z^" + "9" * 5000], None, "error: bad free part 'Z^999"),
    (["classify", "Z^" + " " * _N + "-1"], None, "error: negative free rank in 'Z^   "),
    (["classify", "Z/" + "0" * _N + "x"], None, "error: bad torsion part 'Z/000"),
    (["classify", "Z/" + " " * _N + "0"], None, "error: torsion order must be positive in 'Z/  "),
    (["classify", _LONG], None, "error: cannot parse term 'qqq"),
    (["snf", "@"], "1 2\n" + _LONG + "\n", "error: bad matrix row 'qqq"),
    (["fibersum", "@"], "group x\n" + _LONG + "\n", "error: line 2: unknown directive 'qqq"),
    (["fibersum", "@"], "group x\ngens a1 " + "A" * _N + "\n",
     "error: line 2: invalid generator name 'AAA"),
    (["fibersum", "@"], "group x\ngens " + "a " * _N + "\n",
     "error: duplicate generator names in ['a', 'a', "),
    (["fibersum", "@"], "group x\ngens a1 b1\nrel " + _LONG + "\n",
     "error: line 3: unknown generator 'qqq"),
    (["fibersum", "@"], "group x\ngens a1 b1\nrel a1^" + _LONG + "\n",
     "error: line 3: at position 3: expected number, found 'qqq"),
    (["fibersum", "@"], "group x\ngens a1 b1\nrel a1 " + "9" * _N + "\n",
     "error: line 3: at position 3: unexpected '999"),
    (["fibersum", "@"], "group x\ngens a1 b1\nrel " + "9" * _N + "\n",
     "error: line 3: at position 0: expected a factor, found '999"),
    (["fibration", "@"], "fibration x\nfiber_genus " + _LONG + "\n", "error: line 2: bad genus 'qqq"),
    (["fibration", "@"], "fibration x\nfiber_genus " + "9" * 4000 + "\n",
     "error: line 2: fiber_genus 999"),
    (["fibration", "@"], "fibration x\nfiber_genus 1\ncycle " + "*" * _N + " a1\n",
     "error: line 3: expected + or -, found '***"),
]


@pytest.mark.parametrize(
    "argv, text, start", _CLIPPED, ids=[re.sub(r"\W+", "_", c[2][7:]).strip("_") for c in _CLIPPED]
)
def test_an_error_quotes_at_most_64_characters_of_a_long_input(argv, text, start, capsys, tmp_path):
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = [str(path) if a == "@" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(start)
    assert " characters)" in captured.err
    assert len(captured.err.encode()) < 200


def test_a_quote_is_cut_only_past_64_characters_and_the_exception_keeps_the_name():
    assert _quote("q" * 62) == repr("q" * 62)  # 64 characters with the quotes
    assert _quote("q" * 63) == "'" + "q" * 63 + "... (65 characters)"
    assert _quote(["a"] * 2) == "['a', 'a']"
    with pytest.raises(UnknownGenerator) as exc:
        parse_word(_LONG, ("a",))
    assert str(exc.value) == "unknown generator '" + "q" * 63 + f"... ({_N + 2} characters)"
    assert exc.value.name == _LONG
