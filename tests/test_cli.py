import errno
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import (
    chain_relation,
    reference_direct_sum,
    reference_from_cyclic_orders,
    reference_parser,
)
from reader_differential import check_parser_against_reference, check_reader_against_argparse
from aspherical import abhomology, asphericity, cli, fibersum, lefschetz, zlinalg
from aspherical.cli import GroupSpecError, main, parse_group_spec
from aspherical.limits import (
    _MAX_BASE_GENUS,
    _MAX_FIBER_GENUS,
    _MAX_FREE_RANK,
    _MAX_GENUS_PRODUCT,
    _MAX_HOMOLOGY_SUMMANDS,
    _MAX_PARSED_LETTERS,
    _MAX_TORSION_BITS,
    _MAX_TORSION_DIGITS,
    _MAX_TORSION_ORDERS,
    _MAX_TWIST_WORK,
    _MAX_WITNESS_GENERATORS,
)
from aspherical.word import exponent_vector
from aspherical.zlinalg import FgAbelian, IntMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_group_spec():
    assert parse_group_spec("Z^4+Z/2") == FgAbelian(4, (2,))
    assert parse_group_spec("Z^2") == FgAbelian(2)
    assert parse_group_spec("Z") == FgAbelian(1)
    assert parse_group_spec("0") == FgAbelian(0)
    assert parse_group_spec("Z/2 + Z/4") == FgAbelian(0, (2, 4))
    assert parse_group_spec("Z/2+Z/3") == FgAbelian(0, (6,))
    assert parse_group_spec("Z + Z^2") == FgAbelian(3)
    assert parse_group_spec("Z/1") == FgAbelian(0)


@pytest.mark.parametrize("bad", ["", "Z^-1", "Z/0", "Q", "Z^x", "Z/2Z", "Z^4 Z/2"])
def test_parse_group_spec_errors(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_classify_exit_codes(capsys):
    assert run(capsys, "classify", "Z^2")[0] == 0
    assert run(capsys, "classify", "Z^3")[0] == 3
    assert run(capsys, "classify", "Z^4+Z/2")[0] == 0
    assert run(capsys, "classify", "huh")[0] == 2


def test_classify_text_output(capsys):
    code, out, _ = run(capsys, "classify", "Z^4+Z/2")
    assert code == 0
    assert "aspherical: true" in out
    assert "reason: RankAtLeast4" in out
    assert "class_note: B\\A" in out
    assert "pi2_forced_nonzero_in_dim4: true" in out
    assert "Corollary 5.5" in out


def test_classify_covering_note_for_z4(capsys):
    _, out, _ = run(capsys, "classify", "Z^4")
    assert "two-sheeted cover" in out
    _, out2, _ = run(capsys, "classify", "Z^6")
    assert "covering_note: -" in out2


def test_classify_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify", "Z^4+Z/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "classify"
    assert payload["aspherical"] is True
    assert payload["realizable_dims"] == [4]
    assert payload["class_note"] == "B\\A"


def _text_to_dict(out):
    data = {}
    for line in out.splitlines():
        if line.startswith("H_") and " = " in line:
            key, _, value = line.partition(" = ")
            data[key] = value
        elif ": " in line:
            key, _, value = line.partition(": ")
            if " " not in key:
                data[key] = value
    return data


def _render_like_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "; ".join(str(v) for v in value) if value else "-"
    if value is None:
        return "-"
    return str(value)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "Z^4+Z/2"),
        ("classify", "Z^3"),
        ("homology", "Z^4+Z/2", "3"),
        ("witness", "Z^4"),
    ],
)
def test_text_and_json_encode_the_same_data(capsys, argv):
    main(["--format", "json", *argv])
    payload = json.loads(capsys.readouterr().out)
    main(list(argv))
    text = _text_to_dict(capsys.readouterr().out)
    for key, value in payload.items():
        if key in ("schema_version", "command") or "\n" in str(value):
            continue
        assert text[key] == _render_like_text(value), key


def test_output_deterministic(capsys):
    first = run(capsys, "classify", "Z^6+Z/3+Z/6")
    second = run(capsys, "classify", "Z^6+Z/3+Z/6")
    assert first == second
    third = run(capsys, "--format", "json", "homology", "Z^4+Z/2", "3")
    fourth = run(capsys, "--format", "json", "homology", "Z^4+Z/2", "3")
    assert third == fourth


def test_homology_examples(capsys):
    _, out, _ = run(capsys, "homology", "Z/2", "3")
    assert "H_3 = Z/2" in out
    _, out, _ = run(capsys, "homology", "Z^4", "3")
    assert "H_3 = Z^4" in out
    _, out, _ = run(capsys, "homology", "Z^4+Z/2", "3")
    assert "H_3 = Z^4 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2" in out
    assert "factor_homology_sum_H_3: Z^4 + Z/2" in out
    assert "contains_factor_homology_sum: true" in out
    assert "dim_R_H^3: 4" in out


def test_factor_homology_sum_at_degree_0_is_a_summand_only_without_torsion(capsys):
    # H_0 is Z, while the factors' H_0 sum to Z^{1 + t} for t invariant factors.
    cases = {"Z^4+Z/2": ("Z^2", "false"), "Z/2": ("Z^2", "false"), "Z/2+Z/4": ("Z^3", "false"),
             "Z^4": ("Z", "true")}
    for group, (summand, contained) in cases.items():
        code, out, _ = run(capsys, "homology", group, "0")
        assert code == 0
        assert "H_0 = Z\n" in out
        assert f"factor_homology_sum_H_0: {summand}\n" in out, group
        assert f"contains_factor_homology_sum: {contained}\n" in out, group


def test_global_max_degree_is_refused(capsys):
    # The degree is the `homology` operand alone; without it the report runs to H_3.
    for argv in (["--max-degree", "2", "homology", "Z^2"], ["--max-degree=2", "homology", "Z^2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "aspherical: error: " in captured.err
    _, out, _ = run(capsys, "homology", "Z^2")
    assert "max_degree: 3\nH_0 = Z\nH_1 = Z^2\nH_2 = Z\nH_3 = 0\n" in out


def test_homology_degree_cap(capsys):
    assert run(capsys, "homology", "Z^2", "9")[0] == 2


def test_witness_z2(capsys):
    code, out, _ = run(capsys, "witness", "Z^2")
    assert code == 0
    assert "gens a1 b1" in out
    assert "rel a1 b1 a1^-1 b1^-1" in out
    assert "abelianization_check: PASS" in out


def test_witness_z4_z2(capsys):
    code, out, _ = run(capsys, "witness", "Z^4+Z/2")
    assert code == 0
    assert "abelianization: Z^4 + Z/2" in out
    assert "abelianization_check: PASS" in out


def test_witness_rejects_z3(capsys):
    code, out, _ = run(capsys, "witness", "Z^3")
    assert code == 3
    assert "reason: RankThree" in out


def test_witness_emitted_presentation_parses_back(capsys, tmp_path):
    from aspherical.fpgroup import parse_presentation
    from aspherical.zlinalg import abelianization

    _, out, _ = run(capsys, "--format", "json", "witness", "Z^5+Z/6")
    payload = json.loads(out)
    p = parse_presentation(payload["presentation"])
    assert abelianization(p) == FgAbelian(5, (6,))


def test_snf_command(capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("2 4\n6 8\n")
    code, out, _ = run(capsys, "snf", str(f))
    assert code == 0
    assert "D:\n2 0\n0 4" in out
    assert "cokernel: Z/2 + Z/4" in out

    f2 = tmp_path / "i.txt"
    f2.write_text("1 0\n0 1\n")
    _, out2, _ = run(capsys, "snf", str(f2))
    assert "cokernel: 0" in out2

    f3 = tmp_path / "z.txt"
    f3.write_text("0 0\n")
    _, out3, _ = run(capsys, "snf", str(f3))
    assert "cokernel: Z^2" in out3


def test_snf_file_errors(capsys, tmp_path):
    assert run(capsys, "snf", str(tmp_path / "missing.txt"))[0] == 2
    f = tmp_path / "bad.txt"
    f.write_text("1 x\n")
    assert run(capsys, "snf", str(f))[0] == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["fibration", "snf", "fibersum"])
def test_missing_or_directory_input_exits_2(capsys, tmp_path, command, fmt):
    missing = tmp_path / "missing.txt"
    assert run(capsys, "--format", fmt, command, str(missing)) == (
        2, "", f"error: no such file: {missing}\n"
    )
    directory = tmp_path / "adir"
    directory.mkdir()
    assert run(capsys, "--format", fmt, command, str(directory)) == (
        2, "", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(directory)!r}\n"
    )


def test_fibration_command(capsys, tmp_path):
    f = tmp_path / "fib.txt"
    f.write_text(
        "fibration twelve\nfiber_genus 1\n" + "cycle + a1\ncycle + b1\n" * 6
    )
    code, out, _ = run(capsys, "fibration", str(f))
    assert code == 0
    assert "homology_trivial: true" in out
    assert "homological check only" in out
    assert "euler_characteristic: 12" in out
    assert "abelianization: 0" in out


def test_fibration_empty_factorization(capsys, tmp_path):
    f = tmp_path / "fib.txt"
    f.write_text("fibration empty\nfiber_genus 2\n")
    code, out, _ = run(capsys, "fibration", str(f))
    assert code == 0
    assert "abelianization: Z^4" in out
    assert "euler_characteristic: -4" in out
    assert "gens a1 b1 a2 b2" in out


def test_fibration_kill_everything(capsys, tmp_path):
    f = tmp_path / "fib.txt"
    f.write_text(
        "fibration kill\nfiber_genus 2\ncycle + a1\ncycle + b1\ncycle + a2\ncycle + b2\n"
    )
    _, out, _ = run(capsys, "fibration", str(f))
    assert "abelianization: 0" in out


def test_fibration_caveat_on_nontrivial_monodromy(capsys, tmp_path):
    f = tmp_path / "fib.txt"
    f.write_text("fibration one\nfiber_genus 1\ncycle + a1\n")
    code, out, _ = run(capsys, "fibration", str(f))
    assert code == 0
    assert "homology_trivial: false" in out
    assert "caveat" in out


def test_fibration_errors(capsys, tmp_path):
    assert run(capsys, "fibration", str(tmp_path / "nope.txt"))[0] == 2
    f = tmp_path / "bad.txt"
    f.write_text("fiber_genus 1\n")
    assert run(capsys, "fibration", str(f))[0] == 2


def test_fibersum_command(capsys, tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("group x\ngens a1 b1\nrel [a1,b1]\nrel a1\n")
    code, out, _ = run(capsys, "fibersum", str(f), "-e", "2")
    assert code == 0
    assert "abelianization_check: PASS" in out
    assert "base_genus: 2" in out
    assert "abelianization: Z^5" in out


def test_fibersum_expected_abelianization_keeps_the_torsion(capsys, tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("group x\ngens a1 b1 a2 b2\nrel [a1,b1] [a2,b2]\nrel a1^6\nrel b1^4\nrel a2^3\n")
    ab = FgAbelian.from_cyclic_orders([6, 4, 3, 0])
    for e in (1, 2, 3):
        code, out, _ = run(capsys, "--format", "json", "fibersum", str(f), "-e", str(e))
        assert code == 0
        report = json.loads(out)
        expected = reference_direct_sum(ab, FgAbelian(2 * e)).render()
        assert report["expected_abelianization"] == expected
        assert report["abelianization"] == expected
        assert report["abelianization_check"] == "PASS"


def test_fibersum_rejects_bad_shapes(capsys, tmp_path):
    f = tmp_path / "free.txt"
    f.write_text("group f\ngens g1\n")
    assert run(capsys, "fibersum", str(f))[0] == 3
    g = tmp_path / "x.txt"
    g.write_text("group x\ngens a1 b1\nrel [a1,b1]\n")
    assert run(capsys, "fibersum", str(g), "-e", "0")[0] == 3


def test_fibersum_checks_the_surface_shape_before_the_base_genus(capsys, tmp_path):
    free = tmp_path / "free.txt"
    free.write_text("group f\ngens g1\n")
    torus = tmp_path / "torus.txt"
    torus.write_text("group t\ngens a1 b1\nrel a1\n")
    cases = {
        free: "generators must be exactly those of the genus-0 surface group, in order",
        torus: "first relator must be the surface relator",
    }
    for path, message in cases.items():
        for e in ("0", "-1", str(_MAX_BASE_GENUS + 1)):
            assert run(capsys, "fibersum", str(path), "-e", e) == (3, "", f"error: {message}\n")


def test_constructions_over_their_limits_exit_2_before_any_work(capsys, tmp_path):
    # Each input is one step over its limit; an unchecked build would
    # exit 0 after running for seconds.
    over = {
        f"Z^{_MAX_WITNESS_GENERATORS - 1}+Z/2+Z/2": f"limit of {_MAX_WITNESS_GENERATORS}",
        f"Z^4+Z/{_MAX_PARSED_LETTERS + 1}": f"limit of {_MAX_PARSED_LETTERS}",
        # Each factor fits; together they take two letters too many.
        f"Z^4+Z/2+Z/{_MAX_PARSED_LETTERS // 2}+Z/{_MAX_PARSED_LETTERS // 2}": "letters",
    }
    for spec, message in over.items():
        code, out, err = run(capsys, "witness", spec)
        assert (code, out) == (2, ""), spec
        assert message in err, spec
    # The verdict comes first: a group with no witness still exits 3.
    assert run(capsys, "witness", f"Z+Z/{_MAX_PARSED_LETTERS + 1}")[0] == 3

    fibered = tmp_path / "x.txt"
    fibered.write_text("group x\ngens a1 b1\nrel [a1,b1]\n")
    code, out, err = run(capsys, "fibersum", str(fibered), "-e", str(_MAX_BASE_GENUS + 1))
    assert (code, out) == (2, "")
    assert f"limit of {_MAX_BASE_GENUS}" in err
    # Base genus times fiber genus one over its limit, each factor under its own.
    f, e = 29, 565
    assert f * e == _MAX_GENUS_PRODUCT + 1 and e <= _MAX_BASE_GENUS
    fibered.write_text(_surface_file(f))
    code, out, err = run(capsys, "fibersum", str(fibered), "-e", str(e))
    assert (code, out) == (2, "")
    assert f"limit of {_MAX_GENUS_PRODUCT}" in err

    fibration = tmp_path / "fib.txt"
    fibration.write_text(f"fibration big\nfiber_genus {_MAX_FIBER_GENUS + 1}\ncycle + a1\n")
    code, out, err = run(capsys, "fibration", str(fibration))
    assert (code, out) == (2, "")
    assert f"limit of {_MAX_FIBER_GENUS}" in err


def _no_twist_loop(*args):
    raise AssertionError("an over-limit file reached the twist loop")


def test_fibration_over_the_twist_limit_exits_2_before_any_twist(capsys, tmp_path, monkeypatch):
    # A dense class at genus 512 updates 2 * 1024 rows of 1024 entries a
    # twist, about 0.2 s; the limit admits 8 such twists, repeated or not.
    assert 8 * 2 * 1024 * 1024 == _MAX_TWIST_WORK
    dense = " ".join(f"{x}{i}^{1 + i % 3}" for i in range(1, 513) for x in "ab")
    fibration = tmp_path / "dense.txt"
    # The twist loop makes monodromy_product's first call to zip, after
    # the work is checked.
    monkeypatch.setattr(lefschetz, "zip", _no_twist_loop, raising=False)
    for twists in (9, 40):
        fibration.write_text("fibration dense\nfiber_genus 512\n" + f"cycle + {dense}\n" * twists)
        code, out, err = run(capsys, "fibration", str(fibration))
        assert (code, out) == (2, "")
        assert err == (
            f"error: the twists take {twists * 2 * 1024 * 1024} row-entry updates, "
            f"over the limit of {_MAX_TWIST_WORK}\n"
        )
    fibration.write_text("fibration dense\nfiber_genus 512\n" + f"cycle - {dense}\n" * 8)
    with pytest.raises(AssertionError, match="twist loop"):
        run(capsys, "fibration", str(fibration))


def test_one_twist_at_genus_512_in_bounded_time(capsys, tmp_path):
    # The monodromy product started from, and was compared with, identity
    # matrices built entry by entry, and every entry went through int() in
    # a generator: 0.21-0.36 s best of 3, against 0.10-0.14 s now.
    fibration = tmp_path / "one.txt"
    fibration.write_text("fibration one\nfiber_genus 512\ncycle + a1\n")
    best, code, out, err = _best_of_3(capsys, "fibration", str(fibration))
    assert best < 0.18
    assert (code, err) == (0, "")
    assert "homology_trivial: false\n" in out


@pytest.mark.parametrize("g", range(1, 7))
def test_chain_relation_twist_work_is_far_under_the_limit(g):
    m, _ = lefschetz.parse_factorization(chain_relation(g))
    n = 2 * g
    work = sum(2 * (n - exponent_vector(c).count(0)) * n for c in m.cycles)
    assert work < _MAX_TWIST_WORK // 1000


def _alternating(n):
    """A genus-1 fibration file of n twists, + a1 and - b1 in turn.  Each
    adds at most one bit to the bound on the monodromy entries
    (|c|_max |c|_1 = 1) and updates 2 rows of 2 entries."""
    lines = ("cycle + a1\n", "cycle - b1\n")
    return "fibration alt\nfiber_genus 1\n" + "".join(lines[i % 2] for i in range(n))


def test_fibration_over_the_weighed_twist_budget_exits_2_during_the_loop(capsys, tmp_path):
    # The entries gain about 0.7 bits a twist, so a twist costs time linear
    # in their bits: past 1024 bits each weighs 2, past 2048 bits 3, and so
    # on.  The loop stops before the twist that would go over the budget.
    fibration = tmp_path / "alt.txt"
    fibration.write_text(_alternating(200_000))
    code, out, err = run(capsys, "fibration", str(fibration))
    assert (code, out) == (2, "")
    assert err == (
        "error: the twists through cycle 110275 take 16777384 row-entry updates weighed by "
        f"entry bits, over the limit of {_MAX_TWIST_WORK}\n"
    )
    # The largest such file the bit bound of the pre-pass used to accept.
    fibration.write_text(_alternating(92_680))
    code, out, err = run(capsys, "fibration", str(fibration))
    assert (code, err) == (0, "")
    assert "cycles: 92680\n" in out


def test_fibration_of_slowly_growing_entries_runs_under_the_twist_budget(capsys, tmp_path):
    # n twists along a1 make [[1, -n], [0, 1]], whose entries reach only 17
    # bits at n = 100,000: every twist weighs 1.
    def along_a1(n):
        return "fibration a\nfiber_genus 1\n" + "cycle + a1\n" * n

    for n in range(6):
        m, _ = lefschetz.parse_factorization(along_a1(n))
        dense = IntMatrix.identity(2)
        for c, sign in zip(m.cycles, m.signs):
            dense = lefschetz.twist_matrix(exponent_vector(c), sign).mul(dense)
        assert dense == IntMatrix.from_rows([[1, -n], [0, 1]], cols=2)
        assert lefschetz.monodromy_product(m) == dense
    fibration = tmp_path / "a1.txt"
    fibration.write_text(along_a1(100_000))
    code, out, err = run(capsys, "fibration", str(fibration))
    assert (code, err) == (0, "")
    assert "homology_trivial: false" in out
    m, _ = lefschetz.parse_factorization(along_a1(100_000))
    assert lefschetz.monodromy_product(m) == IntMatrix.from_rows([[1, -100_000], [0, 1]], cols=2)


def test_trivial_twists_need_no_entry_scan(capsys, tmp_path):
    # Twists along null-homologous cycles update nothing and add no bits, so
    # the entries are never scanned: not at genus 0, where the product has
    # no entries, and not at genus 512, where 17 scans of 2^20 entries
    # would take more than the whole budget.
    fibration = tmp_path / "trivial.txt"
    fibration.write_text("fibration trivial\nfiber_genus 0\n" + "cycle + 1\n" * 2048)
    code, out, err = run(capsys, "fibration", str(fibration))
    assert (code, err) == (0, "")
    assert "homology_trivial: true" in out
    m, _ = lefschetz.parse_factorization(
        "fibration trivial\nfiber_genus 512\n" + "cycle - 1\n" * (17 * 1024)
    )
    assert lefschetz.monodromy_product(m) == IntMatrix.identity(1024)


@pytest.mark.parametrize("g", range(1, 7))
def test_chain_relation_fibrations_stay_far_under_the_twist_budget(g, capsys, tmp_path):
    fibration = tmp_path / "chain.txt"
    fibration.write_text(chain_relation(g))
    code, out, err = run(capsys, "fibration", str(fibration))
    assert (code, err) == (0, "")
    assert "homology_trivial: true" in out
    # Fewer than 1024 twists, and a bound on the entry bits under 1024 after
    # the last: no scan, and every twist weighs 1.
    m, _ = lefschetz.parse_factorization(chain_relation(g))
    classes = [exponent_vector(c) for c in m.cycles]
    bits = 1 + sum((max(map(abs, c)) * sum(map(abs, c))).bit_length() for c in classes)
    assert len(classes) < 1024 and bits < 1024
    n = 2 * g
    assert sum(2 * (n - c.count(0)) * n for c in classes) < _MAX_TWIST_WORK // 1000


def _surface_file(g, extra_relators=()):
    """A fibered presentation file: the genus-g surface generators and
    relator, then the given relators."""
    gens = " ".join(f"{x}{i}" for i in range(1, g + 1) for x in "ab")
    surface = " ".join(f"[a{i},b{i}]" for i in range(1, g + 1))
    return f"group x\ngens {gens}\nrel {surface}\n" + "".join(f"rel {r}\n" for r in extra_relators)


def test_fibersum_of_a_dense_60_generator_file_in_bounded_time(capsys, tmp_path):
    # Both abelianizations leave a dense core with no unit pivots; with
    # U and V carried through the Smith form this took 2.8-3.3 s.
    rng = random.Random(4403)
    gens = [f"{x}{i}" for i in range(1, 31) for x in "ab"]
    dense = [
        " ".join(f"{x}^{e}" for x in gens for e in [rng.randint(-9, 9)] if e) for _ in range(60)
    ]
    path = tmp_path / "dense.txt"
    path.write_text(_surface_file(30, dense))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        code, out, _ = run(capsys, "fibersum", str(path), "-e", "1")
        times.append(time.perf_counter() - start)
    assert min(times) < 1.5
    assert code == 0
    assert "abelianization_check: PASS" in out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_rejected_witness_classifies_once(capsys, monkeypatch):
    calls = []
    classify_reason = asphericity.classify_reason

    def counted(gamma):
        calls.append(gamma)
        return classify_reason(gamma)

    monkeypatch.setattr(asphericity, "classify_reason", counted)
    monkeypatch.setattr(fibersum, "classify_reason", counted)
    code, out, _ = run(capsys, "witness", "Z^3")
    assert code == 3
    assert "reason: RankThree\n" in out
    assert calls == [FgAbelian(3)]


def test_reader_returns_argparse_namespace_or_none():
    checked, _ = check_reader_against_argparse()
    assert checked >= 200
    for argv in (
        ["classify", "Z^2"],
        ["--format", "json", "homology", "Z^4", "3"],
        ["homology", "Z^4"],
        ["fibersum", "f.txt", "-e", "2"],
        ["--format", "text", "fibersum", "f.txt", "--base-genus", "3"],
        ["fibration", "f.txt"],
        ["snf", "m.txt"],
        ["witness", "Z^4+Z/2"],
    ):
        assert cli._read_argv(argv) is not None, argv


def test_parser_built_from_the_command_table_matches_the_reference():
    assert check_parser_against_reference() == 7  # the top level and six subcommands


_Z2_11 = "+".join(["Z/2"] * 11)
_Z2_400 = "+".join(["Z/2"] * 400)


def _test_id(argv) -> str:
    return " ".join(argv).replace(_Z2_400, "(Z/2)^400").replace(_Z2_11, "(Z/2)^11")


# (argv, exit code, SHA-256 of stdout as text, SHA-256 of stdout with
# --format json), recorded from the implementation that spelled out every
# cyclic summand and factored every order, and (witness rows) that built
# every witness through the validated construction chain and took every
# cokernel from a dense Smith form.  The README examples are here.  The
# rows for Z^4+(Z/2)^400 and Z^3+Z/6+Z/30+Z/210 were recorded from the
# implementation that built H_3 for the Hopf flag and normalised every
# degree of the Kunneth fold.
_GOLDEN = [
    (("classify", "Z^4+Z/2"), 0, "cf9361942d2c5ab4b5c88640a12ae808deb89860f7347f9685777b1182244a8e", "655730f3362dec6e332e7e32bf8187ce73005a22c502e0d083bacbacd320db53"),
    (("classify", "Z^2"), 0, "f226f6fc9abe52bf60f00bb8d2d7d083a053f58b168080b34ae6121d81cd8ac3", "54d9da4e0ad892c254abc715de78ef0bbe753a17abee83d57d96a99df488e9ae"),
    (("classify", "Z^3"), 3, "90faf1913e978128d4f9c4e37bcca2a7f1337cc7b71fe124c416fcba3636b425", "8de1408f1e6935cb9150b2c1e8fd41520d25ea2fff146a6c2b163804d4e4c6ec"),
    (("classify", "Z^4"), 0, "e4c33c8508c262edab9301f723e49686a168cc4758516346455eca8ed38de9c4", "ca7c144e3e56a414f6c32d6a5b4b5d5f0746808ee080fde22693808fd8b59d05"),
    (("classify", "0"), 3, "fd54690b247270e91e7a06e195c6fe7e983a1282d02766e22d990b9f1fedfab1", "ca96711ef1275c53817c94f5ae4e1ece606ef45e48c548c02c19bddf010af536"),
    (("classify", "Z^2+Z/2"), 3, "fb3283789978f85d34442b57a1a6f3239ac62153f3e2b218264c7fb4d51a1088", "f862c4afa1a9b31e6015d74f6d6e95102d80dc93fcf1ad269b3b54e510e89615"),
    (("classify", "Z/6+Z/10"), 3, "28f51145656b4641d51163b0288972fb56d9ea35faa18fe040ef77a17e243fc2", "19a7498e4b1d646d2782fdc4e05a78e9f4814c34c886cecd3f7137426a30e74c"),
    (("classify", "Z^6+Z/3+Z/6"), 0, "d95ecdbe71e53a5709d210b917d1e598579c524119685108ca0d1268bf568f19", "d5fe303111f1aafd22a013644cf0a17841921ec947d3214164de1d160a6e4a2a"),
    (("classify", "Z^5+Z/1000000007+Z/12"), 0, "f5a63981552cf03890244fadc0897f44b493a1c0968f9848c239787907c0192b", "ab7ecbfa4f6a500b0eca8f0b9a67d5d44055ab6a8f4f6b1abab826aec0ed55a9"),
    (("homology", "Z^4+Z/2", "3"), 0, "c14b541cf971b0745c780141a6292c6a9b0d1f5468579bbfdb2d42975474773d", "690aaf2dbb0e01dcda249437df4ac48ef0ea14539bd7b73f88d16428f93d18d5"),
    (("homology", "Z^4", "3"), 0, "3074b7ca56aabddeee00e71ae1d5821185d7238e3493e6abdc509ac77a584a3d", "69b7509ebcdb7f6821776d7d8079edc6c1b229993f0bb75696e4e61f2e14a621"),
    (("homology", "Z^18", "8"), 0, "5005eb2b76123692bb0054c9c9fb873aaf7221b46037df36cd5e3ec923fa066b", "ceccc7e7f193ac8cd12d41fd3b3312e1ab74d627f342bf093a849e064f1ae4c0"),
    (("homology", "Z^3+Z/5+Z/5+Z/5+Z/25", "8"), 0, "fb7fbed2c6ac2283bcbc4eb44650f39da4485ea64f4329a721e94ca474f57602", "23d4bafba5e4563c855cdf35790328eecbb359f32dbb890f63eef28a2961c96e"),
    (("homology", _Z2_11, "8"), 0, "29c73c93f990760f8abf76e10f274e07b263ab08071d3fe651b725c465a70f40", "64af59241eac5389a9ccdac580ee68410ba5f418b142feb7219e7f43b1302358"),
    (("homology", "Z/4+Z/6+Z/9", "6"), 0, "e5ecd584a91ac7e216e004390fc10bccd6aa13a62fc8fc3e601a643c5ef56545", "dca0076e6ffb2db015bfd537e3cfa68563e42f3b9927fa3e5a8ec9a36707d649"),
    (("homology", "Z^2+Z/12+Z/18", "5"), 0, "a0aad0daa51c763aed4fffd05ed91d47d2e6d3e632f973d934171398fe461b05", "2a8ff1589ec0db01968e866446f44fbe452711b1410a563d45a8b22313d9b43f"),
    (("homology", "Z+Z/6+Z/35", "4"), 0, "3c7aaed390a304b1938d29f945a19dbdb2a25a28347d6ed8c4f60325d045af0b", "e0c7e44fa926cd89f3d008be782ff0a798999b9836905e5abaecc34e2c671ed7"),
    (("witness", "Z^4"), 0, "8bf1ad11b61a40f478640e9206b286cca83c7ce1e768b846b9e11d43ed9c2104", "175cacb42701117c66432743978a739eb5553050e7793c9e3f92adfe728e1032"),
    (("witness", "Z^4+Z/2"), 0, "556c966800ce1e604eea5bb4a7f4f74efa96a05cae41e4b2fcc1c9334f81e02c", "4ae19777973d07acedcc19b37b903291c07c54bd3e72c7e8556b06c998f5123a"),
    (("witness", "Z^6+Z/3+Z/6"), 0, "b7156623fdcf1b6d1214e00d1e4c118661caec45d4c44e3297d880ea1f581ce8", "f2ab3bdfde55d138bdb59a3994613ee26a840d66da9f8b61346e2aded9e2dcd6"),
    (("witness", "Z^12+Z/2+Z/6"), 0, "d76ebc554ee3564722150a4b6240ed85f3a08fec78a32c8fcaf64190a74b5646", "c1f9f63947242bdad9f94c19742d89181f115eabb992e467754b540efdf5547d"),
    (("witness", "Z^3"), 3, "ec2a84a70703fb0b5bb3e66769dcfd3b66cb081eafab45035047aa46910a6243", "1451b190f435fb7344a52def078ebbf6d61e22e907850dd90f59e7decaa457ad"),
    (("witness", "Z^30+Z/2+Z/4"), 0, "29f474dcdc805cea743fbb1ab2699bbff14b9fe77f402244fab35967f1f448f7", "d91bb18fc9aeb31155adc155843c0fe799561a2b490baa19e526b176ea17e60a"),
    (("classify", f"Z^4+{_Z2_400}"), 0, "9eeebf85f98cdf9d57cd8e040fc7d3d6ac0346b9db8d57feffd7140a707c7f60", "64a9b2e7bd402aa5241e9b77802c030c5c6ada5b497ab02e4e1fb627aad1fb5e"),
    (("homology", "Z^3+Z/6+Z/30+Z/210", "8"), 0, "8b246920af1e92b7e406801103c2c27edc274430c0ab65b521ef271f050b80c6", "494b7f1d149a2349be485bc0e09b3d101d7813fc82a0116108fb77233b67012a"),
    (("witness", "Z^2"), 0, "448881acaabec7be73de33214a57b81a825d164ae17c0bf70d9dc6bf1f22dc47", "1d856dfc41ae167a90537c94aab7e1cbf83f501ae02fc4f920975e5f1516e994"),
    (("witness", "Z"), 3, "8a01f85d50e2ffacb2ce20cfb08b69555ef28857f346026aa88291af0b142443", "eca6eb3089f7ac97cac604e02da7e8283efab82d9f4fa4a2d9915c47012dd3f0"),
    (("witness", "Z^2+Z/2"), 3, "7dfedbf110da412420ddf2b5e16fd6e977d833cb620a047532c8216d35130d84", "5420e44e0d21f7af0f063068e18379813e31fb1b054cb4f2cd6f998280819353"),
]


@pytest.mark.parametrize(
    "argv, code, text_sha, json_sha",
    _GOLDEN,
    ids=[_test_id(argv) for argv, *_ in _GOLDEN],
)
def test_golden_stdout(capsys, argv, code, text_sha, json_sha):
    for fmt, digest in (("text", text_sha), ("json", json_sha)):
        got, out, _ = run(capsys, "--format", fmt, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


_MATRIX_4X4 = "2 4 4 -6\n-6 6 12 10\n10 -4 -16 8\n3 0 7 -5\n"


def _dense_matrix_text(seed, rows, cols, rank=None):
    """Entries in [-9, 9]; with a rank, the rows past it are each a row
    before it minus twice another."""
    rng = random.Random(seed)
    body = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank or rows)]
    while len(body) < rows:
        a, b = rng.sample(body[:rank], 2)
        body.append([x - 2 * y for x, y in zip(a, b)])
    return "".join(" ".join(map(str, r)) + "\n" for r in body)


_DENSE_MATRICES = {
    "dense14.txt": (4404, 14, 14),
    "wide.txt": (4405, 12, 30),
    "tall.txt": (4406, 30, 12),
    "rankdef.txt": (4407, 10, 10, 6),
    "dense40.txt": (4408, 40, 40),
}

# (test id, argv, ...) and otherwise the layout of _GOLDEN, for commands
# that read a file: `fib.txt` and `fib<g>.txt` hold the chain relation on
# the genus-1 and genus-g fiber, `pi1.txt` and `pi1_6.txt` the
# pi1_presentation each prints, `_SMALL_FILES` and the `_DENSE_MATRICES`
# files their text.  The dense `snf` digests were recorded from the Smith
# form that carried U and V forward through every operation (the 40 x 40
# row from the one that logged every clearing step on its own), the
# genus-2..5, one-cycle, empty, genus-2 fibersum and small `snf` rows from
# the implementation that stored each vanishing cycle's homology class
# beside its word.
_GOLDEN_FILES = [
    ("snf", ("snf", "m.txt"), 0, "5b1dbdb76e207caf99157e171ccaeadd6e0dbe83c9c781097f6e181f791cad9b", "8f42b32aeaadc8044f83ccb705bcbdba0aebbdf594a3dd9855846dae835ac415"),
    ("snf dense 14x14", ("snf", "dense14.txt"), 0, "659e9164baf0db6163b81f911edbf8f7b08a928424bd0d169ba232edb07e9bfa", "ae31691cc8f21945fda0ffddf8fcdca067158a5c5e267bb8884bcd6e5d4da964"),
    ("snf dense 12x30", ("snf", "wide.txt"), 0, "bb09ddc5eda6b904c36877442a2f68e488bcefd9bba21a9f1afe249fec8fbaee", "a8c912655aaf46c873a8cca766c62b9576805d64a2cf88fa99d49e705625b6f5"),
    ("snf dense 30x12", ("snf", "tall.txt"), 0, "b7d12367895b45e78a4b1354f93dec8deb44baffff2d220df59eee5c44ece487", "b050164b52f96cf8fa9857398729648cdc16db2bb134c9e0ffee6589c76667a7"),
    ("snf rank 6 10x10", ("snf", "rankdef.txt"), 0, "15873b52cbf9bcbd617b202af32f2a48c04824f43a49eb2f4c2a13699987c633", "2c8edbcf9556246a8b8d29ddbf2593229fede71d48162a98830c6f2a2434347c"),
    ("snf dense 40x40", ("snf", "dense40.txt"), 0, "40510ca2930acc4bebaeefa7f3916bf235ff51e1ae8e8a83bfc64bc70fed7287", "81174f3fa299c9059fd9a85b790c490d1bd1f98173e686fb110620324ec84c96"),
    ("fibration", ("fibration", "fib.txt"), 0, "1ced22b1b93cd35a6a15e25f1b0d4fb14f767479c4b1d4a38bb617afca545c24", "f899e1a5254b8133d5af7c3d7f8468a269e05bc187c33736917e31c07870372e"),
    ("fibersum", ("fibersum", "pi1.txt", "-e", "2"), 0, "298da50736c593d425e5dee720fdaa6a9c890055b01f1085bc43c0c46e7e3c2b", "01ac6a38b0f1dfb0e1abe2a7585d881a600110983edf41e8b0f3132334266aec"),
    ("fibration genus 6", ("fibration", "fib6.txt"), 0, "d7b3a67e804ed628f4d74be4ebec3746f643a06a57e0ea80b9d8999a04847c71", "3452b07234bc532620570f8ddd01a51a3d13c03fc32e3b6e776f0f57ee6fdd59"),
    ("fibersum genus 6 -e 4", ("fibersum", "pi1_6.txt", "-e", "4"), 0, "5f35e65f68a0dd0a57276edce2cf6d1f1b7ab9976fc99bee1a91d0e93f7619c1", "c0821146ec954ce0dfe20276b4a66ff1cdbd2847198cc479bbe2a85798154170"),
    ("fibration genus 2", ("fibration", "fib2.txt"), 0, "13e6559c6213aabdd8ae49b6583e2211d13a8dad805f2564da572eb803e1b7ce", "f537668da7e7dda3f066a904dc8ad7dd16515725e5ac98c3d0fe6c950816542e"),
    ("fibration genus 3", ("fibration", "fib3.txt"), 0, "280dc72a44bf4622d3197f2a41f58a6420c8961a0acbd8f0c540ee16bf035dbe", "9d760a43d07690dc1d7f726e2a8f7b5785f450527b5203ee2bd9290ed7a8ce2d"),
    ("fibration genus 4", ("fibration", "fib4.txt"), 0, "cd499cf4fccaae8035eab8e7f4da29323be3b63370fbf27b16401896eb0fd0ca", "2f1ae0607acd3bfed0041190c9791c25478bf2d60374b6ef0e547927c3d99160"),
    ("fibration genus 5", ("fibration", "fib5.txt"), 0, "e79b206ab5ab25255e00af6210c2f4ef30a7f9afe0f2371db8828c017495bca3", "a0cef05486365d7730cf1b046e6296ff07915eddb73f1f429606f38d728bacc0"),
    ("fibration one cycle caveat", ("fibration", "caveat.txt"), 0, "5ad60d49c5a7313e1f940a39b71615822a28e225e54429fc906e5e6546bf1d08", "ce3944b4a5171878bd7a8a7e9f074e2c5e270ff68f97b9a1a616bbe4050754fc"),
    ("fibration empty", ("fibration", "empty.txt"), 0, "dcd7ff692f65f3e3215511294377951a9c28113d17f73d137038a80707a19f2b", "a0360da770a31867193d689ec920a3aab69f93eaa8787d6b94c8c795d7c629a9"),
    ("fibersum genus 2 -e 2", ("fibersum", "fibered2.txt", "-e", "2"), 0, "872a1e9bf98415c5b4eb6f7f79dce508306a65e26c36c5355aaad667c62af919", "e7d057b488fbe86d678fc3caae462ae27f0f20624fa03102079b7271b5789e8d"),
    ("snf 2x3", ("snf", "m23.txt"), 0, "93c00950ea6abfef901090994569590a84aff58b348541071ceced7fa87e622e", "481dd1e4661b2f24553140fe75dc2dd8ea5d92094a217b745bb96bf390ad88e4"),
    ("snf 3x3 diagonal", ("snf", "m33.txt"), 0, "c0a07c7f9bb37bf7d88a91609c9e77e7ad3936582df0285400a51ac36ad47c7f", "59b160219fb52f490d72a4ece3d815b2841f0123d3cdd5f3fa2755f10e605188"),
]

_SMALL_FILES = {
    "caveat.txt": "fibration one\nfiber_genus 1\ncycle + a1\n",
    "empty.txt": "fibration empty\nfiber_genus 2\n",
    "fibered2.txt": "group x\ngens a1 b1 a2 b2\nrel a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\nrel a2^2\n",
    "m23.txt": "2 4 1\n6 8 3\n",
    "m33.txt": "6 0 0\n0 4 0\n0 0 10\n",
}


@pytest.mark.parametrize(
    "argv, code, text_sha, json_sha",
    [row[1:] for row in _GOLDEN_FILES],
    ids=[row[0] for row in _GOLDEN_FILES],
)
def test_golden_stdout_from_files(capsys, tmp_path, argv, code, text_sha, json_sha):
    (tmp_path / "m.txt").write_text(_MATRIX_4X4)
    for name, args in _DENSE_MATRICES.items():
        (tmp_path / name).write_text(_dense_matrix_text(*args))
    for name, text in _SMALL_FILES.items():
        (tmp_path / name).write_text(text)
    for g in range(2, 6):
        (tmp_path / f"fib{g}.txt").write_text(chain_relation(g))
    for fib, pi1, g in (("fib.txt", "pi1.txt", 1), ("fib6.txt", "pi1_6.txt", 6)):
        (tmp_path / fib).write_text(chain_relation(g))
        _, out, _ = run(capsys, "--format", "json", "fibration", str(tmp_path / fib))
        (tmp_path / pi1).write_text(json.loads(out)["pi1_presentation"])
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    for fmt, digest in (("text", text_sha), ("json", json_sha)):
        got, out, _ = run(capsys, "--format", fmt, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_homology_huge_free_rank_is_counted(capsys):
    m = _MAX_FREE_RANK
    assert parse_group_spec(f"Z^{m}+Z/2") == FgAbelian(m, (2,))
    code, out, _ = run(capsys, "homology", f"Z^{m}", "3")
    assert code == 0
    assert f"H_3 = Z^{math.comb(m, 3)}\n" in out
    assert f"H_2 = Z^{math.comb(m, 2)}\n" in out
    assert "contains_factor_homology_sum: true" in out


def test_classify_with_large_prime_orders(capsys):
    code, out, _ = run(capsys, "classify", "Z^4+Z/1000000000000000003")
    assert code == 0
    assert out == (
        "group: Z^4 + Z/1000000000000000003\n"
        "aspherical: true\n"
        "reason: RankAtLeast4\n"
        "realizable_dims: 4\n"
        "pi2_forced_nonzero_in_dim4: true\n"
        "class_note: -\n"
        "covering_note: -\n"
        "citations: Theorem 1.2; Corollary 5.2; Proposition 5.3\n"
    )
    p60 = 10**59 + 19  # the least prime with 60 digits
    code, out, _ = run(capsys, "--format", "json", "classify", f"Z^5+Z/{p60}+Z/{p60}")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == f"Z^5 + Z/{p60} + Z/{p60}"
    assert payload["reason"] == "RankAtLeast4"
    assert payload["pi2_forced_nonzero_in_dim4"] is True
    code, out, _ = run(capsys, "classify", f"Z^2+Z/{p60}")
    assert code == 3
    assert "reason: RankTwoWithTorsion" in out


def test_homology_of_many_summands_in_bounded_time(capsys):
    # The tuple-spelled fold took about a minute on Z^30 and half a
    # minute on (Z/2)^11; counted, each takes milliseconds.
    for spec, h8 in (("Z^30", f"H_8 = Z^{math.comb(30, 8)}\n"), (_Z2_11, "H_8 = Z/2 + ")):
        start = time.perf_counter()
        code, out, _ = run(capsys, "homology", spec, "8")
        assert time.perf_counter() - start < 1.0, spec
        assert code == 0
        assert h8 in out


def _best_of_3(capsys, *argv):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        times.append(time.perf_counter() - start)
    return min(times), code, out, err


def test_classify_of_many_invariant_factors_in_bounded_time(capsys):
    # Building H_3 for the Hopf flag took about 2 s and 184 MB on
    # (Z/2)^400, and ran out of memory on the 1499 invariant factors of
    # Z/2 + ... + Z/2999; the flag now compares two counts.
    best, code, out, _ = _best_of_3(capsys, "classify", f"Z^4+{_Z2_400}")
    assert best < 0.02
    assert code == 0
    assert "pi2_forced_nonzero_in_dim4: true\n" in out

    orders = range(2, 3000)
    spec = "Z^4+" + "+".join(f"Z/{d}" for d in orders)
    for fmt, digest in (
        ("text", "cd5ef82bf287e5638c54622f94ab884eba0d86c03932ef60977914f31abc17cc"),
        ("json", "43ff16046d932729422c5c234cd0649007b816bdf161dd4924e1cfb7b9281c9c"),
    ):
        start = time.perf_counter()
        code, out, _ = run(capsys, "--format", fmt, "classify", spec)
        assert time.perf_counter() - start < 1.0, fmt
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
    # The digests come from this implementation alone; the group line is
    # also checked against the factorising normalisation.
    expected = reference_from_cyclic_orders([0] * 4 + list(orders)).render()
    assert json.loads(out)["group"] == expected


def test_homology_over_the_summand_limit_exits_2_before_any_work(capsys):
    # Through degree 8, (Z/2)^18 has 1,188,678 torsion summands (about
    # 7 MB of text); through degree 3, Z^4 + (Z/2)^400 has about 1.1e7.
    for argv in (("homology", "+".join(["Z/2"] * 18), "8"), ("homology", f"Z^4+{_Z2_400}", "3")):
        best, code, out, err = _best_of_3(capsys, *argv)
        assert best < 0.05, _test_id(argv)
        assert (code, out) == (2, ""), _test_id(argv)
        assert f"limit of {_MAX_HOMOLOGY_SUMMANDS}" in err


def test_witness_of_rank_40_in_bounded_time(capsys):
    # A dense Smith form of the whole 1129 x 156 relator matrix took about
    # a second; the presolve eliminates every relator and leaves no core.
    start = time.perf_counter()
    code, out, _ = run(capsys, "witness", "Z^40")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "abelianization: Z^40\n" in out
    assert "abelianization_check: PASS" in out


def _no_heavy_work(*args, **kwargs):
    raise AssertionError("a rejected spec reached the work its limit guards")


def test_group_spec_over_the_torsion_limit_exits_2_before_any_work(capsys, monkeypatch):
    # 200 random 31-digit orders have an lcm of about 20,600 bits: the
    # spec used to be normalised in full, and then its largest invariant
    # factor failed to print past Python's 4300-digit limit.
    rng = random.Random(4300)
    orders = [rng.randrange(10**30, 10**31) for _ in range(200)]
    over = [
        "Z^4+" + "+".join(f"Z/{d}" for d in orders),
        f"Z^4+Z/{2**_MAX_TORSION_BITS}",  # one bit over
        f"Z^4+Z/3+Z/{2 ** (_MAX_TORSION_BITS - 1)}",  # the lcm is over, each order under
        "Z^4+Z/" + "9" * (_MAX_TORSION_DIGITS + 1),  # refused before int() reads it
    ]
    monkeypatch.setattr(zlinalg, "_chain_from_counts", _no_heavy_work)
    for spec in over:
        for command in (["classify", spec], ["homology", spec, "3"]):
            code, out, err = run(capsys, *command)
            assert (code, out) == (2, ""), spec[:40]
            assert err == (
                f"error: largest invariant factor over the limit of {_MAX_TORSION_BITS} bits\n"
            )
    monkeypatch.undo()

    # At the limit: a largest factor of exactly _MAX_TORSION_BITS bits (4300
    # digits) prints, and so do the most of the random orders that fit.
    top = 2 ** (_MAX_TORSION_BITS - 1)
    code, out, _ = run(capsys, "classify", f"Z^4+Z/2+Z/{top}")
    assert code == 0
    assert out.startswith(f"group: Z^4 + Z/2 + Z/{top}\n")
    assert len(str(top)) == _MAX_TORSION_DIGITS
    assert run(capsys, "homology", f"Z^4+Z/{top}", "3")[0] == 0
    lcm, k = 1, 0  # the lcm of the first k orders
    while (longer := math.lcm(lcm, orders[k])).bit_length() <= _MAX_TORSION_BITS:
        lcm, k = longer, k + 1
    fits = "Z^4+" + "+".join(f"Z/{d}" for d in orders[:k])
    code, out, _ = run(capsys, "classify", fits)
    assert code == 0
    assert out.splitlines()[0].endswith(f" + Z/{lcm}")
    with pytest.raises(GroupSpecError, match="limit"):
        parse_group_spec(fits + f"+Z/{orders[k]}")


def test_group_spec_over_the_free_rank_limit_exits_2_before_any_work(capsys, monkeypatch):
    # `classify Z^4194304` printed 18 MB of realizable dimensions, and a
    # free rank of 1001 digits failed at Python's int-to-str limit.
    over = [
        f"Z^{_MAX_FREE_RANK + 1}",
        "Z^" + "9" * 1001,
        f"Z^{_MAX_FREE_RANK}+Z/2+Z",  # over after the last term only
    ]
    monkeypatch.setattr(asphericity, "realizable_dimensions", _no_heavy_work)
    monkeypatch.setattr(abhomology, "group_homology_graded", _no_heavy_work)
    for spec in over:
        for command in (["classify", spec], ["homology", spec, "8"], ["witness", spec]):
            code, out, err = run(capsys, *command)
            assert (code, out) == (2, ""), (command[0], spec[:40])
            assert err == f"error: free rank over the limit of {_MAX_FREE_RANK}\n"
    monkeypatch.undo()

    # At the limit: half a million realizable dimensions, in bounded time.
    best, code, out, _ = _best_of_3(capsys, "classify", f"Z^{_MAX_FREE_RANK}+Z/2")
    assert best < 2.0
    assert code == 0
    assert "realizable_dims: 4; 6; 8; " in out
    assert f"; {_MAX_FREE_RANK}\n" in out


def _three_prime_products(n: int) -> list[int]:
    """n distinct products of three primes below 9000, every such prime
    among them: the lcm stays under the torsion limit, and the coprime
    base of the orders is as large as that limit allows."""
    primes = [p for p in range(2, 9000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    orders = dict.fromkeys(math.prod(primes[i : i + 3]) for i in range(len(primes) - 2))
    rng = random.Random(4096)
    while len(orders) < n:
        a, b, c = rng.sample(primes, 3)
        orders[a * b * c] = None
    return list(orders)[:n]


def test_group_spec_over_the_torsion_orders_limit_exits_2_before_any_work(capsys, monkeypatch):
    # 9,381 distinct three-prime products took 4 s; the coprime base costs
    # each distinct order up to about 1,200 gcds.
    worst = _three_prime_products(_MAX_TORSION_ORDERS + 1)
    over = [
        "Z^4+" + "+".join(f"Z/{d}" for d in worst),
        "Z^4+" + "+".join(f"Z/{d}" for d in range(2, _MAX_TORSION_ORDERS + 3)),
    ]
    monkeypatch.setattr(zlinalg, "_chain_from_counts", _no_heavy_work)
    for spec in over:
        for command in (["classify", spec], ["homology", spec, "3"], ["witness", spec]):
            code, out, err = run(capsys, *command)
            assert (code, out) == (2, ""), command[0]
            assert err == (
                f"error: distinct torsion orders over the limit of {_MAX_TORSION_ORDERS}\n"
            )
    monkeypatch.undo()

    # Equal orders count once.
    repeats = "+".join(f"Z/{d}" for d in range(2, _MAX_TORSION_ORDERS + 2) for _ in range(2))
    assert parse_group_spec(repeats).torsion[-1] == math.lcm(*range(2, _MAX_TORSION_ORDERS + 2))

    # At the limit, the worst spec runs in bounded time.
    spec = "Z^4+" + "+".join(f"Z/{d}" for d in worst[:-1])
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", spec)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out.splitlines()[0].endswith(f" + Z/{math.lcm(*worst[:-1])}")


def test_classify_in_a_fresh_interpreter_imports_no_dataclasses_or_json():
    # dataclasses (with inspect, ast, dis and tokenize) and json are most
    # of the standard library a cold start would import; a text report
    # needs neither, and a JSON report imports json when it prints.
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from aspherical.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)), file=sys.stderr); "
        "sys.exit(code)"
    )
    for fmt, loaded, digest in (
        ("text", "[]", "f226f6fc9abe52bf60f00bb8d2d7d083a053f58b168080b34ae6121d81cd8ac3"),
        ("json", "['json']", "54d9da4e0ad892c254abc715de78ef0bbe753a17abee83d57d96a99df488e9ae"),
    ):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, "--format", fmt, "classify", "Z^2"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == loaded + "\n", fmt
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, fmt


def test_plain_argv_in_a_fresh_interpreter_imports_no_argparse():
    # A plain argv is read without argparse, and so without the gettext and
    # locale it loads while building its parser; help and usage errors
    # still come from argparse.
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from aspherical.cli import main; "
        "import atexit; atexit.register(lambda: print("
        "sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)); "
        "sys.exit(main(sys.argv[1:]))"
    )

    def launch(*argv):
        return subprocess.run(
            [sys.executable, "-S", "-c", script, *argv], capture_output=True, text=True, timeout=60
        )

    proc = launch("classify", "Z^2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "f226f6fc9abe52bf60f00bb8d2d7d083a053f58b168080b34ae6121d81cd8ac3"
    )
    proc = launch("--help")
    assert proc.returncode == 0
    assert proc.stdout == reference_parser().format_help()
    assert proc.stdout.startswith("usage: aspherical [-h] [--format {text,json}]")
    assert "'argparse'" in proc.stderr
    proc = launch("not-a-command")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: aspherical")
    assert "invalid choice: 'not-a-command'" in proc.stderr
