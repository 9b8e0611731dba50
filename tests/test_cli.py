import contextlib
import csv
import hashlib
import io
import json
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidinv import BraidWord, closure_components, from_braid_closure
import braidinv
from braidinv import braids, cli, counting, gauss, polynomials, sequences
from braidinv.cli import (
    CONVENTION_LINES,
    MAX_INVARIANT_LETTERS,
    MAX_INVARIANT_STRANDS,
    braid_invariants,
    corollary_table,
    family_exponents,
    family_word,
    last_block_arrows,
    main,
    murasugi_check,
    random_knot_words,
    recurrence_check,
    theorem_table,
)
from braidinv.sequences import lucas


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_word():
    assert family_word(0).letters == ()
    assert family_word(2).letters == (1, -2, 1, -2)
    assert family_word(2).strands == 3


def test_family_exponents_skip_multiples_of_three():
    assert family_exponents(10) == [1, 2, 4, 5, 7, 8, 10]
    assert family_exponents(16)[-1] == 16
    assert len(family_exponents(16)) == 11


def test_last_block_arrows():
    assert list(last_block_arrows(4)) == [2, 3, 4, 5, 6, 7]
    assert list(last_block_arrows(3)) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        last_block_arrows(2)


def test_random_knot_words_are_knots_and_deterministic():
    words = random_knot_words(random.Random(3), 40)
    again = random_knot_words(random.Random(3), 40)
    assert words == again
    assert len(words) == 40
    for w in words:
        assert closure_components(w) == 1
        assert 1 <= len(w) <= 10
        assert w.strands == 3


def test_random_knot_words_refuse_impossible_shapes():
    # Both shapes used to hang or raise IndexError; run each in a fresh
    # process with a timeout so that a hang fails the test.
    for args, message in (
        ("1, max_len=2, strands=5", "no knot on 5 strands has at most 2 letters"),
        ("1, strands=1", "at least 2 strands, got 1"),
    ):
        done = subprocess.run(
            [sys.executable, "-c",
             "import random\n"
             "from braidinv.cli import random_knot_words\n"
             "try:\n"
             f"    random_knot_words(random.Random(0), {args})\n"
             "except ValueError as error:\n"
             "    print(error)\n"],
            capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert message in done.stdout
    # The shortest possible knot words are still found.
    words = random_knot_words(random.Random(0), 5, max_len=4, strands=5)
    assert all(len(w) == 4 and closure_components(w) == 1 for w in words)


def test_theorem_table_values():
    rows = theorem_table(5)
    assert [r.n for r in rows] == [1, 2, 4, 5]
    second = rows[1]
    assert (second.c2, second.det, second.lucas_pred) == (-1, 5, 5)
    assert second.arf_gauss == second.arf_oracle == 1
    assert all(r.match_arf and r.match_det for r in rows)


def test_recurrence_check_cases():
    for case in (1, 2):
        steps = recurrence_check(case, 4)
        assert [s.n for s in steps] == [1, 2, 3, 4]
        assert all(s.parity_ok and s.deletion_ok for s in steps)
        assert steps[0].high_power == 3 + case
        assert steps[0].low_power == case


def test_murasugi_check_consistency():
    rows = murasugi_check(5, samples=20, seed=9)
    assert len(rows) == 4 + 20
    assert all(r.consistent for r in rows)
    assert murasugi_check(5, samples=20, seed=9) == rows
    assert murasugi_check(5, samples=20, seed=10) != rows


def test_corollary_table_rows():
    rows = corollary_table(2)
    assert len(rows) == 8
    by_family = {(r.n, r.family): r for r in rows}
    r = by_family[(1, "12n-2")]
    assert (r.lucas_value, r.residue8, r.residue8_minus2) == (123, 3, 1)
    assert r.square_check == (True, 11)
    r = by_family[(1, "12n+4")]
    assert (r.lucas_value, r.residue8) == (2207, 7)
    assert r.square_check is None
    assert all(r.ok for r in rows)


def test_table_lucas_values_equal_the_lucas_oracle():
    # The tables step through the sequence once; lucas(m) walks it afresh.
    offsets = {label: offset for offset, label in cli._COROLLARY_FAMILIES}
    rows = corollary_table(12)
    assert [r.lucas_value for r in rows] == [lucas(12 * r.n + offsets[r.family]) for r in rows]
    rows = theorem_table(40)
    assert [r.lucas_pred for r in rows] == [lucas(2 * r.n) - 2 for r in rows]


def test_cli_invariants_json(capsys):
    code, out, err = run_cli(
        capsys, "invariants", "--braid", "1 -2", "--power", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record == {
        "word": "1 -2 1 -2",
        "strands": 3,
        "word_length": 4,
        "components": 1,
        "writhe": 0,
        "c2": -1,
        "arf": 1,
        "det": 5,
        "alexander": "-t^-1 + 3 - t",
        "conway": "1 - z^2",
        "oracle_match": True,
    }


def test_cli_invariants_unknot(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--braid", "", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert (record["det"], record["alexander"]) == (1, "1")


def test_cli_invariants_rejects_links(capsys):
    code, out, err = run_cli(capsys, "invariants", "--braid", "1", "--strands", "3")
    assert code == 1
    assert "not a knot" in err or "components" in err


def test_cli_invariants_rejects_bad_words(capsys):
    code, _, err = run_cli(capsys, "invariants", "--braid", "1 spam")
    assert code == 2
    assert "spam" in err
    code, _, _ = run_cli(capsys, "invariants", "--braid", "1", "--power", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "invariants", "--braid", "1", "--strands", "0")
    assert code == 2


def test_cli_invariants_caps_the_powered_word(capsys):
    # At the cap the word is built and found to close to a link (exit 1).
    cap = MAX_INVARIANT_LETTERS
    code, _, err = run_cli(capsys, "invariants", "--braid", "1", "--strands", "3",
                           "--power", str(cap))
    assert code == 1 and "components" in err
    code, _, err = run_cli(capsys, "invariants", "--braid", "1", "--strands", "3",
                           "--power", str(cap + 1))
    assert code == 2 and f"cap of {cap}" in err
    # Rejected before the 2 x 10^9-letter word is built.
    done = subprocess.run(
        [sys.executable, "-m", "braidinv", "invariants", "--braid", "1 -2",
         "--power", "1000000000"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "2000000000 letters" in done.stderr
    assert f"cap of {cap}" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_invariants_refuses_a_power_too_long_to_print(capsys):
    # 12 x (10^4299 - 1) has 4,301 digits, past the interpreter's default
    # integer-string limit, so the refusal must not print the letter count.
    code, out, err = run_cli(capsys, "invariants", "--braid", "1 2 1 2 1 2 1 2 1 2 1 2",
                             "--power", "9" * 4299)
    assert code == 2 and out == ""
    assert f"cap of {MAX_INVARIANT_LETTERS}" in err
    assert "Exceeds the limit" not in err


def test_cli_invariants_caps_the_strand_count(capsys):
    # At the cap the closure is walked and found to be a link (exit 1).
    cap = MAX_INVARIANT_STRANDS
    code, _, err = run_cli(capsys, "invariants", "--braid", "1", "--strands", str(cap))
    assert code == 1 and "components" in err
    inferred = " ".join(str(i) for i in range(1, cap + 1))
    code, _, err = run_cli(capsys, "invariants", "--braid", inferred)
    assert code == 2 and f"{cap + 1} strands" in err and f"cap of {cap}" in err
    code, _, err = run_cli(capsys, "invariants", "--braid", "1", "--strands", str(cap + 1))
    assert code == 2 and f"cap of {cap}" in err
    # Rejected before the closure walk over 3 x 10^7 strands (seconds of work).
    done = subprocess.run(
        [sys.executable, "-m", "braidinv", "invariants", "--braid", "1",
         "--strands", "30000000"],
        capture_output=True, text=True, timeout=5,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "30000000 strands" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_invariants_powers_the_empty_word_without_building_it():
    # The letter cap passes 0 letters times any power; the power of the
    # empty word is the empty word, even past sys.maxsize.
    huge = "100000000000000000000"
    done = subprocess.run(
        [sys.executable, "-m", "braidinv", "invariants", "--braid", "", "--power", huge],
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    _, row = done.stdout.splitlines()
    assert row.split() == "1 0 1 0 0 0 1 1 1 true".split()  # the unknot, word ""
    assert "Traceback" not in done.stderr
    done = subprocess.run(
        [sys.executable, "-m", "braidinv", "invariants", "--braid", "", "--strands", "3",
         "--power", huge],
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 1
    assert "3 components" in done.stderr
    assert "Traceback" not in done.stderr


def test_braid_invariants_builds_the_diagram_once(monkeypatch):
    built = []

    def counted(w):
        built.append(w)
        return from_braid_closure(w)

    for module in (cli, counting):
        monkeypatch.setattr(module, "from_braid_closure", counted)
    w = BraidWord((1, -2, 1, -2), 3)
    record = braid_invariants(w)
    assert built == [w]
    assert (record["c2"], record["writhe"], record["oracle_match"]) == (-1, 0, True)
    with pytest.raises(ValueError, match="closure has 3 components; invariants need a knot"):
        braid_invariants(BraidWord((1, -2, 1, -2, 1, -2), 3))


def test_each_row_builds_one_diagram_and_one_alexander_polynomial(monkeypatch):
    diagrams, alexanders = [], []

    def counter(calls, fn):
        def counted(w):
            calls.append(w)
            return fn(w)
        return counted

    for module in (cli, counting):
        monkeypatch.setattr(module, "from_braid_closure",
                            counter(diagrams, from_braid_closure))
    for module in (cli, polynomials):
        monkeypatch.setattr(module, "alexander_of_closure",
                            counter(alexanders, polynomials.alexander_of_closure))

    rows = theorem_table(10)
    assert len(rows) == 7
    assert diagrams == alexanders == [family_word(row.n) for row in rows]
    diagrams.clear(), alexanders.clear()

    rows = murasugi_check(5, samples=20)
    assert len(rows) == 24
    assert len(diagrams) == len(alexanders) == 24
    assert [str(w) for w in diagrams] == [row.word for row in rows]
    diagrams.clear(), alexanders.clear()

    for case in (1, 2):
        recurrence_check(case, 6)
        assert diagrams == [family_word(3 * n + case) for n in range(7)]
        assert alexanders == []
        diagrams.clear()

    w = BraidWord((1, -2, 1, -2), 3)
    braid_invariants(w)
    assert diagrams == alexanders == [w]


# Words on 8, 12 and 16 strands, keyed by the strand count.
DATA = pathlib.Path(__file__).parent / "data"
WIDE_KNOTS = dict(
    line.split(": ")
    for line in (DATA / "wide_knots.txt").read_text().splitlines()
    if not line.startswith("#")
)

# sha256 of stdout for invocations whose output must not change by one byte;
# each exits 0 with nothing on stderr.
GOLDEN_STDOUT = {
    ("theorem",):
        "3bb673b8f106bd9eadaffb5d3d87c5ae9cad244d735041092117903daccf5c9b",
    ("theorem", "--max", "60", "--format", "csv"):
        "31ab04a199007fc8fb7b91f364b1a3a05a919ad7d78e86616758cd74b5a6d01f",
    ("murasugi",):
        "2d6002e07a25ddbe2d24eae6d7e4573d8c7114e254f5113ccf8c169598ce1a48",
    ("murasugi", "--max", "60", "--format", "json"):
        "fbed515a4a15648d1a29b5cea08de09428bed9748de1127d26179d560d7fb2c5",
    ("recurrence", "--case", "1", "--max", "30"):
        "b64e3898c39f172637375a61dc17e1f29d242081a8ce48e2e45ec65ec8c20463",
    ("recurrence", "--case", "2", "--max", "30"):
        "ec9f639171108bfe7273d44453505e0198de02e28d1f2685b9687b0b1cbd91ba",
    ("invariants", "--braid", "1 -2", "--power", "200"):
        "e26762d078e6506250756bcef5574e70e28ee628abaaece94bccbdc524372781",
    ("invariants", "--braid", "1 -2", "--power", "1000"):
        "e16398732d3cd0b3717fa4f39c2acd6fabd72045b7456a2764f0e003ca1b6f35",
    ("invariants", "--strands", "2", "--braid", "1", "--power", "1999"):
        "bb2a509451905c2028399725bd51ac631d4f1a4e69f68bb9b7c69b2eb45c5adc",
    ("invariants", "--strands", "8", "--braid", WIDE_KNOTS["8"]):
        "a6e10452cb4fe580464a6b46d807caaf74a9820c24fc8b30ce58463df8fd57c6",
    ("invariants", "--strands", "12", "--braid", WIDE_KNOTS["12"]):
        "92cc49554174354ad6f256e4ca81b73611bdefa357477140df2f1701cc8c0d92",
    ("invariants", "--strands", "16", "--braid", WIDE_KNOTS["16"]):
        "bdf475fa0981f30df8f3c8d901e087241b3f179a40191ab295e782a169694d22",
    ("corollary",):
        "a25174df51e0fd6ab01fb3316eb942e6c27d9a6af93a5cb06fd389f07c44eb5a",
    ("corollary", "--max", "300", "--format", "csv"):
        "1bbbea15b1f675919687c45e5fabf471d6a9190e54bbd64873d98fb8f00dfcce",
}


def golden_id(argv):
    # A wide knot's word stands in the test id as its letter count.
    return " ".join(arg if len(arg) < 40 else f"<{len(arg.split())} letters>" for arg in argv)


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=golden_id)
def test_cli_stdout_matches_the_golden_digest(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_cli_reports_internal_errors_without_a_traceback(capsys, monkeypatch):
    def broken(w):
        raise RuntimeError("vanishing determinant for a knot closure")

    monkeypatch.setattr("braidinv.cli.alexander_of_closure", broken)
    code, out, err = run_cli(capsys, "invariants", "--braid", "1 1 1")
    assert code == 1
    assert out == ""
    assert "braidinv: internal error: vanishing determinant" in err
    assert "Traceback" not in err


def test_cli_theorem_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "theorem", "--max", "16", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == (
        "n,word_length,components,arf_gauss,arf_oracle,c2,det,lucas_pred,"
        "match_arf,match_det"
    )
    assert lines[2] == "2,4,1,1,1,-1,5,5,true,true"
    assert lines[-1] == "16,32,1,1,1,5,4870845,4870845,true,true"


def test_cli_json_and_csv_carry_the_same_data(capsys):
    code, json_out, _ = run_cli(capsys, "theorem", "--max", "5", "--format", "json")
    assert code == 0
    records = json.loads(json_out)
    code, csv_out, _ = run_cli(capsys, "theorem", "--max", "5", "--format", "csv")
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(csv_rows) == len(records) > 0
    for record, row in zip(records, csv_rows):
        assert set(record) == set(row)
        for key, value in record.items():
            if isinstance(value, bool):
                expected = "true" if value else "false"
            elif value is None:
                expected = ""
            else:
                expected = str(value)
            assert row[key] == expected


def test_cli_theorem_csv_deterministic(capsys):
    _, first, _ = run_cli(capsys, "theorem", "--max", "16", "--format", "csv")
    _, second, _ = run_cli(capsys, "theorem", "--max", "16", "--format", "csv")
    assert first == second


def test_cli_format_flag_accepted_in_both_positions(capsys):
    _, before, _ = run_cli(capsys, "--format", "csv", "theorem", "--max", "5")
    _, after, _ = run_cli(capsys, "theorem", "--max", "5", "--format", "csv")
    assert before == after
    assert before.startswith("n,")


def test_cli_recurrence(capsys):
    code, out, _ = run_cli(capsys, "recurrence", "--case", "2", "--max", "3")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, _, _ = run_cli(capsys, "recurrence", "--case", "3", "--max", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "recurrence", "--max", "3")
    assert code == 2


def test_cli_corollary_note_only_in_table(capsys):
    code, table_out, _ = run_cli(capsys, "corollary", "--max", "2")
    assert code == 0
    assert "note:" in table_out
    code, csv_out, _ = run_cli(capsys, "corollary", "--max", "2", "--format", "csv")
    assert code == 0
    assert "note:" not in csv_out
    assert len(csv_out.splitlines()) == 9


def test_cli_corollary_json_square_cell(capsys):
    code, out, _ = run_cli(capsys, "corollary", "--max", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    squares = {row["family"]: row["square_check"] for row in rows}
    assert squares["12n-2"] == {"is_square": True, "root": 11}
    assert squares["12n-4"] is None


def test_cli_murasugi_seeded(capsys):
    code, out, _ = run_cli(capsys, "murasugi", "--max", "4", "--seed", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "source,word,arf,det,residue8,consistent"
    assert len(lines) == 1 + 3 + 200
    _, again, _ = run_cli(capsys, "murasugi", "--max", "4", "--seed", "3", "--format", "csv")
    assert again == out


def test_cli_print_convention(capsys):
    code, out, _ = run_cli(capsys, "--print-convention")
    assert code == 0
    assert "c2 pattern: head-tail" in out
    assert "trefoil" in out


def test_cli_usage_errors(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2
    code, _, _ = run_cli(capsys, "theorem", "--max", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("theorem", "--max", "-5", "--print-convention"),
    ("--print-convention", "theorem", "--max", "-5"),
    ("corollary", "--max", "0", "--print-convention"),
    ("--print-convention", "recurrence", "--case", "1", "--max", "0"),
    ("invariants", "--braid", "1", "--power", "-1", "--print-convention"),
    ("--print-convention", "invariants", "--braid", "1", "--strands", "0"),
    ("invariants", "--braid", "1 spam", "--print-convention"),
    ("--print-convention", "invariants", "--braid", "1", "--strands", "65"),
    ("invariants", "--braid", "1 2", "--power", "1001", "--print-convention"),
], ids=" ".join)
def test_cli_usage_errors_print_nothing_to_stdout(capsys, argv):
    # Every argument is checked before the convention lines are printed.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("braidinv: error: ")


def test_cli_print_convention_comes_before_the_table(capsys):
    code, out, _ = run_cli(capsys, "theorem", "--max", "2", "--print-convention")
    lines = out.splitlines()
    assert code == 0
    assert tuple(lines[:3]) == CONVENTION_LINES
    assert lines[3].split()[0] == "n"


@pytest.fixture
def default_digit_limit():
    # The interpreter's default limit on int-to-text conversion, 4,300 digits.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter does not limit int-to-text conversion")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


# Per subcommand: its table function, and the first --max whose largest
# printed value, L(12n + 4) for corollary and L(2n) - 2 for theorem and
# murasugi, has more than 4,300 digits.
FIRST_REFUSED_MAX = {
    "corollary": ("corollary_table", 1715, lambda n: lucas(12 * n + 4)),
    "theorem": ("theorem_table", 10288, lambda n: lucas(2 * n) - 2),
    "murasugi": ("murasugi_check", 10288, lambda n: lucas(2 * n) - 2),
}


@pytest.mark.parametrize("command", list(FIRST_REFUSED_MAX))
def test_cli_refuses_a_max_past_the_digit_limit_before_any_work(
    capsys, monkeypatch, default_digit_limit, command
):
    def refuse(*args, **kwargs):
        raise AssertionError("the table was built")

    table, n, largest = FIRST_REFUSED_MAX[command]
    monkeypatch.setattr(cli, table, refuse)
    for flags in ((), ("--print-convention",)):
        code, out, err = run_cli(capsys, command, "--max", str(n), *flags)
        assert (code, out) == (2, "")
        assert f"--max {n}" in err and "4300 digits" in err
    # The last accepted --max passes the check, and its largest value prints.
    monkeypatch.setattr(cli, table, lambda *args, **kwargs: [])
    code, _, err = run_cli(capsys, command, "--max", str(n - 1), "--format", "csv")
    assert (code, err) == (0, "")
    assert len(str(largest(n - 1))) == 4300


def test_cli_refuses_the_corollary_cap_at_once_in_a_subprocess(default_digit_limit):
    done = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-m", "braidinv",
         "corollary", "--max", "1715"],
        capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "--max 1715" in done.stderr and "4300 digits" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_refuses_a_max_of_thousands_of_digits(capsys, default_digit_limit):
    # Too large for a float, so the digit estimate must not convert it.
    code, out, err = run_cli(capsys, "corollary", "--max", "9" * 4000)
    assert (code, out) == (2, "")
    assert "4300 digits" in err


_COMMANDS = (None, "invariants", "theorem", "recurrence", "corollary", "murasugi", "nonsense")


@st.composite
def cli_argvs(draw):
    # Subcommands, their flags at and around their bounds, malformed tokens,
    # and the common flags before or after the subcommand; at most --max 5
    # and 8 letters, so no argv costs more than a few tenths of a second.
    def pick(*options):
        return draw(st.sampled_from(options))

    command = pick(*_COMMANDS)
    args = []
    if command == "invariants":
        if pick(True, True, False):
            tokens = st.sampled_from(("1", "-1", "2", "-2", "3", "-3", "1", "-1", "0", "x", "#"))
            args += ["--braid", " ".join(draw(st.lists(tokens, max_size=8)))]
        cap = MAX_INVARIANT_LETTERS
        power = pick(None, "-1", "0", "1", "2", str(cap), str(cap + 1), "two")
        strands = pick(None, "-1", "0", "1", "2", "3", "4", "64", "65", "")
        args += ["--power", power] if power else []
        args += ["--strands", strands] if strands is not None else []
    elif command in ("theorem", "recurrence", "corollary", "murasugi"):
        if command == "recurrence":
            case = pick(None, "0", "1", "2", "3")
            args += ["--case", case] if case else []
        n_max = pick(None, "-1", "0", "1", "2", "5", "x", "")
        args += ["--max", n_max] if n_max is not None else []
    common = []
    if draw(st.booleans()):
        common.append(["--format", pick("table", "csv", "json", "xml")])
    if draw(st.booleans()):
        common.append(["--seed", pick("0", "-1", "7", "x")])
    if draw(st.booleans()):
        common.append(["--print-convention"])
    before, after = [], []
    for flag in common:
        (before if draw(st.booleans()) else after).extend(flag)
    extra = pick(*(None,) * 6, "--max", "--bogus", "extra")
    return before + ([command] if command else []) + args + after + ([extra] if extra else [])


@settings(max_examples=180, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
def test_cli_fuzz_exit_codes_and_stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
    assert "Traceback" not in err.getvalue()


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "braidinv", "theorem", "--max", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1].startswith("2,")


def test_package_exports_exactly_the_layer_names():
    # A name deleted from a layer must not linger in the package's re-export.
    layers = (braids, gauss, counting, polynomials, sequences)
    expected = {name for module in layers for name in module.__all__} | {"__version__"}
    assert len(braidinv.__all__) == len(set(braidinv.__all__))
    assert set(braidinv.__all__) == expected
    for module in layers:
        for name in module.__all__:
            assert getattr(braidinv, name) is getattr(module, name)
    assert isinstance(braidinv.__version__, str)


def test_cli_survives_closed_pipe():
    # cli | head must not spray a BrokenPipeError traceback.  The row count
    # is chosen so the output overflows a 64 KiB pipe buffer and the writer
    # really does see the pipe close under it.
    out = subprocess.run(
        f"{sys.executable} -m braidinv corollary --max 200 --format csv | head -2",
        shell=True,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == 2
    assert "BrokenPipeError" not in out.stderr
    assert "Traceback" not in out.stderr
