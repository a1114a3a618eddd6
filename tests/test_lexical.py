"""Every input file gets a report with a documented exit code.

Numbers longer than the interpreter's int-string limit, operator names
that would make arrow tokens ambiguous, a byte-order mark, and seeded
mutations of the small fixtures (tabs, '->', byte-order marks, non-ASCII
digits, long digit runs) exit 0-3 and never raise.
"""

import io
import random
import re
import sys
from contextlib import redirect_stdout

import pytest

from sievelogic.cli import main
from sievelogic.scenario import ParseError, parse_scenario

from conftest import bundled_fixture

SUBCOMMANDS = ["validate", "category", "valuate", "ks-search", "heyting"]
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(not LIMIT, reason="the interpreter has no int-string limit")


def run(command, path, fmt="record"):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([command, str(path), "--format", fmt])
    return code, buf.getvalue()


def detail(output: str) -> str:
    return dict(line.split(" ", 1) for line in output.splitlines())["detail"]


def big_state_text(digits: int) -> str:
    """One queried state whose first entry has ``digits`` + 1 digits."""
    return ("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1, 0)\nEIGENVALUE -1 : (0, 1)\n"
            f"STATE s (1{'0' * digits}, 1)\nQUERY s z {{1}}\n")


@needs_limit
def test_number_over_the_digit_limit_is_a_parse_error_naming_it():
    text = f"DIM 2\nOPERATOR z\nEIGENVALUE {'7' * (LIMIT + 1)} : (1,0)\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert str(exc.value) == (
        f"line 3, column 12: number over the interpreter's limit of {LIMIT} digits"
    )
    # A number at the limit still reads.
    parse_scenario(f"DIM 2\nOPERATOR z\nEIGENVALUE -{'7' * LIMIT} : (1,0)\n")


@needs_limit
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_probability_too_long_to_print_exits_3(command, tmp_path):
    path = tmp_path / "big.scn"
    path.write_text(big_state_text(LIMIT * 7 // 10))
    code, out = run(command, path)
    if command != "valuate":
        assert code == 0
        return
    assert code == 3
    assert out.splitlines()[2:] == [
        "error SizeLimitExceeded",
        "detail report rendering: a number has more digits than the interpreter's limit "
        f"of {LIMIT} (sys.get_int_max_str_digits())",
        f"guard {LIMIT}",
    ]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_arrow_in_operator_name_exits_2(command, tmp_path):
    path = tmp_path / "arrow.scn"
    path.write_text("DIM 2\n" + "".join(
        f"OPERATOR {name}\nEIGENVALUE 1 : (1,0)\nEIGENVALUE 2 : (0,1)\n"
        for name in ("a", "b->c", "a->b", "c")
    ))
    code, out = run(command, path)
    assert code == 2
    assert detail(out) == "line 5, column 10: operator name 'b->c' contains '->'"


@pytest.mark.parametrize("fmt", ["human", "record"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_byte_order_mark_is_ignored(command, fmt, tmp_path, monkeypatch):
    text = bundled_fixture("sigma_z.scn").read_text(encoding="utf-8")
    reports = []
    for where, prefix in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / where).mkdir()
        (tmp_path / where / "sigma_z.scn").write_text(prefix + text, encoding="utf-8")
        monkeypatch.chdir(tmp_path / where)
        reports.append(run(command, "sigma_z.scn", fmt))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


# --- seeded mutations: every input gets a documented exit code ---------------

MUTATION_BASES = ["sigma_z.scn", "sigma_zx.scn", "sierpinski.top", "vposet.top"]
DETAIL_RE = re.compile(r"detail line (\d+), column (\d+): ")


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        insert = rng.choice([
            "\t", " \t", "->", "\ufeff", rng.choice("\u0663\u06f5\u0967\uff17\u00b2"),
            rng.choice("0123456789") * (3 * (LIMIT or 4000) // 4),
        ])
        if insert == "\ufeff" and rng.random() < 0.5:
            at = 0
        text = text[:at] + insert + text[at:]
    return text


def test_mutated_inputs_exit_0_to_3_without_a_traceback(tmp_path):
    rng = random.Random(23)
    bases = [bundled_fixture(name).read_text(encoding="utf-8") for name in MUTATION_BASES]
    bases.append(big_state_text(LIMIT * 7 // 10 if LIMIT else 3000))
    codes = set()
    for text in bases + [mutate(rng, base) for base in rng.choices(bases, k=150)]:
        path = tmp_path / "case.scn"
        path.write_text(text, encoding="utf-8")
        lines = text.removeprefix("\ufeff").splitlines() or [""]
        for command in SUBCOMMANDS:
            code, out = run(command, path)
            assert code in (0, 1, 2, 3), (command, text)
            codes.add(code)
            m = DETAIL_RE.search(out)
            if code == 2 and m:
                line_no, column = int(m.group(1)), int(m.group(2))
                assert 1 <= column <= len(lines[line_no - 1].rstrip(" \t")) + 1, (out, text)
    assert codes == {0, 1, 2, 3} if LIMIT else codes >= {0, 1, 2}
