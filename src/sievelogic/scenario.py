"""Scenario and topology files: exact line-oriented parsing and formatting.

The number grammar is bit-exact and round-trips: a rational is an optional
minus sign ('-' or the U+2212 character), a run of ASCII digits, and an
optional '/denominator'; a complex entry is a rational, optionally followed
by a sign, an unsigned rational and the suffix 'i'; a pure imaginary may be
written 'i', '-i' or like '2/3i'. Vectors are parenthesized
comma-separated complex entries. No floating point exists on either side
of the grammar.

Block keywords: DIM, OPERATOR <name>, EIGENVALUE <rational> ':' vectors,
STATE <name> vector, CLOSE on|off, QUERY <state> <operator> '{'
eigenvalues '}'. Blank lines and '#' comment lines are ignored. Topology
files use POINTS and OPEN lines instead. Every line is read once as
written: a blank is a run of spaces and tabs, the first token is the
keyword, and an error's column is that of its token in the line.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import SieveLogicError, SizeLimitExceeded
from .exact import QC, Vector, vector
from .heyting import FiniteTopology
from .quantum import (
    NotInSpectrum, OperatorCategory, SpectralOperator, State, build_operator_category,
    make_operator, make_state,
)


class ParseError(SieveLogicError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownName(SieveLogicError):
    pass


_BLANKS = " \t"
_UNSIGNED = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL = rf"-?{_UNSIGNED}"
_RATIONAL_RE = re.compile(_RATIONAL)
_COMPLEX_FULL_RE = re.compile(rf"({_RATIONAL})([+-])({_UNSIGNED})i")
_IMAG_RE = re.compile(rf"(-?)({_UNSIGNED})?i")


def parse_rational(text: str) -> Fraction:
    t = text.strip(_BLANKS).replace("−", "-")
    if not _RATIONAL_RE.fullmatch(t):
        raise ValueError(f"not a rational: {text!r}")
    num, _, den = t.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError:  # only the interpreter's int-string limit refuses matched digits
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"number over the interpreter's limit of {limit} digits") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_complex(text: str) -> QC:
    t = text.strip(_BLANKS).replace("−", "-")
    if _RATIONAL_RE.fullmatch(t):
        return QC(parse_rational(t), Fraction(0))
    m = _COMPLEX_FULL_RE.fullmatch(t)
    if m:
        re_part = parse_rational(m.group(1))
        im_part = parse_rational(m.group(3))
        return QC(re_part, im_part if m.group(2) == "+" else -im_part)
    m = _IMAG_RE.fullmatch(t)
    if m:
        magnitude = parse_rational(m.group(2)) if m.group(2) else Fraction(1)
        return QC(Fraction(0), -magnitude if m.group(1) else magnitude)
    raise ValueError(f"not a complex entry: {text!r}")


def parse_vector(text: str) -> Vector:
    t = text.strip(_BLANKS)
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"vector must be parenthesized: {text!r}")
    inner = t[1:-1].strip(_BLANKS)
    if not inner:
        raise ValueError("empty vector")
    return vector(parse_complex(part) for part in inner.split(","))


def format_rational(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:  # str() refuses only an integer over the interpreter's limit
        limit = sys.get_int_max_str_digits()
        raise SizeLimitExceeded(
            f"report rendering: a number has more digits than the interpreter's limit of "
            f"{limit} (sys.get_int_max_str_digits())", limit,
        ) from None


def format_delta(delta) -> str:
    return "{" + ",".join(format_rational(v) for v in sorted(delta)) + "}"


class OperatorDecl(NamedTuple):
    name: str
    eigendata: list[tuple[Fraction, list[Vector]]]


class Query(NamedTuple):
    state: str
    operator: str
    delta: tuple[Fraction, ...]


class Scenario(NamedTuple):
    dimension: int
    operators: list[OperatorDecl]
    states: dict[str, Vector]
    close_under_questions: bool
    queries: list[Query]


_VECTOR_GROUP_RE = re.compile(r"\([^()]*\)")
_HEAD_RE = re.compile(r"([^ \t]*)[ \t]*")
_TOKEN_RE = re.compile(r"[^ \t]+")


def _vectors(text: str) -> list[Vector]:
    groups = _VECTOR_GROUP_RE.findall(text)
    if not groups or _VECTOR_GROUP_RE.sub("", text).replace(",", "").strip(_BLANKS):
        raise ValueError("expected parenthesized vectors")
    return [parse_vector(g) for g in groups]


def _parsed(parse, text: str, line_no: int, column: int):
    """``parse(text)``, its ValueError reported at ``column`` of line ``line_no``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, column) from None


def _column(line: str, suffix: str) -> int:
    """The column of the first non-blank character of ``suffix``, a suffix
    of ``line``; one past the line's end if ``suffix`` is blank."""
    return len(line) - len(suffix.lstrip(_BLANKS)) + 1


def _head(text: str) -> tuple[str, str]:
    """The first token of ``text`` and what follows the blanks after it."""
    m = _HEAD_RE.match(text)
    return m.group(1), text[m.end():]


def _check_name(kind: str, name: str, marks: tuple[str, ...], line_no: int, column: int) -> None:
    """Names hold none of ``marks``: reports print '{a,b}' sets and 'p->q' arrows."""
    for mark in marks:
        if mark in name:
            raise ParseError(f"{kind} name {name!r} contains {mark!r}", line_no, column)


def _meaningful_lines(text: str):
    """Each line that is not blank or a comment: its number, the line as
    written less trailing blanks, its first token and the rest."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip(_BLANKS)
        keyword, rest = _head(line.lstrip(_BLANKS))
        if keyword and not keyword.startswith("#"):
            yield line_no, line, keyword, rest


def parse_scenario(text: str) -> Scenario:
    dimension: int | None = None
    operators: list[OperatorDecl] = []
    states: dict[str, Vector] = {}
    close: bool | None = None
    queries: list[Query] = []
    current: OperatorDecl | None = None

    for line_no, line, keyword, rest in _meaningful_lines(text):
        first, at = _column(line, line), _column(line, rest)
        if keyword == "DIM":
            if dimension is not None:
                raise ParseError("duplicate DIM", line_no, first)
            if "/" in rest or not _RATIONAL_RE.fullmatch(rest):
                raise ParseError(f"bad dimension {rest!r}", line_no, at)
            dimension = int(_parsed(parse_rational, rest, line_no, at))
            if dimension <= 0:
                raise ParseError("dimension must be positive", line_no, at)
        elif keyword == "OPERATOR":
            if dimension is None:
                raise ParseError("DIM must precede OPERATOR", line_no, first)
            if not rest or _head(rest)[1]:
                raise ParseError("OPERATOR needs a single name", line_no, at)
            _check_name("operator", rest, ("->", ",", "{", "}"), line_no, at)
            if any(op.name == rest for op in operators):
                raise ParseError(f"duplicate operator name {rest!r}", line_no, at)
            current = OperatorDecl(rest, [])
            operators.append(current)
        elif keyword == "EIGENVALUE":
            if current is None:
                raise ParseError("EIGENVALUE outside an OPERATOR block", line_no, first)
            head, sep, tail = rest.partition(":")
            if not sep:
                raise ParseError("EIGENVALUE needs ': vectors'", line_no, at)
            value = _parsed(parse_rational, head.strip(_BLANKS), line_no, at)
            if any(value == v for v, _ in current.eigendata):
                raise ParseError(
                    f"duplicate eigenvalue {format_rational(value)} in {current.name!r}",
                    line_no, at,
                )
            current.eigendata.append((value, _parsed(_vectors, tail, line_no, _column(line, tail))))
        elif keyword == "STATE":
            name, vec_text = _head(rest)
            if not name or not vec_text:
                raise ParseError("STATE needs a name and a vector", line_no, at)
            if name in states:
                raise ParseError(f"duplicate state name {name!r}", line_no, at)
            vec_at = _column(line, vec_text)
            vecs = _parsed(_vectors, vec_text, line_no, vec_at)
            if len(vecs) != 1:
                raise ParseError("STATE needs exactly one vector", line_no, vec_at)
            states[name] = vecs[0]
        elif keyword == "CLOSE":
            if close is not None:
                raise ParseError("duplicate CLOSE", line_no, first)
            if rest not in ("on", "off"):
                raise ParseError("CLOSE must be 'on' or 'off'", line_no, at)
            close = rest == "on"
        elif keyword == "QUERY":
            state, after = _head(rest)
            operator, body = _head(after)
            if not (state and operator and re.fullmatch(r"\{[^{}]*\}", body)):
                raise ParseError("QUERY needs '<state> <operator> {eigenvalues}'", line_no, at)
            vals = []
            for t in _TOKEN_RE.finditer(body.replace(",", " "), 1, len(body) - 1):
                column = _column(line, body[t.start():])
                value = _parsed(parse_rational, t.group(), line_no, column)
                if value in vals:
                    raise ParseError(
                        f"duplicate eigenvalue {format_rational(value)} in QUERY", line_no, column
                    )
                vals.append(value)
            if not vals:
                raise ParseError("QUERY needs at least one eigenvalue", line_no, at)
            queries.append(Query(state, operator, tuple(vals)))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no, first)

    if dimension is None:
        raise ParseError("missing DIM", 1, 1)
    if not operators:
        raise ParseError("scenario declares no operators", 1, 1)
    return Scenario(dimension, operators, states, bool(close), queries)


def parse_topology(text: str) -> FiniteTopology:
    points: list[str] | None = None
    opens: list[list[str]] = []
    for line_no, line, keyword, rest in _meaningful_lines(text):
        if keyword == "POINTS":
            if points is not None:
                raise ParseError("duplicate POINTS", line_no, _column(line, line))
            at, points = _column(line, rest), _TOKEN_RE.findall(rest)
            for t in _TOKEN_RE.finditer(rest):
                _check_name("point", t.group(), (",", "{", "}"), line_no, at + t.start())
            if len(set(points)) != len(points):
                raise ParseError("duplicate point names", line_no, at)
        elif keyword == "OPEN":
            if points is None:
                raise ParseError("POINTS must precede OPEN", line_no, _column(line, line))
            opens.append(_TOKEN_RE.findall(rest))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no, _column(line, line))
    if points is None:
        raise ParseError("missing POINTS", 1, 1)
    return FiniteTopology(frozenset(points), frozenset(map(frozenset, opens)))


def looks_like_topology(text: str) -> bool:
    return next((kw for _, _, kw, _ in _meaningful_lines(text)), "") in ("POINTS", "OPEN")


def scenario_operators(scn: Scenario) -> list[SpectralOperator]:
    """Build and fully validate every declared operator."""
    return [make_operator(decl.name, scn.dimension, decl.eigendata) for decl in scn.operators]


def scenario_states(scn: Scenario) -> dict[str, State]:
    out = {}
    for name, vec in scn.states.items():
        if len(vec) != scn.dimension:
            raise SieveLogicError(f"state {name!r} has length {len(vec)}, expected {scn.dimension}")
        out[name] = make_state(vec)
    return out


def validate_scenario(scn: Scenario, ops: list[SpectralOperator]) -> dict[str, State]:
    """Validate states and queries against built operators; return the states."""
    by_name = {op.name: op for op in ops}
    states = scenario_states(scn)
    for q in scn.queries:
        if q.state not in states:
            raise UnknownName(f"query names unknown state {q.state!r}")
        if q.operator not in by_name:
            raise UnknownName(f"query names unknown operator {q.operator!r}")
        spectrum = set(by_name[q.operator].spectrum)
        missing = [v for v in q.delta if v not in spectrum]
        if missing:
            raise NotInSpectrum(
                f"query eigenvalues {sorted(missing)} not in the spectrum "
                f"of {q.operator!r}"
            )
    return states


def build_scenario_category(scn: Scenario, ops: list[SpectralOperator]) -> OperatorCategory:
    return build_operator_category(ops, close_under_questions=scn.close_under_questions)
