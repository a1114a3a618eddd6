"""Scenario and topology files: exact line-oriented parsing and formatting.

The number grammar is bit-exact and round-trips: a rational is an optional
minus sign ('-' or the U+2212 character), an integer, and an optional
'/denominator'; a complex entry is a rational, optionally followed by a
sign, an unsigned rational and the suffix 'i'; a pure imaginary may be
written 'i', '-i' or like '2/3i'. Vectors are parenthesized
comma-separated complex entries. No floating point exists on either side
of the grammar.

Block keywords: DIM, OPERATOR <name>, EIGENVALUE <rational> ':' vectors,
STATE <name> vector, CLOSE on|off, QUERY <state> <operator> '{'
eigenvalues '}'. Blank lines and '#' comment lines are ignored. Topology
files use POINTS and OPEN lines instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import SieveLogicError
from .exact import QC, Vector, vector
from .heyting import FiniteTopology, make_topology
from .quantum import (
    OperatorCategory,
    SpectralOperator,
    State,
    build_operator_category,
    make_operator,
    make_state,
    NotInSpectrum,
)


class ParseError(SieveLogicError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownName(SieveLogicError):
    pass


_UNSIGNED = r"\d+(?:/\d+)?"
_RATIONAL = rf"-?{_UNSIGNED}"
_RATIONAL_RE = re.compile(rf"^{_RATIONAL}$")
_COMPLEX_FULL_RE = re.compile(rf"^({_RATIONAL})([+-])({_UNSIGNED})i$")
_IMAG_RE = re.compile(rf"^(-?)({_UNSIGNED})?i$")


def _normalize_minus(text: str) -> str:
    return text.replace("−", "-")


def parse_rational(text: str) -> Fraction:
    t = _normalize_minus(text.strip())
    if not _RATIONAL_RE.match(t):
        raise ValueError(f"not a rational: {text!r}")
    if "/" in t:
        num, den = t.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(t))


def parse_complex(text: str) -> QC:
    t = _normalize_minus(text.strip())
    if _RATIONAL_RE.match(t):
        return QC(parse_rational(t), Fraction(0))
    m = _COMPLEX_FULL_RE.match(t)
    if m:
        re_part = parse_rational(m.group(1))
        im_part = parse_rational(m.group(3))
        return QC(re_part, im_part if m.group(2) == "+" else -im_part)
    m = _IMAG_RE.match(t)
    if m:
        magnitude = parse_rational(m.group(2)) if m.group(2) else Fraction(1)
        return QC(Fraction(0), -magnitude if m.group(1) else magnitude)
    raise ValueError(f"not a complex entry: {text!r}")


def parse_vector(text: str) -> Vector:
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"vector must be parenthesized: {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        raise ValueError("empty vector")
    return vector(parse_complex(part) for part in inner.split(","))


def format_rational(value: Fraction) -> str:
    return str(value)


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


def _split_vectors(text: str, line_no: int, line: str) -> list[Vector]:
    groups = _VECTOR_GROUP_RE.findall(text)
    remainder = _VECTOR_GROUP_RE.sub("", text).replace(",", "").strip()
    if not groups or remainder:
        raise ParseError("expected parenthesized vectors", line_no, _column(line, text))
    try:
        return [parse_vector(g) for g in groups]
    except ValueError as exc:
        raise ParseError(str(exc), line_no, _column(line, text)) from None


def _column(line: str, suffix: str) -> int:
    """The column of the first non-blank character of ``suffix``, a suffix
    of ``line``."""
    return len(line) - len(suffix.lstrip()) + 1


def _meaningful_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def parse_scenario(text: str) -> Scenario:
    dimension: int | None = None
    operators: list[OperatorDecl] = []
    states: dict[str, Vector] = {}
    close = False
    close_seen = False
    queries: list[Query] = []
    current: OperatorDecl | None = None

    for line_no, line in _meaningful_lines(text):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "DIM":
            if dimension is not None:
                raise ParseError("duplicate DIM", line_no, 1)
            try:
                dimension = int(rest)
            except ValueError:
                raise ParseError(f"bad dimension {rest!r}", line_no, 5) from None
            if dimension <= 0:
                raise ParseError("dimension must be positive", line_no, 5)
        elif keyword == "OPERATOR":
            if dimension is None:
                raise ParseError("DIM must precede OPERATOR", line_no, 1)
            if not rest or " " in rest:
                raise ParseError("OPERATOR needs a single name", line_no, 10)
            if any(op.name == rest for op in operators):
                raise ParseError(f"duplicate operator name {rest!r}", line_no, 10)
            current = OperatorDecl(rest, [])
            operators.append(current)
        elif keyword == "EIGENVALUE":
            if current is None:
                raise ParseError("EIGENVALUE outside an OPERATOR block", line_no, 1)
            head, sep, tail = rest.partition(":")
            if not sep:
                raise ParseError("EIGENVALUE needs ': vectors'", line_no, 12)
            try:
                value = parse_rational(head.strip())
            except ValueError as exc:
                raise ParseError(str(exc), line_no, _column(line, rest)) from None
            if any(value == v for v, _ in current.eigendata):
                raise ParseError(
                    f"duplicate eigenvalue {format_rational(value)} in "
                    f"{current.name!r}", line_no, _column(line, rest)
                )
            current.eigendata.append((value, _split_vectors(tail, line_no, line)))
        elif keyword == "STATE":
            name, _, vec_text = rest.partition(" ")
            if not name or not vec_text.strip():
                raise ParseError("STATE needs a name and a vector", line_no, 7)
            if name in states:
                raise ParseError(f"duplicate state name {name!r}", line_no, 7)
            vecs = _split_vectors(vec_text, line_no, line)
            if len(vecs) != 1:
                raise ParseError(
                    "STATE needs exactly one vector", line_no, _column(line, vec_text)
                )
            states[name] = vecs[0]
        elif keyword == "CLOSE":
            if close_seen:
                raise ParseError("duplicate CLOSE", line_no, 1)
            if rest == "on":
                close = True
            elif rest == "off":
                close = False
            else:
                raise ParseError("CLOSE must be 'on' or 'off'", line_no, 7)
            close_seen = True
        elif keyword == "QUERY":
            m = re.match(r"^(\S+)\s+(\S+)\s+\{([^{}]*)\}$", rest)
            if not m:
                raise ParseError(
                    "QUERY needs '<state> <operator> {eigenvalues}'", line_no, 7
                )
            vals = []
            for t in re.finditer(r"[^,\s]+", m.group(3)):
                column = _column(line, rest[m.start(3) + t.start():])
                try:
                    value = parse_rational(t.group())
                except ValueError as exc:
                    raise ParseError(str(exc), line_no, column) from None
                if value in vals:
                    raise ParseError(
                        f"duplicate eigenvalue {format_rational(value)} in QUERY", line_no, column
                    )
                vals.append(value)
            if not vals:
                raise ParseError("QUERY needs at least one eigenvalue", line_no, 7)
            queries.append(Query(m.group(1), m.group(2), tuple(vals)))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no, 1)

    if dimension is None:
        raise ParseError("missing DIM", 1, 1)
    if not operators:
        raise ParseError("scenario declares no operators", 1, 1)
    return Scenario(dimension, operators, states, close, queries)


def parse_topology(text: str) -> FiniteTopology:
    points: list[str] | None = None
    opens: list[list[str]] = []
    for line_no, line in _meaningful_lines(text):
        keyword, _, rest = line.partition(" ")
        if keyword == "POINTS":
            if points is not None:
                raise ParseError("duplicate POINTS", line_no, 1)
            points = rest.split()
            if len(set(points)) != len(points):
                raise ParseError("duplicate point names", line_no, 8)
        elif keyword == "OPEN":
            if points is None:
                raise ParseError("POINTS must precede OPEN", line_no, 1)
            opens.append(rest.split())
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no, 1)
    if points is None:
        raise ParseError("missing POINTS", 1, 1)
    return make_topology(points, opens)


def looks_like_topology(text: str) -> bool:
    for _, line in _meaningful_lines(text):
        return line.split(" ", 1)[0] == "POINTS"
    return False


def scenario_operators(scn: Scenario) -> list[SpectralOperator]:
    """Build and fully validate every declared operator."""
    return [
        make_operator(decl.name, scn.dimension, decl.eigendata)
        for decl in scn.operators
    ]


def scenario_states(scn: Scenario) -> dict[str, State]:
    out = {}
    for name, vec in scn.states.items():
        if len(vec) != scn.dimension:
            raise SieveLogicError(
                f"state {name!r} has length {len(vec)}, expected {scn.dimension}"
            )
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
