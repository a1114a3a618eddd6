"""Batch commands over scenario and topology files.

Subcommands: validate | category | valuate | ks-search | heyting. Output
is a single report on stdout, either human-readable ("key: value" lines)
or machine-readable ("key value" lines, --format record); both carry the
same fields in the same order, so they agree on every numeric and
membership field and are byte-identical across runs for the same inputs.

Exit codes: 0 success, 1 validation failure, 2 parse failure, 3 size
guard. The search statistics reported are deterministic work counters
(values tried and branches pruned), never wall-clock times, to keep the
determinism contract.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .errors import SieveLogicError, SizeLimitExceeded
from .fincat import FinCategory, arrows_from
from .heyting import (
    HeytingAlgebraTable,
    all_sieves,
    excluded_middle_violations,
    open_set_heyting,
    sieve_algebra,
)
from . import scenario
from .presheaf import DEFAULT_NODE_BUDGET, global_section_search
from .quantum import (
    OperatorCategory, SpectralError, SpectralOperator, State, born_prob, dual_presheaf, nu_state,
)
from .scenario import (
    ParseError,
    Scenario,
    build_scenario_category,
    format_delta,
    format_rational,
    looks_like_topology,
    parse_scenario,
    parse_topology,
    validate_scenario,
)

Pairs = list[tuple[str, str]]


def _render(pairs: Pairs, fmt: str, notes: tuple[str, ...] = ()) -> str:
    if fmt == "record":
        return "".join(f"{k} {v}\n" for k, v in pairs)
    out = [f"{k}: {v}" for k, v in pairs]
    out.extend(notes)
    return "".join(line + "\n" for line in out)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}", 0, 0) from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read {path}: {reason}", 0, 0) from None


def _load_scenario(text: str) -> tuple[Scenario, list[SpectralOperator], dict[str, State]]:
    """The scenario, its operators and its states, each built once; the
    states and queries are validated against the operators."""
    scn = parse_scenario(text)
    ops = scenario.scenario_operators(scn)
    return scn, ops, validate_scenario(scn, ops)


def _format_fn(ocat: OperatorCategory, aid: str) -> str:
    """An arrow's spectrum function as ``a:b`` pairs, read off its level map;
    every spectrum built here is ascending, so the pairs are too."""
    a = ocat.base.arrows[aid]
    cod = ocat.operators[a.cod].spectrum
    return ",".join(
        f"{format_rational(x)}:{format_rational(cod[j])}"
        for x, j in zip(ocat.operators[a.dom].spectrum, ocat.images[aid])
    )


def _format_member_set(members) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def _cmd_validate(path: str, args) -> tuple[Pairs, tuple[str, ...]]:
    scn = _load_scenario(_read(path))[0]
    pairs: Pairs = [
        ("command", "validate"),
        ("scenario", path),
        ("dimension", str(scn.dimension)),
        ("close", "on" if scn.close_under_questions else "off"),
        ("operators", str(len(scn.operators))),
    ]
    for i, decl in enumerate(scn.operators):
        pairs.append((f"operator.{i}.name", decl.name))
        pairs.append(
            (f"operator.{i}.spectrum", format_delta(v for v, _ in decl.eigendata))
        )
    pairs.append(("states", str(len(scn.states))))
    for i, name in enumerate(scn.states):
        pairs.append((f"state.{i}.name", name))
    pairs.append(("queries", str(len(scn.queries))))
    pairs.append(("valid", "true"))
    return pairs, ()


def _category_counts(base: FinCategory) -> Pairs:
    return [
        ("objects", str(len(base.objects))),
        ("arrows", str(len(base.arrows))),
    ]


def _cmd_category(path: str, args) -> tuple[Pairs, tuple[str, ...]]:
    ocat = build_scenario_category(*_load_scenario(_read(path))[:2])
    base = ocat.base
    pairs: Pairs = [("command", "category"), ("scenario", path)]
    pairs.extend(_category_counts(base))
    for i, name in enumerate(base.objects):
        op = ocat.operators[name]
        pairs.append((f"object.{i}.name", name))
        pairs.append((f"object.{i}.spectrum", format_delta(op.spectrum)))
        pairs.append((f"object.{i}.sieves", str(len(all_sieves(base, name)))))
    for i, aid in enumerate(sorted(base.arrows)):
        a = base.arrows[aid]
        pairs.append((f"arrow.{i}.id", aid))
        pairs.append((f"arrow.{i}.dom", a.dom))
        pairs.append((f"arrow.{i}.cod", a.cod))
        pairs.append((f"arrow.{i}.fn", _format_fn(ocat, aid)))
    return pairs, ()


def _cmd_valuate(path: str, args) -> tuple[Pairs, tuple[str, ...]]:
    scn, ops, states = _load_scenario(_read(path))
    if not scn.queries:
        raise SieveLogicError("valuate needs at least one QUERY")
    ocat = build_scenario_category(scn, ops)
    # Each arrow's spectrum function, formatted once per report.
    fn_of = cache(lambda aid: _format_fn(ocat, aid))
    pairs: Pairs = [("command", "valuate"), ("scenario", path)]
    for i, q in enumerate(scn.queries):
        state = states[q.state]
        op = ocat.operator(q.operator)
        sieve = nu_state(ocat, state, q.operator, q.delta)
        prob = born_prob(state, op, q.delta)
        # nu_state picks from the arrows out of the context alone.
        if len(sieve.members) == len(arrows_from(ocat.base, q.operator)):
            kind = "principal"
        elif not sieve.members:
            kind = "empty"
        else:
            kind = "intermediate"
        pairs.append((f"query.{i}.state", q.state))
        pairs.append((f"query.{i}.operator", q.operator))
        pairs.append((f"query.{i}.delta", format_delta(q.delta)))
        pairs.append((f"query.{i}.probability", format_rational(prob)))
        pairs.append((f"query.{i}.sieve.kind", kind))
        pairs.append((f"query.{i}.sieve.size", str(len(sieve.members))))
        for j, aid in enumerate(sieve.sorted_members()):
            arrow = ocat.base.arrows[aid]
            pairs.append((f"query.{i}.sieve.member.{j}.arrow", aid))
            pairs.append((f"query.{i}.sieve.member.{j}.target", arrow.cod))
            pairs.append((f"query.{i}.sieve.member.{j}.fn", fn_of(aid)))
    return pairs, ()


def _cmd_ks_search(path: str, args) -> tuple[Pairs, tuple[str, ...]]:
    ocat = build_scenario_category(*_load_scenario(_read(path))[:2])
    result = global_section_search(dual_presheaf(ocat), node_budget=args.guard)
    pairs: Pairs = [("command", "ks-search"), ("scenario", path)]
    pairs.extend(_category_counts(ocat.base))
    pairs.append(("sections", str(len(result.sections))))
    for i, section in enumerate(result.sections):
        for name in ocat.base.objects:
            pairs.append((f"section.{i}.{name}", format_rational(section.choice[name])))
    if not result.sections:
        pairs.append(("certificate", "KS-obstruction"))
    pairs.append(("work.nodes", str(result.nodes)))
    pairs.append(("work.prunes", str(result.prunes)))
    notes = ("KS obstruction certified",) if not result.sections else ()
    return pairs, notes


def _table_pairs(prefix: str, table: HeytingAlgebraTable, label) -> Pairs:
    els = table.elements
    pairs: Pairs = [(f"{prefix}.elements", str(len(els)))]
    pairs.extend((f"{prefix}.element.{i}", label(el)) for i, el in enumerate(els))
    pairs.append((f"{prefix}.zero", str(table.zero_index)))
    pairs.append((f"{prefix}.one", str(table.one_index)))
    # Every cell is an element index: render each index once per table.
    index = [str(k) for k in range(len(els))]
    for op_name, rows in (
        ("meet", table.meet_rows), ("join", table.join_rows), ("implies", table.implies_rows)
    ):
        pairs.extend(
            (f"{prefix}.{op_name}.{i}", ",".join([index[k] for k in row]))
            for i, row in enumerate(rows)
        )
    pairs.append((f"{prefix}.not", ",".join([index[k] for k in table.not_row])))
    violations = excluded_middle_violations(table)
    pairs.append((f"{prefix}.excluded_middle_violations", str(len(violations))))
    for i, el in enumerate(violations):
        pairs.append((f"{prefix}.excluded_middle_violation.{i}", label(el)))
    return pairs


def _cmd_heyting(path: str, args) -> tuple[Pairs, tuple[str, ...]]:
    text = _read(path)
    pairs: Pairs = [("command", "heyting"), ("scenario", path)]
    if looks_like_topology(text):
        table = open_set_heyting(parse_topology(text))
        pairs.append(("kind", "topology"))
        pairs.extend(_table_pairs("topology", table, _format_member_set))
    else:
        ocat = build_scenario_category(*_load_scenario(text)[:2])
        pairs.append(("kind", "scenario"))
        pairs.extend(_category_counts(ocat.base))
        for name in ocat.base.objects:
            table = sieve_algebra(ocat.base, name)
            pairs.extend(
                _table_pairs(
                    f"object.{name}", table,
                    lambda s: _format_member_set(s.members),
                )
            )
    return pairs, ()


_COMMANDS = {
    "validate": _cmd_validate,
    "category": _cmd_category,
    "valuate": _cmd_valuate,
    "ks-search": _cmd_ks_search,
    "heyting": _cmd_heyting,
}


def _budget(text: str) -> int:
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievelogic",
        description="Exact presheaf-topos reports over scenario and topology files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("path", help="scenario (.scn) or topology (.top) file")
        p.add_argument(
            "--format", choices=("human", "record"), default="human",
            help="report format (default: human)",
        )
        if name == "ks-search":
            p.add_argument(
                "--guard", type=_budget, default=DEFAULT_NODE_BUDGET,
                help="override the search size guard (node budget: values tried, an integer >= 1)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    code, notes = 0, ()
    try:
        pairs, notes = _COMMANDS[args.command](args.path, args)
    except SieveLogicError as exc:
        code, error = 1, [("error", type(exc).__name__)]
        if isinstance(exc, ParseError):
            code = 2
        elif isinstance(exc, SpectralError):
            # Operator-law failures surface as invariant violations naming
            # the operator and the broken law.
            error = [("error", "InvariantViolation"), ("law", type(exc).__name__)]
        pairs = [("command", args.command), ("scenario", args.path), *error, ("detail", str(exc))]
        if isinstance(exc, SizeLimitExceeded):
            code = 3
            pairs.append(("guard", str(exc.limit)))
    sys.stdout.write(_render(pairs, args.format, notes))
    return code


def run() -> None:
    """The command-line entry point: ``main()``, then flush both streams and
    end the process with its exit code at once.

    Once the report is flushed nothing is left to do, so the process skips
    interpreter teardown (freeing every module and object), which costs
    about as much as a small report. ``SystemExit`` from argument parsing
    and uncaught exceptions propagate and exit the usual way.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
