"""In-process tracing of the CLI's layer calls.

The engine has no spans of its own yet, so the tracer wraps the public
functions a CLI subcommand calls, by name, in the modules that call them,
and restores the originals afterwards. Each call becomes a span (name,
start, end, parent, report id) kept in memory; counters are taken from the
returned values once the report is done, so counting costs no span time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Per-layer metrics in the order they are printed. Times are self times
# summed over one traced batch; counts are summed over the same batch.
TIMES = (
    "scenario.parse_s",
    "scenario.validate_s",
    "quantum.make_operator_s",
    "quantum.build_category_s",
    "quantum.dual_presheaf_s",
    "quantum.nu_state_s",
    "quantum.born_prob_s",
    "exact.verify_s",
    "presheaf.search_s",
    "heyting.all_sieves_s",
    "heyting.sieve_algebra_s",
    "heyting.open_set_heyting_s",
    "cli.main_s",
    "cli.self_s",
)
COUNTS = (
    "scenario.operators",
    "scenario.queries",
    "quantum.objects",
    "quantum.arrows",
    "quantum.max_spectrum",
    "quantum.sieve_members",
    "exact.matrix_entries",
    "fincat.composition_entries",
    "fincat.composable_triples",
    "presheaf.search.nodes",
    "presheaf.search.sections",
    "heyting.sieves",
    "heyting.table_cells",
    "cli.report_bytes",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    report: int
    result: object = field(default=None, repr=False)


class Tracer:
    """Spans and counters for one traced batch."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.report = -1

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.report)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _wrap(tracer: Tracer, name: str, fn, skip_inside: str | None = None):
    def traced(*args, **kwargs):
        if skip_inside is not None and tracer.current() == skip_inside:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            span.result = fn(*args, **kwargs)
        return span.result
    return traced


# (module, attribute, span name). Names are patched where they are looked
# up: the CLI imports them into its own namespace, while build_scenario_
# category and sieve_algebra find theirs as globals of their own modules.
_TARGETS = (
    ("cli", "parse_scenario", "scenario.parse"),
    ("cli", "parse_topology", "scenario.parse"),
    ("cli", "validate_scenario", "scenario.validate"),
    ("scenario", "scenario_operators", "quantum.make_operator"),
    ("scenario", "build_operator_category", "quantum.build_category"),
    ("cli", "dual_presheaf", "quantum.dual_presheaf"),
    ("cli", "nu_state", "quantum.nu_state"),
    ("cli", "born_prob", "quantum.born_prob"),
    ("cli", "global_section_search", "presheaf.search"),
    ("cli", "all_sieves", "heyting.all_sieves"),
    ("heyting", "all_sieves", "heyting.all_sieves"),
    ("cli", "sieve_algebra", "heyting.sieve_algebra"),
    ("cli", "open_set_heyting", "heyting.open_set_heyting"),
)


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Patch every traced call for the duration of the block.

    validate_scenario builds every operator once (build #1) through
    scenario_operators; that call stays inside scenario.validate, and only
    the second build, from build_scenario_category, is quantum.make_operator.
    """
    saved = []
    try:
        for mod, attr, name in _TARGETS:
            module = modules[mod]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            skip = "scenario.validate" if attr == "scenario_operators" else None
            setattr(module, attr, _wrap(tracer, name, original, skip))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _composable_triples(base) -> int:
    into = defaultdict(int)
    out = defaultdict(int)
    for a in base.arrows.values():
        out[a.dom] += 1
        into[a.cod] += 1
    return sum(into[a.dom] * out[a.cod] for a in base.arrows.values())


def count_report(tracer: Tracer, first_span: int) -> None:
    """Take the counters of the spans from ``first_span`` on, then drop
    the results they hold."""
    c = tracer.counts
    for span in tracer.spans[first_span:]:
        r = span.result
        if span.name == "scenario.parse" and hasattr(r, "operators"):
            c["scenario.operators"] += len(r.operators)
            c["scenario.queries"] += len(r.queries)
        elif span.name == "quantum.build_category":
            base = r.base
            c["quantum.objects"] += len(base.objects)
            c["quantum.arrows"] += len(base.arrows)
            c["quantum.max_spectrum"] = max(
                c["quantum.max_spectrum"], max(len(op.spectrum) for op in r.operators.values())
            )
            c["fincat.composition_entries"] += len(base.composition)
            c["fincat.composable_triples"] += _composable_triples(base)
        elif span.name == "quantum.nu_state":
            c["quantum.sieve_members"] += len(r.members)
        elif span.name == "presheaf.search":
            c["presheaf.search.nodes"] += r.nodes
            c["presheaf.search.sections"] += len(r.sections)
        elif span.name == "heyting.all_sieves":
            c["heyting.sieves"] += len(r)
        elif span.name in ("heyting.sieve_algebra", "heyting.open_set_heyting"):
            c["heyting.table_cells"] += len(r.elements) ** 2
        elif span.name == "exact.verify":
            c["exact.matrix_entries"] += r
        span.result = None


def verify_probe(tracer: Tracer, verify, first_span: int) -> None:
    """Run the exact verifier over every operator of every category built
    since ``first_span``: outside the report path, nearly all exact matrix
    work, so it isolates the exact layer."""
    categories = [s.result for s in tracer.spans[first_span:]
                  if s.name == "quantum.build_category"]
    for ocat in categories:
        with tracer.span("exact.verify") as span:
            entries = 0
            for op in ocat.operators.values():
                verify(op)
                entries += len(op.projectors) * op.dim * op.dim
            span.result = entries


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per layer (span name) plus cli.self_s, summed over spans."""
    totals: dict[str, float] = defaultdict(float)
    own = tracer.self_times()
    for span, t in zip(tracer.spans, own):
        totals["cli.self_s" if span.name == "cli.main" else span.name + "_s"] += t
    totals["cli.main_s"] = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main")
    return {name: totals.get(name, 0.0) for name in TIMES}


def additivity_errors(tracer: Tracer) -> list[int]:
    """Reports whose stage self times plus cli.self_s do not add up to the
    cli.main span (they must, up to rounding)."""
    own = tracer.self_times()
    per_report: dict[int, float] = defaultdict(float)
    main: dict[int, float] = {}
    inside: set[int] = set()
    for i, span in enumerate(tracer.spans):
        if span.name == "cli.main":
            main[span.report] = span.end - span.start
            inside.add(i)
        elif span.parent in inside:
            inside.add(i)
        if i in inside:
            per_report[span.report] += own[i]
    return [r for r, total in main.items() if abs(per_report[r] - total) > 1e-6 * max(total, 1e-3)]


def dump(tracer: Tracer) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.report] for s in tracer.spans]
