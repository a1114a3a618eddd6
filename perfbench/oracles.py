"""Answer checks that never import the engine.

Expectations are derived from rays, subspaces, set partitions and upper
sets with plain ``Fraction`` arithmetic; reports are parsed from their
``key: value`` lines and compared against them. Every check returns a
list of problems, empty when the report is right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# Exact linear algebra on rays


def _entry(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, tuple):
        return Fraction(x[0]), Fraction(x[1])
    return Fraction(x), Fraction(0)


def _inner(u, v) -> tuple[Fraction, Fraction]:
    """<u, v>, conjugate-linear in u, as (re, im)."""
    re = im = Fraction(0)
    for x, y in zip(u, v):
        a, b = _entry(x)
        c, d = _entry(y)
        re += a * c + b * d
        im += a * d - b * c
    return re, im


def born_probabilities(state, levels) -> dict:
    """Probability of each eigenvalue for a one-ray-per-level basis."""
    norm = _inner(state, state)[0]
    out = {}
    for value, ray in levels:
        re, im = _inner(ray, state)
        out[value] = (re * re + im * im) / (_inner(ray, ray)[0] * norm)
    return out


def closed_sieve_size(probs: dict, delta: set) -> int:
    """Size of the state's sieve at (A, delta) in a question-closed category.

    Out of A go the identity, one arrow per proper nonempty subset S of the
    spectrum (to the yes/no question of S) and two to the constants. The
    question arrow is in the sieve when the coarse-grained proposition is
    certain: delta inside S needs P(S) = 1, delta outside S needs
    P(not S) = 1, and a delta meeting both maps onto {0, 1}, always certain.
    """
    spectrum = list(probs)

    def certain(values) -> bool:
        return sum((probs[v] for v in values), Fraction(0)) == 1

    size = 2 + certain(delta)
    for k in range(1, len(spectrum)):
        for subset in itertools.combinations(spectrum, k):
            s = set(subset)
            if delta <= s:
                size += certain(s)
            elif not delta & s:
                size += certain(set(spectrum) - s)
            else:
                size += 1
    return size


def _rref(vectors) -> tuple:
    """Canonical reduced row-echelon form of the span of real rays, as a
    hashable key: two sets of rays span one subspace iff the keys agree."""
    mat = [[Fraction(x) for x in v] for v in vectors]
    pivot_row = 0
    for col in range(len(mat[0])):
        pick = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if pick is None:
            continue
        mat[pivot_row], mat[pick] = mat[pick], mat[pivot_row]
        lead = mat[pivot_row][col]
        mat[pivot_row] = [x / lead for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
    return tuple(tuple(row) for row in mat[:pivot_row])


# ---------------------------------------------------------------------------
# Question-closed scenarios: counts and global sections


@dataclass(frozen=True)
class KsExpect:
    """What a ks-search report on a question-closed scenario must say."""

    objects: int
    arrows: int
    names: tuple[str, ...]
    sections: frozenset  # tuples of chosen eigenvalues, one per declared basis
    ray_colourings: int


def _solve(n_bases: int, sizes: list[int], groups: list[list[tuple[int, int]]]):
    """All choices of one level per basis such that, in every group, the
    members (basis, level mask) agree on whether the choice lies in the mask."""
    by_basis: list[list[tuple[int, list]]] = [[] for _ in range(n_bases)]
    for group in groups:
        for b, mask in group:
            by_basis[b].append((mask, group))
    choice = [None] * n_bases
    found = []

    def extend(b: int) -> None:
        if b == n_bases:
            found.append(tuple(choice))
            return
        for level in range(sizes[b]):
            choice[b] = level
            ok = True
            for mask, group in by_basis[b]:
                mine = bool(mask >> level & 1)
                for other, other_mask in group:
                    if other < b and bool(other_mask >> choice[other] & 1) != mine:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                extend(b + 1)
        choice[b] = None

    extend(0)
    return found


def closed_ks_expectation(bases: list[list[tuple]], names: list[str]) -> KsExpect:
    """Objects, arrows and global sections of the dual presheaf of the
    question-closed category of these one-ray-per-level bases.

    The yes/no question of a spectral subset is determined by the subspace
    it spans, so bases that span one subspace share that question and must
    agree on it. Shared rays are the one-dimensional case: keeping only
    those gives the plain Kochen-Specker ray colourings.
    """
    subspaces: dict[tuple, list[tuple[int, int]]] = {}
    arrows = 4  # const0 and const1: identity and one arrow to the other
    for b, levels in enumerate(bases):
        n = len(levels)
        arrows += 1 + (2 ** n - 2) + 2
        for mask in range(1, 2 ** n - 1):
            key = _rref([levels[i][1] for i in range(n) if mask >> i & 1])
            subspaces.setdefault(key, []).append((b, mask))
    # A question arrows to itself, its complement and the two constants;
    # the two questions of a two-level basis also arrow back to the basis,
    # and bases with the same rays (relabelled) arrow to each other.
    arrows += 4 * len(subspaces) + 2 * sum(len(levels) == 2 for levels in bases)
    ray_sets = [frozenset(_rref([ray]) for _, ray in levels) for levels in bases]
    arrows += sum(a != b and ray_sets[a] == ray_sets[b]
                  for a in range(len(bases)) for b in range(len(bases)))
    objects = len(bases) + len(subspaces) + 2
    sizes = [len(levels) for levels in bases]
    groups = [g for g in subspaces.values() if len(g) > 1]
    solutions = _solve(len(bases), sizes, groups)
    ray_groups = [g for key, g in subspaces.items() if len(key) == 1 and len(g) > 1]
    colourings = len(_solve(len(bases), sizes, ray_groups))
    sections = frozenset(
        tuple(bases[b][level][0] for b, level in enumerate(sol)) for sol in solutions
    )
    return KsExpect(objects, arrows, tuple(names), sections, colourings)


@dataclass(frozen=True)
class HeytingScenarioExpect:
    objects: int
    arrows: int


@dataclass(frozen=True)
class HeytingTopologyExpect:
    opens: frozenset


@dataclass(frozen=True)
class CategoryExpect:
    """Objects in declaration order with spectra, arrows by endpoints with
    their spectrum functions, and the sieve count per object."""

    objects: tuple[tuple[str, tuple[Fraction, ...]], ...]
    arrows: dict
    sieves: dict


@dataclass(frozen=True)
class ValuateExpect:
    """Per query: probability, sieve kind and sieve size."""

    queries: tuple[tuple[Fraction, str, int], ...]


# ---------------------------------------------------------------------------
# Unclosed scenarios of coarse-grainings: arrows by partition refinement


def partition_arrows(labelled: list[tuple[str, dict]], n: int) -> CategoryExpect:
    """Objects, arrows and sieve counts for operators that are all
    functions of one n-level operator, given as index -> eigenvalue maps.

    X -> Y exists exactly when the partition of X refines that of Y; its
    function sends X's value on each index to Y's value there.
    """
    objects = tuple((name, tuple(sorted(set(m.values())))) for name, m in labelled)
    arrows = {}
    for (xn, xm), (yn, ym) in itertools.product(labelled, repeat=2):
        if all(ym[i] == ym[j] for i in range(n) for j in range(n) if xm[i] == xm[j]):
            arrows[(xn, yn)] = {xm[i]: ym[i] for i in range(n)}
    sieves = {}
    for xn, _ in labelled:
        ups = [yn for (d, yn) in arrows if d == xn]
        above = {y: {z for (d, z) in arrows if d == y} for y in ups}
        sieves[xn] = sum(
            1 for k in range(len(ups) + 1) for chosen in itertools.combinations(ups, k)
            if all(above[y] <= set(chosen) for y in chosen)
        )
    return CategoryExpect(objects, arrows, sieves)


# ---------------------------------------------------------------------------
# Finite posets


def upper_sets(order: dict[str, set[str]]) -> list[frozenset]:
    """Every up-closed subset of the points (the opens of the topology)."""
    points = sorted(order)
    out = []
    for mask in range(1 << len(points)):
        chosen = {p for i, p in enumerate(points) if mask >> i & 1}
        if all(order[p] <= chosen for p in chosen):
            out.append(frozenset(chosen))
    return out



# ---------------------------------------------------------------------------
# Reports


def parse_report(text: str) -> dict[str, str]:
    """``key: value`` lines of a human-format report; note lines are skipped."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def split_members(label: str) -> frozenset:
    """Members of a printed ``{a,b,...}`` set; object names may contain
    commas inside square brackets, so split only at bracket depth 0."""
    inner = label[1:-1]
    members, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            members.append(inner[start:i])
            start = i + 1
    if inner:
        members.append(inner[start:])
    return frozenset(members)


def check_table(fields: dict, prefix: str) -> tuple[list[str], list[frozenset]]:
    """Check one printed Heyting table: meet is intersection, join is union,
    implies satisfies the adjunction, not is implies-zero, and the excluded
    middle violations are exactly the x with x join not-x below one."""
    problems = []
    n = int(fields[f"{prefix}.elements"])
    sets = [split_members(fields[f"{prefix}.element.{i}"]) for i in range(n)]
    universe = sorted(set().union(*sets))
    bit = {m: 1 << k for k, m in enumerate(universe)}
    el = [sum(bit[m] for m in s) for s in sets]

    def rows(op):
        return [[int(x) for x in fields[f"{prefix}.{op}.{i}"].split(",")] for i in range(n)]

    meet, join, imp = rows("meet"), rows("join"), rows("implies")
    neg = [int(x) for x in fields[f"{prefix}.not"].split(",")]
    zero, one = int(fields[f"{prefix}.zero"]), int(fields[f"{prefix}.one"])
    if len(set(el)) != n:
        problems.append(f"{prefix}: repeated elements")
    if el[zero] != 0 or el[one] != (1 << len(universe)) - 1:
        problems.append(f"{prefix}: zero or one is not the bottom or top set")
    for i in range(n):
        for j in range(n):
            if el[meet[i][j]] != el[i] & el[j]:
                problems.append(f"{prefix}: meet {i},{j} is not the intersection")
            if el[join[i][j]] != el[i] | el[j]:
                problems.append(f"{prefix}: join {i},{j} is not the union")
    if problems:
        return problems, sets
    # Elements are closed under union (join checked above), so the largest
    # z with z meet x <= y is the union of all such z.
    for i in range(n):
        by_cut: dict[int, int] = {}
        for z in el:
            cut = z & el[i]
            by_cut[cut] = by_cut.get(cut, 0) | z
        for j in range(n):
            best = 0
            for cut, union in by_cut.items():
                if cut & ~el[j] == 0:
                    best |= union
            if el[imp[i][j]] != best:
                problems.append(f"{prefix}: implies {i},{j} breaks the adjunction")
        if neg[i] != imp[i][zero]:
            problems.append(f"{prefix}: not {i} differs from {i} implies zero")
    violations = [i for i in range(n) if el[i] | el[neg[i]] != el[one]]
    if int(fields[f"{prefix}.excluded_middle_violations"]) != len(violations):
        problems.append(f"{prefix}: wrong excluded-middle violation count")
    else:
        for k, i in enumerate(violations):
            if split_members(fields[f"{prefix}.excluded_middle_violation.{k}"]) != sets[i]:
                problems.append(f"{prefix}: wrong excluded-middle violation {k}")
    return problems, sets


def _expect_fields(fields: dict, want: dict) -> list[str]:
    return [
        f"{key}: expected {value!r}, got {fields.get(key)!r}"
        for key, value in want.items() if fields.get(key) != value
    ]


def check_ks(fields: dict, exp: KsExpect) -> list[str]:
    problems = _expect_fields(fields, {
        "command": "ks-search",
        "objects": str(exp.objects),
        "arrows": str(exp.arrows),
        "sections": str(len(exp.sections)),
    })
    if problems:
        return problems
    if ("certificate" in fields) != (not exp.sections):
        problems.append("certificate line present exactly when no section exists")
    printed = {
        tuple(Fraction(fields[f"section.{i}.{name}"]) for name in exp.names)
        for i in range(len(exp.sections))
    }
    if printed != exp.sections:
        problems.append("printed sections differ from the oracle's colourings")
    if int(fields.get("work.nodes", "0")) < 1:
        problems.append("work.nodes missing")
    return problems


def check_category(fields: dict, exp) -> list[str]:
    want = {"command": "category", "objects": str(len(exp.objects)),
            "arrows": str(len(exp.arrows))}
    for i, (name, spectrum) in enumerate(exp.objects):
        want[f"object.{i}.name"] = name
        want[f"object.{i}.spectrum"] = "{" + ",".join(str(v) for v in spectrum) + "}"
        want[f"object.{i}.sieves"] = str(exp.sieves[name])
    problems = _expect_fields(fields, want)
    printed = {}
    for i in range(len(exp.arrows)):
        fn = {}
        for pair in fields.get(f"arrow.{i}.fn", "").split(","):
            a, _, b = pair.partition(":")
            fn[Fraction(a)] = Fraction(b)
        printed[(fields.get(f"arrow.{i}.dom"), fields.get(f"arrow.{i}.cod"))] = fn
    if printed != exp.arrows:
        problems.append("arrows or their functions differ from partition refinement")
    return problems


def check_valuate(fields: dict, exp) -> list[str]:
    want = {"command": "valuate"}
    for i, (prob, kind, size) in enumerate(exp.queries):
        want[f"query.{i}.probability"] = str(prob)
        want[f"query.{i}.sieve.kind"] = kind
        want[f"query.{i}.sieve.size"] = str(size)
    return _expect_fields(fields, want)


def check_heyting_scenario(fields: dict, exp) -> list[str]:
    problems = _expect_fields(fields, {
        "command": "heyting", "kind": "scenario",
        "objects": str(exp.objects), "arrows": str(exp.arrows),
    })
    prefixes = [k[: -len(".elements")] for k in fields if k.endswith(".elements")]
    if len(prefixes) != exp.objects:
        problems.append(f"{len(prefixes)} tables for {exp.objects} objects")
    for prefix in prefixes:
        problems += check_table(fields, prefix)[0]
    return problems


def check_heyting_topology(fields: dict, exp) -> list[str]:
    problems = _expect_fields(fields, {"command": "heyting", "kind": "topology"})
    if problems:
        return problems
    table_problems, sets = check_table(fields, "topology")
    if frozenset(sets) != exp.opens:
        table_problems.append("elements are not the upper sets of the poset")
    return table_problems


_CHECKS = {
    KsExpect: check_ks,
    CategoryExpect: check_category,
    ValuateExpect: check_valuate,
    HeytingScenarioExpect: check_heyting_scenario,
    HeytingTopologyExpect: check_heyting_topology,
}


def check_report(expect, text: str) -> list[str]:
    """Problems with one report against its expectation; empty when right."""
    return _CHECKS[type(expect)](parse_report(text), expect)
