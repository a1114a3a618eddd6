"""Seeded random scenario generator for the functional-composition suite.

Everything stays exact: random eigenbases are built from small Gaussian
integer matrices orthogonalized by exact Gram-Schmidt (no normalization,
so entries remain Gaussian rationals), spectra are small distinct
rationals, and states are nonzero Gaussian-rational vectors. Spectrum
sizes stay at or below 3 so question closure keeps every object within
the sieve-enumeration cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from sievelogic.exact import QC, Vector, is_zero_vector, vector
from sievelogic.quantum import (
    OperatorCategory,
    SpectralOperator,
    State,
    build_operator_category,
    function_of,
    make_operator,
    make_state,
)

from oracles import inner, norm_sq

_ENTRY_POOL = [-2, -1, -1, 0, 0, 0, 1, 1, 2]


def _random_entry(rng: random.Random, allow_imag: bool) -> QC:
    re = Fraction(rng.choice(_ENTRY_POOL))
    im = Fraction(rng.choice(_ENTRY_POOL)) if allow_imag and rng.random() < 0.3 else Fraction(0)
    return QC(re, im)


def _gram_schmidt(rows: list[Vector]) -> list[Vector] | None:
    ortho: list[Vector] = []
    for row in rows:
        v = list(row)
        for u in ortho:
            coeff = inner(u, tuple(v)) / norm_sq(u)
            v = [x - coeff * y for x, y in zip(v, u)]
        v = tuple(v)
        if is_zero_vector(v):
            return None
        ortho.append(v)
    return ortho


def random_orthogonal_basis(rng: random.Random, dim: int) -> list[Vector]:
    while True:
        rows = [
            vector(_random_entry(rng, allow_imag=True) for _ in range(dim))
            for _ in range(dim)
        ]
        basis = _gram_schmidt(rows)
        if basis is not None:
            return basis


_EIGENVALUE_POOL = [Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(5, 2),
]


def _distinct_values(rng: random.Random, count: int) -> list[Fraction]:
    return rng.sample(_EIGENVALUE_POOL, count)


def random_operator(rng: random.Random, name: str, dim: int) -> SpectralOperator:
    basis = random_orthogonal_basis(rng, dim)
    spectrum_size = rng.randint(2, min(dim, 3))
    values = _distinct_values(rng, spectrum_size)
    # Partition the basis vectors into spectrum_size nonempty groups.
    slots = list(range(dim))
    rng.shuffle(slots)
    groups: list[list[int]] = [[slots[i]] for i in range(spectrum_size)]
    for idx in slots[spectrum_size:]:
        groups[rng.randrange(spectrum_size)].append(idx)
    eigendata = [
        (value, [basis[i] for i in group]) for value, group in zip(values, groups)
    ]
    return make_operator(name, dim, eigendata)


def _random_coarsening(rng: random.Random, op: SpectralOperator, name: str) -> SpectralOperator:
    values = list(op.spectrum)
    targets = _distinct_values(rng, rng.randint(1, len(values)))
    fn = {a: rng.choice(targets) for a in values}
    return function_of(op, fn, name=name)


def random_state(rng: random.Random, dim: int) -> State:
    while True:
        v = vector(_random_entry(rng, allow_imag=True) for _ in range(dim))
        if not is_zero_vector(v):
            return make_state(v)


@dataclass
class GeneratedScenario:
    seed: int
    dim: int
    operators: list[SpectralOperator]
    category: OperatorCategory
    states: list[State]


def _build_once(seed: int) -> GeneratedScenario:
    rng = random.Random(seed)
    dim = rng.choice([2, 2, 3, 3, 4])
    n_seeds = rng.randint(1, 6)
    ops: list[SpectralOperator] = []
    for i in range(n_seeds):
        if ops and rng.random() < 0.4:
            ops.append(_random_coarsening(rng, rng.choice(ops), f"op{i}"))
        else:
            ops.append(random_operator(rng, f"op{i}", dim))
    category = build_operator_category(ops, close_under_questions=True)
    states = [random_state(rng, dim) for _ in range(rng.randint(1, 2))]
    return GeneratedScenario(seed, dim, ops, category, states)


def random_closed_scenario(seed: int) -> GeneratedScenario:
    attempt = seed
    while True:
        scn = _build_once(attempt)
        base = scn.category.base
        out_degree = {obj: 0 for obj in base.objects}
        for a in base.arrows.values():
            out_degree[a.dom] += 1
        # Stay inside the 16-outgoing-arrow fixture cap so the sieve
        # classifier stays enumerable; coincidental cross-arrows between
        # random seeds can in principle push past it.
        if max(out_degree.values()) <= 16:
            return scn
        attempt += 100003
