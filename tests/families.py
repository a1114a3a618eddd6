"""The generated inputs of the test suite and CI, one function per family.

Each family returns the text of one ``.scn`` scenario or ``.top`` topology
file, the same on every run. ``PYTHONPATH=src python tests/families.py NAME
[ARGS]`` prints one, its arguments given as Python literals: ``diagonal 13
True``, ``chain 511``.
"""

from __future__ import annotations

import ast
import itertools
import math
import sys
from fractions import Fraction

from sievelogic.exact import (
    QC, QC_ONE, identity_matrix, int_vector, is_zero_vector, mat_add, mat_mul, orthogonal,
)

IMAG = QC(Fraction(0), Fraction(1))


def format_complex(value) -> str:
    """An int, ``Fraction`` or ``QC`` in the scenario grammar."""
    value = QC.of(value)
    re, im = value.re, value.im
    if not im:
        return str(re)
    if not re:
        return {1: "i", -1: "-i"}.get(im, f"{im}i")
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def format_vector(v) -> str:
    return "(" + ", ".join(map(format_complex, v)) + ")"


def scenario_text(dim, operators, close=None, states=(), queries=()) -> str:
    """A ``.scn`` file. Each operator is ``(name, [(eigenvalue, [vector,
    ...]), ...])``, each state ``(name, vector)`` and each query ``(state,
    operator, eigenvalues)``. ``close`` True writes ``CLOSE on``, False
    ``CLOSE off`` and None no ``CLOSE`` line."""
    lines = [f"DIM {dim}"]
    for name, levels in operators:
        lines.append(f"OPERATOR {name}")
        lines += [f"EIGENVALUE {value} : " + ", ".join(map(format_vector, vs))
                  for value, vs in levels]
    lines += [f"STATE {name} {format_vector(v)}" for name, v in states]
    lines += [] if close is None else [f"CLOSE {'on' if close else 'off'}"]
    lines += [f"QUERY {s} {op} {{{', '.join(map(str, values))}}}" for s, op, values in queries]
    return "\n".join(lines) + "\n"


def topology_text(points, opens) -> str:
    return "\n".join(["POINTS " + " ".join(points)] + ["OPEN " + " ".join(o) for o in opens]) + "\n"


def _bases_text(names, bases, states=()) -> str:
    """One operator per basis, named from ``names`` in order, with
    eigenvalue k + 1 on its k-th vector, closed under questions."""
    operators = [(name, [(k + 1, [v]) for k, v in enumerate(basis)])
                 for name, basis in zip(names, bases)]
    return scenario_text(len(bases[0][0]), operators, True, states)


def _numbered(prefix: str):
    return (f"{prefix}{b}" for b in itertools.count())


def _unit(n: int, i: int) -> list[int]:
    return [int(j == i) for j in range(n)]


def _diagonal_levels(n: int):
    return [(i + 1, [_unit(n, i)]) for i in range(n)]


def diagonal(n: int, closed: bool) -> str:
    """One n-level diagonal operator ``diag``."""
    return scenario_text(n, [("diag", _diagonal_levels(n))], closed)


def antichain(k: int) -> str:
    """A 7-level diagonal operator ``big`` and k (at most 21) unclosed
    coarse-grainings of it. Each merges one pair of levels under eigenvalue
    1: the first k pairs of ``itertools.combinations(range(7), 2)``."""
    operators = [("big", _diagonal_levels(7))]
    for a, b in list(itertools.combinations(range(7), 2))[:k]:
        rest = [(i + 2, [_unit(7, i)]) for i in range(7) if i not in (a, b)]
        operators.append((f"m{a}{b}", [(1, [_unit(7, a), _unit(7, b)])] + rest))
    return scenario_text(7, operators)


def fan() -> str:
    """A 6-level diagonal operator D and 11 distinct yes/no coarse-grainings
    of it, unclosed: 12 arrows out of D, 2^11 + 1 sieves on it."""
    blocks = [{i} for i in range(6)] + [{0, j} for j in range(1, 6)]
    operators = [("D", _diagonal_levels(6))] + [
        (f"Q{k}", [(0, [_unit(6, i) for i in range(6) if i not in block]),
                   (1, [_unit(6, i) for i in sorted(block)])])
        for k, block in enumerate(blocks)
    ]
    return scenario_text(6, operators)


def qubits(n: int, closed: bool) -> str:
    """n operators ``o<k>`` in dimension 2, each with eigenvalue 1 on (a, b)
    and 2 on (-b, a), where (a, b) is the k-th coprime pair of positive
    integers, ordered by a + b and then by a. ``closed`` adds ``CLOSE on``."""
    pairs = ((a, s - a) for s in itertools.count(2) for a in range(1, s) if math.gcd(a, s - a) == 1)
    operators = [(f"o{k}", [(1, [(a, b)]), (2, [(-b, a)])])
                 for k, (a, b) in enumerate(itertools.islice(pairs, n))]
    return scenario_text(2, operators, True if closed else None)


def chain(n: int, first: int = 0) -> str:
    """n points whose opens are the first k points, for k from ``first`` to
    n: a topology for first=0, none without the empty set."""
    points = [f"p{i}" for i in range(n)]
    return topology_text(points, (points[:k] for k in range(first, n + 1)))


def _peres_rays() -> list[tuple[int, ...]]:
    rays = [tuple(_unit(4, i)) for i in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for s in (1, -1):
            rays.append(tuple(1 if k == i else s if k == j else 0 for k in range(4)))
    rays.extend((1,) + signs for signs in itertools.product((1, -1), repeat=3))
    return rays


def peres_bases() -> list[tuple[int, ...]]:
    """Every four mutually orthogonal rays among Peres's 24 in dimension 4
    (e_i, e_i +- e_j and (1, +-1, +-1, +-1)), as sorted ray indices."""
    rays = _peres_rays()
    return [
        quad for quad in itertools.combinations(range(len(rays)), 4)
        if all(sum(x * y for x, y in zip(rays[a], rays[b])) == 0
               for a, b in itertools.combinations(quad, 2))
    ]


def peres24() -> str:
    rays = _peres_rays()
    return _bases_text(_numbered("peres"), [[rays[r] for r in quad] for quad in peres_bases()])


_PAULI = {
    "I": ((1, 0), (0, 1)), "X": ((0, 1), (1, 0)),
    "Y": ((0, -IMAG), (IMAG, 0)), "Z": ((1, 0), (0, -1)),
}

# Mermin's star (PRL 65, 3373, 1990): five lines of four commuting
# three-qubit Pauli products, each product on two lines. The products on
# the first line multiply to -I, on the others to +I, and the first three
# products of each line are independent.
MERMIN_LINES = [
    ("XXX", "XYY", "YXY", "YYX"),
    ("XII", "IXI", "IIX", "XXX"),
    ("XII", "IYI", "IIY", "XYY"),
    ("YII", "IXI", "IIY", "YXY"),
    ("YII", "IYI", "IIX", "YYX"),
]


def _pauli_product(word: str):
    m = ((QC_ONE,),)
    for letter in word:
        m = tuple(tuple(x * y for x in row for y in prow) for row in m for prow in _PAULI[letter])
    return m


def _joint_bases(lines):
    """The joint eigenvectors of each line of independent commuting Pauli
    products: for each sign pattern, in ``itertools.product`` order, the
    first nonzero column of the product of (I +- O_k) over the line,
    divided by the gcd of its integer parts, so every entry is 0, +-1 or
    +-i. On a line of one-qubit observables, such as (XII, IYI, IIY), that
    is the Kronecker product of their eigenvectors: (1, +-1) for X, (1, +-i)
    for Y, and (1, 0) and (0, 1) for Z."""
    bases = []
    for line in lines:
        ident = identity_matrix(2 ** len(line[0]))
        products = [_pauli_product(word) for word in line]
        basis = []
        for signs in itertools.product((1, -1), repeat=len(line)):
            m = ident
            for sign, o in zip(signs, products):
                m = mat_mul(m, mat_add(ident, tuple(tuple(e * sign for e in row) for row in o)))
            col = next(c for c in zip(*m) if not is_zero_vector(c))
            g = math.gcd(*(int(x) for e in col for x in (e.re, e.im)))
            basis.append(tuple(e / g for e in col))
        bases.append(basis)
    return bases


def mermin_bases():
    """The joint eigenbasis of each line of the star, from its first three
    products."""
    return _joint_bases([line[:3] for line in MERMIN_LINES])


def mermin_star() -> str:
    return _bases_text(_numbered("line"), mermin_bases())


def kernaghan_peres() -> str:
    """Every eight mutually orthogonal rays among the star's 40 (Kernaghan
    and Peres, Phys. Lett. A 198, 1, 1995), in lexicographic ray order."""
    rays = [v for basis in mermin_bases() for v in basis]
    n = len(rays)
    ints = list(map(int_vector, rays))
    orth = [sum(1 << j for j in range(n) if orthogonal(u, ints[j]) and j != i)
            for i, u in enumerate(ints)]
    bases = []

    def grow(chosen, candidates):
        if len(chosen) == 8:
            bases.append([rays[i] for i in chosen])
            return
        for j in range(n):
            if candidates >> j & 1:
                grow(chosen + [j], candidates & orth[j] & ~((2 << j) - 1))

    grow([], (1 << n) - 1)
    return _bases_text(_numbered("kp"), bases)


def _local_text(words, states) -> str:
    """One operator per word of one-qubit observables, named by the word in
    lower case, with eigenvalue k + 1 on the Kronecker product of the local
    eigenvectors for the k-th sign tuple, closed under questions."""
    n = len(words[0])
    lines = [[q * "I" + p + (n - q - 1) * "I" for q, p in enumerate(word)] for word in words]
    return _bases_text([word.lower() for word in words], _joint_bases(lines), states)


def ghz() -> str:
    """XXX, XYY, YXY and YYX measured qubit by qubit, the four lines of
    one-qubit products of Mermin's star, with the GHZ state and |000>."""
    return _local_text(["XXX", "XYY", "YXY", "YYX"],
                       [("ghz", (1, 0, 0, 0, 0, 0, 0, 1)), ("zero", (1, 0, 0, 0, 0, 0, 0, 0))])


def hardy() -> str:
    """ZZ, ZX, XZ and XX measured qubit by qubit, with Hardy's state, a Bell
    state and |00>."""
    return _local_text(["ZZ", "ZX", "XZ", "XX"],
                       [("hardy", (1, 1, 1, 0)), ("bell", (1, 0, 0, 1)), ("prod", (1, 0, 0, 0))])


def integer_rays(m: int) -> str:
    """One operator ``b<i>`` per orthogonal basis of the primitive integer
    rays of dimension 3 with entries in [-m, m]. A ray is reduced by the gcd
    of its entries and its first nonzero entry is positive; rays are sorted.
    Each orthogonal pair of rays whose cross product, reduced, is a ray
    gives a basis: its three ray indices, sorted. Bases are sorted."""
    def reduced(v):
        g = math.gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
        return tuple(x // g for x in v)

    rays = sorted({reduced(v) for v in itertools.product(range(-m, m + 1), repeat=3) if any(v)})
    index = {r: i for i, r in enumerate(rays)}
    bases = set()
    for i, j in itertools.combinations(range(len(rays)), 2):
        (a, b, c), (d, e, f) = rays[i], rays[j]
        if a * d + b * e + c * f == 0:
            k = index.get(reduced((b * f - c * e, c * d - a * f, a * e - b * d)))
            if k is not None:
                bases.add(tuple(sorted((i, j, k))))
    return _bases_text(_numbered("b"), [[rays[r] for r in basis] for basis in sorted(bases)])


FAMILIES = {f.__name__: f for f in (
    diagonal, antichain, fan, qubits, chain, peres24, mermin_star, kernaghan_peres, ghz, hardy,
    integer_rays,
)}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in FAMILIES:
        sys.exit(f"usage: families.py {{{','.join(FAMILIES)}}} [ARGS]")
    name, *args = sys.argv[1:]
    sys.stdout.write(FAMILIES[name](*map(ast.literal_eval, args)))
