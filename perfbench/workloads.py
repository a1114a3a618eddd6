"""Seeded workload generators.

Every input the program sees is written from here, and every expected
answer is derived here without importing the engine: rays, subspaces and
Born probabilities are plain ``Fraction`` arithmetic. The same seed always
gives the same files and the same expectations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from oracles import (
    HeytingScenarioExpect,
    HeytingTopologyExpect,
    ValuateExpect,
    born_probabilities,
    closed_ks_expectation,
    closed_sieve_size,
    partition_arrows,
    upper_sets,
)

Ray = tuple  # exact entries: int, Fraction or complex pair (re, im)


@dataclass(frozen=True)
class Request:
    """One CLI report: ``sievelogic <command> <file>`` and its expected answer."""

    name: str
    command: str
    filename: str
    text: str
    expect: object


# ---------------------------------------------------------------------------
# Ray sets


def peres_rays() -> list[Ray]:
    """Peres's 24 rays in dimension 4: e_i, e_i +- e_j and (1, +-1, +-1, +-1)."""
    rays = []
    for i in range(4):
        rays.append(tuple(int(k == i) for k in range(4)))
    for i, j in itertools.combinations(range(4), 2):
        for s in (1, -1):
            rays.append(tuple(1 if k == i else s if k == j else 0 for k in range(4)))
    for signs in itertools.product((1, -1), repeat=3):
        rays.append((1,) + signs)
    return rays


def orthogonal_bases(rays: list[Ray]) -> list[tuple[int, ...]]:
    """Every set of four mutually orthogonal rays, as sorted index tuples."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))
    return [
        quad for quad in itertools.combinations(range(len(rays)), 4)
        if all(dot(rays[a], rays[b]) == 0 for a, b in itertools.combinations(quad, 2))
    ]


def peres_bases() -> list[list[Ray]]:
    rays = peres_rays()
    return [[rays[i] for i in quad] for quad in orthogonal_bases(rays)]


# Cabello, Estebaranz and Garcia-Alcaine: 18 rays in 9 bases, each ray in two.
CABELLO_BASES: list[list[Ray]] = [
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)],
    [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1), (0, 1, 0, -1)],
    [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1), (1, 0, 0, 1)],
    [(1, 1, 1, 1), (1, -1, 1, -1), (0, 1, 0, -1), (1, 0, -1, 0)],
    [(1, 1, 1, 1), (1, -1, -1, 1), (1, 0, 0, -1), (0, 1, -1, 0)],
    [(1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)],
    [(1, -1, -1, -1), (1, -1, 1, 1), (1, 1, 0, 0), (0, 0, 1, -1)],
    [(1, -1, -1, -1), (1, 1, 1, -1), (1, 0, 0, 1), (0, 1, -1, 0)],
    [(1, -1, 1, 1), (1, 1, 1, -1), (0, 1, 0, 1), (1, 0, -1, 0)],
]


# ---------------------------------------------------------------------------
# Formatting and relabelling

# Eigenvalue labels all print as "NN/7", so report sizes, and with them
# rendering cost, do not depend on which labels a seed draws.
_LABEL_POOL = [Fraction(n, 7) for n in range(10, 100) if n % 7]


def fmt_entry(x) -> str:
    if isinstance(x, tuple):
        re, im = Fraction(x[0]), Fraction(x[1])
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"
    return str(x)


def fmt_vec(v) -> str:
    return "(" + ", ".join(fmt_entry(x) for x in v) + ")"


def fmt_delta(vals) -> str:
    return "{" + ", ".join(str(v) for v in vals) + "}"


@dataclass(frozen=True)
class Context:
    """A declared operator: name plus (eigenvalue, eigenvectors) groups."""

    name: str
    groups: tuple[tuple[Fraction, tuple[Ray, ...]], ...]


def scenario_text(dim: int, contexts, close: bool, states=(), queries=()) -> str:
    lines = [f"DIM {dim}"]
    for ctx in contexts:
        lines.append(f"OPERATOR {ctx.name}")
        for value, vecs in ctx.groups:
            lines.append(f"EIGENVALUE {value} : " + ", ".join(fmt_vec(v) for v in vecs))
    for name, vec in states:
        lines.append(f"STATE {name} {fmt_vec(vec)}")
    lines.append(f"CLOSE {'on' if close else 'off'}")
    for state, op, delta in queries:
        lines.append(f"QUERY {state} {op} {fmt_delta(delta)}")
    return "\n".join(lines) + "\n"


def signed_permutation(rng: random.Random, dim: int):
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return lambda ray: tuple(signs[k] * ray[perm[k]] for k in range(dim))


def relabel(rng: random.Random, bases: list[list[Ray]], prefix: str) -> list[Context]:
    """A seeded relabelling: signed coordinate permutation, new operator
    order, new eigenvalue labels in a new order within each basis."""
    move = signed_permutation(rng, len(bases[0][0]))
    order = list(range(len(bases)))
    rng.shuffle(order)
    contexts = []
    for pos, b in enumerate(order):
        rays = [move(r) for r in bases[b]]
        rng.shuffle(rays)
        labels = rng.sample(_LABEL_POOL, len(rays))
        contexts.append(Context(
            f"{prefix}{pos}", tuple((v, (r,)) for v, r in zip(labels, rays))
        ))
    return contexts


def basis_rays(ctx: Context) -> list[tuple[Fraction, Ray]]:
    """(eigenvalue, ray) per level of a one-ray-per-eigenvalue context."""
    return [(v, vecs[0]) for v, vecs in ctx.groups]


# ---------------------------------------------------------------------------
# ks-certify


# Every batch has a cheap report, two of middle cost and an expensive one,
# so the median report time lies in the middle of a cluster of twice as
# many samples as any other report gives, not at the edge between two.


def ks_requests(rng: random.Random) -> list[Request]:
    dropped = rng.randrange(len(CABELLO_BASES))
    cabello_minus = relabel(
        rng, [b for i, b in enumerate(CABELLO_BASES) if i != dropped], "m"
    )
    out = []
    for name, ctxs in (("cabello17m", cabello_minus),
                       ("cabello18a", relabel(rng, CABELLO_BASES, "c")),
                       ("cabello18b", relabel(rng, CABELLO_BASES, "c")),
                       ("peres24", relabel(rng, peres_bases(), "p"))):
        out.append(Request(
            name, "ks-search", f"{name}.scn", scenario_text(4, ctxs, True),
            closed_ks_expectation([basis_rays(c) for c in ctxs],
                                  [c.name for c in ctxs]),
        ))
    return out


# ---------------------------------------------------------------------------
# heyting-tables


def random_poset(rng: random.Random, n: int, p: float) -> dict[str, set[str]]:
    """A strict order on n points: each pair i < j related with probability
    p, closed transitively, then renamed at random. Maps each point to the
    points above it."""
    above = {i: set() for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            above[i].add(j)
    for j in reversed(range(n)):
        for i in range(j):
            if j in above[i]:
                above[i] |= above[j]
    perm = list(range(n))
    rng.shuffle(perm)
    return {f"x{perm[i]}": {f"x{perm[j]}" for j in above[i]} for i in range(n)}


# Topologies stay between these sizes so each table costs about the same
# on every seed; larger antichains make the open-set table grow as n^3.
TOPOLOGY_OPENS = (24, 32)


def topology_request(rng: random.Random, name: str, points: int,
                     opens=TOPOLOGY_OPENS) -> Request:
    while True:
        order = random_poset(rng, points, 0.35)
        if opens[0] <= len(upper_sets(order)) <= opens[1]:
            break
    found = upper_sets(order)
    listed = sorted(found, key=lambda o: (len(o), sorted(o)))
    rng.shuffle(listed)
    pts = sorted(order)
    rng.shuffle(pts)
    lines = ["POINTS " + " ".join(pts)]
    lines += [("OPEN " + " ".join(sorted(o))).rstrip() for o in listed]
    return Request(name, "heyting", f"{name}.top", "\n".join(lines) + "\n",
                   HeytingTopologyExpect(frozenset(found)))


def heyting_requests(rng: random.Random) -> list[Request]:
    # Distinct bases only: Cabello's and Peres's sets share some bases.
    pool = list({frozenset(b): b for b in CABELLO_BASES + peres_bases()}.values())
    out = []
    for i, k in enumerate((1, 1, 2)):
        ctxs = relabel(rng, rng.sample(pool, k), "h")
        expect = closed_ks_expectation([basis_rays(c) for c in ctxs],
                                       [c.name for c in ctxs])
        name = f"contexts{k}_{i}"
        out.append(Request(name, "heyting", f"{name}.scn",
                           scenario_text(4, ctxs, True),
                           HeytingScenarioExpect(expect.objects, expect.arrows)))
    out.append(topology_request(rng, "poset8", 8))
    return out


# ---------------------------------------------------------------------------
# spectrum-scan


def exact_basis(rng: random.Random, n: int) -> list[Ray]:
    """n mutually orthogonal integer vectors: the columns of two layers of
    2x2 rotations by (3, 4)/5, offset by one coordinate, under a seeded
    signed coordinate permutation and in a seeded order. Every seed gives
    the same entries up to sign and position, so the same exact work."""
    def layer(offset: int):
        m = [[5 * (i == j) for j in range(n)] for i in range(n)]
        for i in range(offset, n - 1, 2):
            m[i][i], m[i][i + 1], m[i + 1][i], m[i + 1][i + 1] = 3, -4, 4, 3
        return m

    l1, l2 = layer(0), layer(1)
    prod = [[sum(l1[i][k] * l2[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    move = signed_permutation(rng, n)
    basis = [move(tuple(prod[i][j] for i in range(n))) for j in range(n)]
    rng.shuffle(basis)
    return basis


def _merge_two(rng: random.Random, blocks: list[list[int]]) -> list[list[int]]:
    i, j = sorted(rng.sample(range(len(blocks)), 2))
    merged = blocks[:i] + blocks[i + 1:j] + blocks[j + 1:] + [blocks[i] + blocks[j]]
    return sorted(sorted(b) for b in merged)


def _random_blocks(rng: random.Random, n: int, m: int) -> list[list[int]]:
    while True:
        owner = [rng.randrange(m) for _ in range(n)]
        if len(set(owner)) == m:
            return sorted(sorted(i for i in range(n) if owner[i] == b) for b in range(m))


def spectrum_request(rng: random.Random, n: int, fname: str) -> Request:
    """One n-level operator and four coarse-grainings: a chain of two
    merges, and a random 3-block partition with a 2-block merge of it."""
    basis = exact_basis(rng, n)
    singles = [[i] for i in range(n)]
    c1 = _merge_two(rng, singles)
    c2 = _merge_two(rng, c1)
    c3 = _random_blocks(rng, n, 3)
    c4 = _merge_two(rng, c3)
    partitions = [("top", singles), ("g1", c1), ("g2", c2), ("g3", c3), ("g4", c4)]
    contexts = []
    labelled = []
    for name, blocks in partitions:
        labels = rng.sample(_LABEL_POOL, len(blocks))
        contexts.append(Context(name, tuple(
            (lab, tuple(basis[i] for i in block)) for lab, block in zip(labels, blocks)
        )))
        labelled.append((name, {i: lab for lab, block in zip(labels, blocks) for i in block}))
    return Request(fname, "category", f"{fname}.scn",
                   scenario_text(n, contexts, False), partition_arrows(labelled, n))


def spectrum_requests(rng: random.Random) -> list[Request]:
    return [spectrum_request(rng, n, f"spectrum{n}_{i}") for i, n in enumerate((5, 6, 6, 7))]


# ---------------------------------------------------------------------------
# valuate-queries


def random_state(rng: random.Random, dim: int) -> tuple:
    while True:
        vec = tuple((rng.randint(-2, 2), rng.choice((0, 0, 1, -1))) for _ in range(dim))
        if any(re or im for re, im in vec):
            return vec


def valuate_request(rng: random.Random, name: str, contexts: list[Context],
                    close: bool, n_states: int, n_queries: int) -> Request:
    dim = len(contexts[0].groups[0][1][0])
    rays = sorted({r for c in contexts for _, r in basis_rays(c)})
    states = []
    for k in range(n_states):
        # Half the states are rays of the scenario, so probabilities 0 and 1
        # and principal sieves occur; the rest are Gaussian-integer vectors.
        if k % 2 == 0:
            vec = tuple((x, 0) for x in rng.choice(rays))
        else:
            vec = random_state(rng, dim)
        states.append((f"s{k}", vec))
    queries, expected = [], []
    for _ in range(n_queries):
        state_name, vec = rng.choice(states)
        ctx = rng.choice(contexts)
        levels = basis_rays(ctx)
        size = rng.randint(1, len(levels))
        delta = sorted(v for v, _ in rng.sample(levels, size))
        queries.append((state_name, ctx.name, delta))
        probs = born_probabilities(vec, levels)
        prob = sum((probs[v] for v in delta), Fraction(0))
        if close:
            members = closed_sieve_size(probs, set(delta))
            kind = "principal" if prob == 1 else "intermediate"
        else:
            members = int(prob == 1)
            kind = "principal" if prob == 1 else "empty"
        expected.append((prob, kind, members))
    return Request(name, "valuate", f"{name}.scn",
                   scenario_text(dim, contexts, close, states, queries),
                   ValuateExpect(tuple(expected)))


SIGMA_Z = [Context("sigma_z", ((Fraction(1), ((1, 0),)), (Fraction(-1), ((0, 1),))))]
SIGMA_ZX = SIGMA_Z + [
    Context("sigma_x", ((Fraction(1), ((1, 1),)), (Fraction(-1), ((1, -1),))))
]


def valuate_requests(rng: random.Random) -> list[Request]:
    return [
        valuate_request(rng, "sigma_zx", SIGMA_ZX, True, 3, 8),
        valuate_request(rng, "cabello18a", relabel(rng, CABELLO_BASES, "c"), True, 8, 100),
        valuate_request(rng, "cabello18b", relabel(rng, CABELLO_BASES, "c"), True, 8, 100),
        valuate_request(rng, "peres24", relabel(rng, peres_bases(), "p"), True, 8, 40),
    ]


# ---------------------------------------------------------------------------
# Workload table


def smoke_requests(rng: random.Random) -> list[Request]:
    """One tiny request per workload, each well under a second."""
    zx = closed_ks_expectation([basis_rays(c) for c in SIGMA_ZX], [c.name for c in SIGMA_ZX])
    z = closed_ks_expectation([basis_rays(c) for c in SIGMA_Z], [c.name for c in SIGMA_Z])
    return [
        Request("smoke_ks", "ks-search", "smoke_ks.scn", scenario_text(2, SIGMA_ZX, True), zx),
        Request("smoke_heyting", "heyting", "smoke_heyting.scn",
                scenario_text(2, SIGMA_Z, True), HeytingScenarioExpect(z.objects, z.arrows)),
        topology_request(rng, "smoke_poset", 4, opens=(1, 16)),
        spectrum_request(rng, 3, "smoke_spectrum"),
        valuate_request(rng, "smoke_valuate", SIGMA_Z, False, 2, 4),
    ]


WORKLOADS = {
    "ks-certify": ks_requests,
    "heyting-tables": heyting_requests,
    "spectrum-scan": spectrum_requests,
    "valuate-queries": valuate_requests,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The workload's batch of requests for ``seed``, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "smoke":
        return smoke_requests(rng)
    return WORKLOADS[workload](rng)
