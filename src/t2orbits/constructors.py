"""Generators for the standard example families and a bounded census.

Two families of simple spaces (disk orbit space, no exceptional orbits,
at least one fixed point):

* the suspension of a lens space L(r, s), whose disk boundary carries two
  fixed points with weights {(p, q), r, (m, n), -r} where r = det;
* weighted projective spaces, whose disk boundary carries three fixed
  points realizing any pairwise coprime positive (r1, r2, r3) as the
  absolute adjacent determinants, in the sign pattern (r2, -r3, r1).

``enumerate_legal`` streams every legal weight system within explicit
bounds, exactly once up to STRICT canonical form and in a deterministic
order; it is the workhorse oracle for the property tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterator

from .core import (
    ExceptionalOrbit,
    FixedCycle,
    IsotropyPair,
    PairLike,
    WeightSystem,
    as_pair,
)
from .equivalence import canonical_cycle
from .errors import IllegalDeterminant, IllegalParameters, NotCoprime


def suspension_of_lens(first: PairLike, second: PairLike,
                       orientation: int = 1) -> WeightSystem:
    """Suspension of the lens space whose cohomogeneity-one action has the
    given lateral isotropies.

    The orbit space is a disk with two fixed points; with r = det(first,
    second) the boundary cycle is {(p, q), r, (m, n), -r}, which is legal by
    construction (the length-2 antisymmetry f1 = -f2 holds automatically).
    Raises :class:`IllegalDeterminant` when r = 0 and :class:`NotCoprime`
    for non-coprime input pairs.
    """
    p1 = as_pair(first)
    p2 = as_pair(second)
    if not p1.is_coprime():
        raise NotCoprime(f"{p1} is not a coprime pair")
    if not p2.is_coprime():
        raise NotCoprime(f"{p2} is not a coprime pair")
    r = p1.det(p2)
    if r == 0:
        raise IllegalDeterminant(f"pairs {p1} and {p2} have determinant 0")
    return WeightSystem(
        orientation=orientation,
        fixed_cycles=(FixedCycle((p1, p2), (r, -r)),),
    )


def weighted_projective(r1: int, r2: int, r3: int,
                        orientation: int = 1) -> WeightSystem:
    """Weight system of the torus action on a weighted projective space.

    Builds coprime pairs (m_i, n_i) with

        det(P1, P2) = r2,   det(P2, P3) = -r3,   det(P3, P1) = r1

    in closed form: P1 = (1, 0), P2 = (m2, r2) with the least nonnegative m2
    that makes the remaining equations solvable, and P3 solved from them.
    Requires r1, r2, r3 positive and pairwise coprime, else
    :class:`IllegalParameters`.
    """
    rs = (r1, r2, r3)
    if any(r <= 0 for r in rs):
        raise IllegalParameters(f"weights must be positive, got {rs}")
    for i in range(3):
        for j in range(i + 1, 3):
            if math.gcd(rs[i], rs[j]) != 1:
                raise IllegalParameters(
                    f"weights must be pairwise coprime, got {rs}")

    # P1 = (1, 0) reduces det(P1, P2) = r2 to n2 = r2 and det(P3, P1) = r1 to
    # n3 = -r1; the middle equation becomes m2*r1 + m3*r2 = r3, solved for the
    # smallest nonnegative m2 with m2*r1 = r3 (mod r2).
    p1 = IsotropyPair(1, 0)
    m2 = (r3 * pow(r1, -1, r2)) % r2 if r2 > 1 else 0
    p2 = IsotropyPair(m2, r2)
    m3 = (r3 - m2 * r1) // r2
    p3 = IsotropyPair(m3, -r1)

    # The determinants hold by construction, gcd(r2, r3) = 1 gives
    # gcd(m2, r2) = 1 (m2*r1 = r3 mod r2), and m3*r2 = r3 - m2*r1 gives
    # gcd(m3, r1) | gcd(r1, r3) = 1; the tests check both on every triple
    # up to 30.
    cycle = FixedCycle((p1, p2, p3), (r2, -r3, r1))
    return WeightSystem(orientation=orientation, fixed_cycles=(cycle,))


@dataclass(frozen=True)
class EnumerationBounds:
    """Box bounds for the census enumerator.

    ``max_weight_entry`` bounds every integer weight: the entries of all
    isotropy pairs and the adjacent determinants |f|.  ``max_obstruction``
    bounds |b1| and |b2| of closed systems and ``max_circle_boundaries`` the
    number of pure circle boundaries; both are needed to keep the census
    finite.
    """

    max_genus: int = 0
    max_cycles: int = 0
    max_cycle_length: int = 2
    max_weight_entry: int = 1
    max_exceptional: int = 0
    max_alpha: int = 2
    max_circle_boundaries: int = 0
    max_obstruction: int = 0

    def __post_init__(self):
        if any(getattr(self, f.name) < 0 for f in fields(self)):
            raise IllegalParameters(f"bounds must be nonnegative: {self}")
        if self.max_cycles > 0 and self.max_cycle_length < 2:
            raise IllegalParameters("cycles need max_cycle_length >= 2")


def canonical_pairs(max_entry: int) -> list:
    """All canonical-sign coprime pairs with |m|, |n| <= max_entry, sorted."""
    out = []
    for m in range(0, max_entry + 1):
        for n in range(-max_entry, max_entry + 1):
            if math.gcd(m, n) != 1:
                continue
            p = IsotropyPair(m, n)
            if p.canonical() == p:
                out.append(p)
    return out


def _cycle_pool(max_length: int, max_entry: int) -> tuple:
    """All legal cycle classes within bounds, as canonical cycles, sorted.

    A cycle class is a cyclic sequence of subgroups up to rotation, so the
    pool is built from necklaces of canonical-sign pairs whose adjacent
    determinants are nonzero and bounded by ``max_entry`` in absolute value.
    """
    pairs = canonical_pairs(max_entry)
    k = len(pairs)
    dets = [[pairs[i].det(pairs[j]) for j in range(k)] for i in range(k)]
    good = [[0 < abs(dets[i][j]) <= max_entry for j in range(k)] for i in range(k)]

    cycles = []

    def extend(seq: list, length: int):
        if len(seq) == length:
            if good[seq[-1]][seq[0]] and _is_min_rotation(seq):
                cycles.append(canonical_cycle(
                    FixedCycle.from_pairs([pairs[i] for i in seq])))
            return
        for j in range(seq[0], k):
            if good[seq[-1]][j]:
                seq.append(j)
                extend(seq, length)
                seq.pop()

    for length in range(2, max_length + 1):
        for start in range(k):
            extend([start], length)

    # Necklaces of subgroup sequences are in bijection with cycle classes,
    # so no duplicates can occur; keep the check cheap and loud.
    pool = sorted(cycles, key=FixedCycle.flat)
    assert all(a.flat() != b.flat() for a, b in zip(pool, pool[1:]))
    return tuple(pool)


def _is_min_rotation(seq: list) -> bool:
    tup = tuple(seq)
    n = len(tup)
    return all(tup <= tup[i:] + tup[:i] for i in range(1, n))


def _exceptional_pool(max_alpha: int) -> list:
    out = []
    for alpha in range(2, max_alpha + 1):
        for g1 in range(alpha):
            for g2 in range(alpha):
                if math.gcd(alpha, g1, g2) == 1:
                    out.append(ExceptionalOrbit(alpha, g1, g2))
    return out


def enumerate_legal(bounds: EnumerationBounds) -> Iterator[WeightSystem]:
    """Stream every legal weight system within bounds, each exactly once up
    to STRICT canonical form, in a deterministic order.

    Systems are assembled from pre-canonicalized components (sorted
    multisets of canonical cycles, canonical circle pairs and Seifert
    triples), so distinct emissions have distinct canonical forms by
    construction and no dedup set is kept.
    """
    cycles = _cycle_pool(bounds.max_cycle_length, bounds.max_weight_entry) \
        if bounds.max_cycles else ()
    circles = canonical_pairs(bounds.max_weight_entry) \
        if bounds.max_circle_boundaries else ()
    exceptional = _exceptional_pool(bounds.max_alpha) \
        if bounds.max_exceptional else ()

    circle_choices = [
        combo
        for size in range(bounds.max_circle_boundaries + 1)
        for combo in itertools.combinations_with_replacement(circles, size)
    ]
    exceptional_choices = [
        combo
        for size in range(bounds.max_exceptional + 1)
        for combo in itertools.combinations_with_replacement(exceptional, size)
    ]
    obstruction_box = [
        (b1, b2)
        for b1 in range(-bounds.max_obstruction, bounds.max_obstruction + 1)
        for b2 in range(-bounds.max_obstruction, bounds.max_obstruction + 1)
    ]

    for genus in range(bounds.max_genus + 1):
        for orientation in (1, -1):
            for exc in exceptional_choices:
                for circ in circle_choices:
                    for size in range(bounds.max_cycles + 1):
                        for cyc in itertools.combinations_with_replacement(cycles, size):
                            # Only a closed system carries an obstruction.
                            for b in obstruction_box if not (circ or cyc) else ((0, 0),):
                                yield WeightSystem(b, orientation, genus, circ, cyc, exc)
