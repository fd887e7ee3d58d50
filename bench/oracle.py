"""Arithmetic the benchmark checks t2orbits against, written apart from it.

Nothing here imports t2orbits.  A system is a plain :class:`Sys` of tuples:
circles are ``(m, n)`` pairs, a cycle is a tuple of ``(m, n, f)`` entries
(``f`` is the stored determinant between this entry's pair and the next),
exceptional orbits are ``(alpha, gamma1, gamma2)`` triples.  The keys below
are brute force over every presentation, so they are slow on long cycles
and exact everywhere.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple


class Sys(NamedTuple):
    obstruction: tuple = (0, 0)
    orientation: int = 1
    genus: int = 0
    circles: tuple = ()
    cycles: tuple = ()
    exceptional: tuple = ()


def det(a: tuple, b: tuple) -> int:
    return a[0] * b[1] - a[1] * b[0]


def canonical_sign(p: tuple) -> tuple:
    m, n = p
    return (-m, -n) if m < 0 or (m == 0 and n < 0) else (m, n)


def cycle_from_pairs(pairs) -> tuple:
    """A cycle whose stored determinants are the ones its pairs give."""
    pairs = list(pairs)
    r = len(pairs)
    return tuple((m, n, det((m, n), pairs[(w + 1) % r]))
                 for w, (m, n) in enumerate(pairs))


def pairs_of(cycle: tuple) -> list:
    return [(m, n) for m, n, _ in cycle]


@lru_cache(maxsize=None)
def cycle_key(cycle: tuple) -> tuple:
    """Minimum over all rotations and per-entry sign flips of the entries.

    Flipping the sign of entry w negates its pair and the stored
    determinants on both sides of it, w - 1 and w.
    """
    r = len(cycle)
    best = None
    for signs in itertools.product((1, -1), repeat=r):
        entries = [(s * m, s * n, s * signs[(w + 1) % r] * f)
                   for w, ((m, n, f), s) in enumerate(zip(cycle, signs))]
        for k in range(r):
            candidate = tuple(entries[k:] + entries[:k])
            if best is None or candidate < best:
                best = candidate
    return best


def strict_key(s: Sys) -> tuple:
    """Equal exactly when two systems differ only in presentation."""
    return (tuple(s.obstruction), s.orientation, s.genus,
            tuple(sorted(canonical_sign(p) for p in s.circles)),
            tuple(sorted(cycle_key(tuple(c)) for c in s.cycles)),
            tuple(sorted(s.exceptional)))


def weak_invariants(s: Sys) -> tuple:
    """Quantities no basis change, orientation reversal or re-presentation alters."""
    closed = not s.circles and not s.cycles
    return (s.genus, len(s.circles), len(s.cycles),
            tuple(sorted(tuple(sorted(abs(f) for _, _, f in c)) for c in s.cycles)),
            math.gcd(*s.obstruction) if closed else 0)


def mat_det(a: tuple) -> int:
    (p, q), (r, t) = a
    return p * t - q * r


def mat_mul(a: tuple, b: tuple) -> tuple:
    (p, q), (r, t) = a
    (e, f), (g, h) = b
    return ((p * e + q * g, p * f + q * h), (r * e + t * g, r * f + t * h))


def act(a: tuple, v: tuple) -> tuple:
    (p, q), (r, t) = a
    return (p * v[0] + q * v[1], r * v[0] + t * v[1])


def basis_change(s: Sys, a: tuple) -> Sys:
    """Every pair and the obstruction become A times themselves."""
    return s._replace(
        obstruction=act(a, s.obstruction),
        circles=tuple(act(a, p) for p in s.circles),
        cycles=tuple(cycle_from_pairs(act(a, p) for p in pairs_of(c))
                     for c in s.cycles))


def reverse(s: Sys) -> Sys:
    """The opposite orientation: cycles run backwards, Seifert gammas conjugate."""
    return s._replace(
        obstruction=(-s.obstruction[0], -s.obstruction[1]),
        orientation=-s.orientation,
        cycles=tuple(cycle_from_pairs(reversed(pairs_of(c))) for c in s.cycles),
        exceptional=tuple((a, (a - g1) % a, (a - g2) % a)
                          for a, g1, g2 in s.exceptional))


def represent(s: Sys, rng) -> Sys:
    """Another presentation of the same system: multisets permuted, circle
    signs flipped, every cycle rotated and flipped entry by entry."""
    circles = [(-m, -n) if rng.random() < 0.5 else (m, n) for m, n in s.circles]
    rng.shuffle(circles)
    cycles = [represent_cycle(c, rng) for c in s.cycles]
    rng.shuffle(cycles)
    return s._replace(circles=tuple(circles), cycles=tuple(cycles))


def represent_cycle(cycle: tuple, rng) -> tuple:
    r = len(cycle)
    k = rng.randrange(r)
    signs = [rng.choice((1, -1)) for _ in range(r)]
    rotated = cycle[k:] + cycle[:k]
    return tuple((s * m, s * n, s * signs[(w + 1) % r] * f)
                 for w, ((m, n, f), s) in enumerate(zip(rotated, signs)))


def legal(s: Sys) -> bool:
    """Every legality rule, checked from the definitions."""
    if s.orientation not in (1, -1) or s.genus < 0:
        return False
    if (s.circles or s.cycles) and tuple(s.obstruction) != (0, 0):
        return False
    if any(math.gcd(m, n) != 1 for m, n in s.circles):
        return False
    for c in s.cycles:
        r = len(c)
        if r < 2:
            return False
        for w, (m, n, f) in enumerate(c):
            if math.gcd(m, n) != 1 or f == 0:
                return False
            if f != det((m, n), c[(w + 1) % r][:2]):
                return False
        if r == 2 and c[0][2] != -c[1][2]:
            return False
    for a, g1, g2 in s.exceptional:
        if a < 2 or not (0 <= g1 < a and 0 <= g2 < a) or math.gcd(a, g1, g2) != 1:
            return False
    return True


def to_doc(s: Sys) -> dict:
    """The interchange document of a system, in the schema's key order."""
    return {
        "schema_version": "1",
        "obstruction": list(s.obstruction),
        "orientation": s.orientation,
        "genus": s.genus,
        "circle_boundaries": [list(p) for p in s.circles],
        "fixed_cycles": [[{"pair": [m, n], "f": f} for m, n, f in c]
                         for c in s.cycles],
        "exceptional": [{"alpha": a, "gamma1": g1, "gamma2": g2}
                        for a, g1, g2 in s.exceptional],
    }


def from_doc(doc: dict) -> Sys | None:
    """The system a document describes, or None when its shape is wrong."""
    try:
        if doc["schema_version"] != "1" or len(doc) != 7:
            return None
        b1, b2 = doc["obstruction"]
        return Sys(
            (b1, b2), doc["orientation"], doc["genus"],
            tuple((m, n) for m, n in doc["circle_boundaries"]),
            tuple(tuple((e["pair"][0], e["pair"][1], e["f"]) for e in c)
                  for c in doc["fixed_cycles"]),
            tuple((e["alpha"], e["gamma1"], e["gamma2"])
                  for e in doc["exceptional"]))
    except (KeyError, TypeError, ValueError, IndexError):
        return None


def _multisets(kinds: int, most: int) -> int:
    """Multisets of size 0..most drawn from ``kinds`` kinds."""
    if kinds == 0:
        return 1
    return sum(math.comb(kinds + size - 1, size) for size in range(most + 1))


def census_count(max_genus: int, max_cycles: int, max_cycle_length: int,
                 max_weight_entry: int, max_exceptional: int, max_alpha: int,
                 max_circle_boundaries: int, max_obstruction: int) -> int:
    """How many systems the bounded census holds, derived by brute force.

    Cycle classes are counted as distinct :func:`cycle_key` values over all
    sequences of sign-normalized coprime pairs with entries and adjacent
    |f| at most ``max_weight_entry``; sign normalization loses no class because flips
    are among the presentations the key quotients by.  The rest is
    counting multisets.
    """
    e = max_weight_entry
    pairs = sorted({canonical_sign((m, n)) for m in range(-e, e + 1)
                    for n in range(-e, e + 1) if math.gcd(m, n) == 1})
    classes = set()
    if max_cycles:
        for r in range(2, max_cycle_length + 1):
            for seq in itertools.product(pairs, repeat=r):
                c = cycle_from_pairs(seq)
                if all(0 < abs(f) <= e for _, _, f in c):
                    classes.add(cycle_key(c))
    triples = sum(1 for a in range(2, max_alpha + 1) for g1 in range(a) for g2 in range(a)
                  if math.gcd(a, g1, g2) == 1)
    with_boundary = (_multisets(len(pairs) if max_circle_boundaries else 0,
                                max_circle_boundaries)
                     * _multisets(len(classes), max_cycles) - 1)
    closed = (2 * max_obstruction + 1) ** 2
    return ((max_genus + 1) * 2
            * _multisets(triples if max_exceptional else 0, max_exceptional)
            * (with_boundary + closed))
