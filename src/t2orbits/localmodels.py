"""Local models at fixed points: lens spaces of directions and chart gluings.

A fixed point on the boundary of the orbit space has two adjacent arcs of
circular orbits with isotropy representatives (m, n) and (m', n').  The
space of directions at the point is assembled from two solid-torus charts,
one per arc.  The chart over (m, n) rotates the disc factor by the angle
p*phi + q*theta for a complement (p, q) with p*n - q*m = 1, and similarly
for the primed side with determinant -1.  Gluing the two boundary tori
yields the lens space L(r, s) with

    r = m*n' - n*m',        s = p*n' - q*m'  (well defined mod r),

and the congruences m*s = m', n*s = n' (mod r) pin s independently of the
Bezout choice: replacing (p, q) by (p + t*m, q + t*n) shifts s by t*r.
The equivalence implemented here is s1 = +-s2 (mod r): the homeomorphism
criterion for L(r, s1) and L(r, s2) when the two solid tori keep their
labels.  Classically (Reidemeister 1935; Brody 1960) the lens spaces are
homeomorphic iff s1 = +-s2^(+-1) (mod r), since exchanging the solid tori
inverts s.

Everything is exact integer arithmetic on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PairLike, as_pair
from .errors import IllegalDeterminant, NotCoprime


def _minimal_bezout(m: int, n: int) -> tuple:
    """The deterministic solution (p, q) of p*n - q*m = 1.

    Among all solutions (p + t*m, q + t*n), picks minimal |p| breaking ties
    toward p >= 0; when m = 0 (so p is forced) picks q = 0.  Deterministic so
    that all downstream outputs are byte-for-byte reproducible.
    """
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"({m},{n}) has no Bezout complement")
    if m == 0:
        # n is +-1 and p*n = 1 forces p = n; q is free, normalized to 0.
        return (n, 0)
    am = abs(m)
    c = pow(n, -1, am)  # p*n = 1 (mod |m|) fixes p up to multiples of m
    p = c if 2 * c <= am else c - am
    q = (p * n - 1) // m
    return (p, q)


def bezout_complement(pair: PairLike) -> tuple:
    """Return (p, q) with p*n - q*m = 1 for the given representative (m, n).

    The output is the solution with |p| minimal, ties broken toward p >= 0.
    Raises :class:`NotCoprime` when gcd(m, n) != 1.
    """
    pair = as_pair(pair)
    return _minimal_bezout(pair.m, pair.n)


@dataclass(frozen=True, slots=True)
class LensClass:
    """The pair (r, s mod r) naming the lens space L(r, s).

    L(1, 0) is the 3-sphere.  For r >= 2 the class satisfies gcd(r, s) = 1
    with 0 <= s < r.
    """

    r: int
    s: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"lens order must be >= 1, got {self.r}")
        if not 0 <= self.s < self.r and not (self.r == 1 and self.s == 0):
            raise ValueError(f"lens parameter {self.s} out of range [0, {self.r})")
        if self.r >= 2 and math.gcd(self.r, self.s) != 1:
            raise ValueError(f"L({self.r},{self.s}) is not a lens space: gcd != 1")

    def is_sphere(self) -> bool:
        return self.r == 1

    def __str__(self) -> str:
        return f"L({self.r},{self.s})"


def lens_equivalent(a: LensClass, b: LensClass) -> bool:
    """Equal r and s1 = +-s2 (mod r): homeomorphism with the two solid tori
    keeping their labels.

    This is the criterion the boundary-gluing construction needs for
    well-definedness.  It leaves out the classical inverse case
    s1*s2 = +-1 (mod r), in which the lens spaces are homeomorphic by a map
    that exchanges the solid tori.
    """
    if a.r != b.r:
        return False
    return (a.s - b.s) % a.r == 0 or (a.s + b.s) % a.r == 0


def space_of_directions(left: PairLike, right: PairLike,
                        bezout_pair: tuple | None = None) -> LensClass:
    """Lens class of the space of directions at a fixed point.

    ``left`` and ``right`` are the signed isotropy representatives on the
    two adjacent arcs.  ``bezout_pair`` optionally overrides the complement
    (p, q) of the left pair; it must satisfy p*n - q*m = 1 and the result is
    independent of the choice.  Raises :class:`IllegalDeterminant` when the
    two pairs have determinant 0.
    """
    left = as_pair(left)
    right = as_pair(right)
    d = left.det(right)
    if d == 0:
        raise IllegalDeterminant(f"pairs {left} and {right} have determinant 0")
    if bezout_pair is None:
        p, q = _minimal_bezout(left.m, left.n)
    else:
        p, q = bezout_pair
        if p * left.n - q * left.m != 1:
            raise NotCoprime(f"({p},{q}) is not a Bezout complement of {left}")
    r = abs(d)
    s = (p * right.n - q * right.m) % r
    # The defining congruences hold exactly; guard against regressions.
    if (left.m * s - right.m) % r or (left.n * s - right.n) % r:
        raise ArithmeticError(f"congruence failure for {left}, {right}")
    return LensClass(r, s)


@dataclass(frozen=True, slots=True)
class GluingMatrix:
    """The boundary identification [[u, v], [r, s]] of the two chart tori.

    Rows act on the boundary angles (alpha, beta) of the first chart and
    give those of the second.  The normalization here fixes the chart
    complements so that the determinant u*s - v*r is always +1; the second
    row (r, s) carries the lens-space data of the fixed point, with s a
    representative of the lens parameter mod r.
    """

    u: int
    v: int
    r: int
    s: int

    def determinant(self) -> int:
        return self.u * self.s - self.v * self.r

    def rows(self) -> tuple:
        return ((self.u, self.v), (self.r, self.s))

    def __str__(self) -> str:
        return f"[[{self.u},{self.v}],[{self.r},{self.s}]]"


def gluing_matrix(left: PairLike, right: PairLike) -> GluingMatrix:
    """Boundary identification of the two solid-torus charts at a fixed point.

    Uses the complement (p, q) of the left pair with p*n - q*m = 1 and the
    sign-adjusted complement (p', q') of the right pair with
    p'*n' - q'*m' = -1.  The entries are the four 2x2 determinants

        r = det(left, right),   s = p*n' - q*m',
        u = m*q' - n*p',        v = p*q' - q*p',

    and u*s - v*r = 1 holds identically (a Pluecker identity on the four
    integer vectors), making the identification a torus homeomorphism.
    """
    left = as_pair(left)
    right = as_pair(right)
    d = left.det(right)
    if d == 0:
        raise IllegalDeterminant(f"pairs {left} and {right} have determinant 0")
    p, q = _minimal_bezout(left.m, left.n)
    pr, qr = _minimal_bezout(right.m, right.n)
    pr, qr = -pr, -qr  # determinant condition -1 on the primed chart
    s = p * right.n - q * right.m
    u = left.m * qr - left.n * pr
    v = p * qr - q * pr
    matrix = GluingMatrix(u, v, d, s)
    if matrix.determinant() != 1:
        raise ArithmeticError(f"gluing matrix {matrix} is not unimodular")
    return matrix
