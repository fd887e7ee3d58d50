"""Weighted orbit spaces of effective T^2-actions on closed orientable 4-spaces.

The quotient of such a space by the torus action is a compact 2-manifold
whose points carry isotropy labels.  Away from finitely many interior points
(exceptional orbits) and the boundary, orbits are free.  Boundary points are
either circular orbits, whose isotropy is a circle subgroup of T^2, or fixed
points separating two arcs of circular orbits.  A fixed point is
topologically regular when the determinant of its two adjacent isotropy
pairs is +-1 (its space of directions is the 3-sphere) and topologically
singular otherwise (the space of directions is a lens space).

This module holds the integer data making up the classifying tuple

    { (b1, b2); orientation; genus; circle boundaries;
      fixed cycles with adjacent determinants; exceptional Seifert triples }

together with the legality rules the tuple must satisfy.  All values are
immutable, all arithmetic is exact (Python integers), and every operation is
a pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Union

from .errors import IllegalDeterminant, IllegalWeightSystem, NotCoprime

PairLike = Union["IsotropyPair", tuple]


@dataclass(frozen=True, slots=True)
class IsotropyPair:
    """A representative (m, n) of the circle subgroup {m*phi + n*theta = 0}.

    (m, n) and (-m, -n) name the same subgroup.  Cycle data keeps whichever
    representative it was given, because adjacent determinants depend on the
    choice; use :meth:`canonical` when only the subgroup matters.
    """

    m: int
    n: int

    def det(self, other: "IsotropyPair") -> int:
        return self.m * other.n - self.n * other.m

    def flipped(self) -> "IsotropyPair":
        return IsotropyPair(-self.m, -self.n)

    def is_coprime(self) -> bool:
        return math.gcd(self.m, self.n) == 1

    def canonical(self) -> "IsotropyPair":
        """The sign representative with m > 0, or (0, 1)."""
        if self.m < 0 or (self.m == 0 and self.n < 0):
            return self.flipped()
        return self

    def same_subgroup(self, other: "IsotropyPair") -> bool:
        return (self.m == other.m and self.n == other.n) or (
            self.m == -other.m and self.n == -other.n
        )

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


def as_pair(value: PairLike) -> IsotropyPair:
    """Coerce a raw (m, n) tuple to an :class:`IsotropyPair`, verbatim."""
    if isinstance(value, IsotropyPair):
        return value
    m, n = value
    return IsotropyPair(int(m), int(n))


def make_pair(m: int, n: int) -> IsotropyPair:
    """Build the canonical-sign representative of the subgroup G(m, n).

    Raises :class:`NotCoprime` unless gcd(m, n) = 1; in particular (0, 0)
    is rejected.
    """
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"({m},{n}) does not name a circle subgroup")
    return IsotropyPair(m, n).canonical()


def det_pair(a: PairLike, b: PairLike) -> int:
    """Determinant of two integer pairs: a1*b2 - b1*a2."""
    a = as_pair(a)
    b = as_pair(b)
    return a.det(b)


class OrbitType(Enum):
    """The five orbit types of an effective T^2-action on such a space."""

    PRINCIPAL = "P"
    EXCEPTIONAL = "E"
    CIRCULAR = "C"
    REGULAR_FIXED = "RF"
    SINGULAR_FIXED = "SF"

    def __str__(self) -> str:
        return self.value


def classify_fixed_point(f: int) -> OrbitType:
    """Classify a fixed point from the determinant of its adjacent pairs.

    Determinant +-1 means the space of directions at the point is the
    3-sphere (a regular fixed point); any other nonzero value gives a lens
    space (a singular fixed point).  Zero is illegal: it would force
    S^2 x S^1 as space of directions, which no such point has.
    """
    if f == 0:
        raise IllegalDeterminant("adjacent isotropy pairs with determinant 0")
    return OrbitType.REGULAR_FIXED if abs(f) == 1 else OrbitType.SINGULAR_FIXED


@dataclass(frozen=True, slots=True)
class ExceptionalOrbit:
    """Oriented Seifert invariants (alpha; gamma1, gamma2) of an exceptional orbit.

    Normal form: alpha >= 2, 0 <= gamma_i < alpha, gcd(alpha, gamma1, gamma2) = 1.
    The triple is compared verbatim; no cross-normalization against the
    obstruction pair is attempted.
    """

    alpha: int
    gamma1: int
    gamma2: int

    def key(self) -> tuple:
        return (self.alpha, self.gamma1, self.gamma2)


@dataclass(frozen=True)
class FixedCycle:
    """One boundary component containing fixed points.

    ``pairs[w]`` is the isotropy representative on the w-th arc of circular
    orbits; between arc w and arc w+1 (cyclically) sits a fixed point whose
    stored determinant is ``dets[w]``.  For a legal cycle ``dets[w]`` equals
    ``pairs[w].det(pairs[w+1])``; the two are stored separately so that
    inconsistent documents can still be loaded and reported on.
    """

    pairs: tuple
    dets: tuple

    def __post_init__(self):
        pairs = tuple(as_pair(p) for p in self.pairs)
        dets = tuple(int(f) for f in self.dets)
        if len(pairs) != len(dets) or not pairs:
            raise ValueError("a fixed cycle needs equally many pairs and determinants")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "dets", dets)

    @classmethod
    def from_pairs(cls, pairs: Iterable[PairLike]) -> "FixedCycle":
        """Build a cycle from arc representatives, deriving the determinants."""
        ps = tuple(as_pair(p) for p in pairs)
        r = len(ps)
        dets = tuple(ps[w].det(ps[(w + 1) % r]) for w in range(r))
        return cls(ps, dets)

    def __len__(self) -> int:
        return len(self.pairs)

    def entries(self) -> Iterator[tuple]:
        return zip(self.pairs, self.dets)

    def fixed_points(self) -> Iterator[tuple]:
        """Yield (index, left pair, right pair, determinant) per fixed point."""
        r = len(self.pairs)
        for w in range(r):
            yield w, self.pairs[w], self.pairs[(w + 1) % r], self.dets[w]

    def recomputed_dets(self) -> tuple:
        r = len(self.pairs)
        return tuple(self.pairs[w].det(self.pairs[(w + 1) % r]) for w in range(r))

    def flat(self) -> tuple:
        """Hashable flat encoding (m, n, f per entry), the input of cycle
        canonicalization.

        Computed once per instance; safe because the value is immutable.
        """
        cached = self.__dict__.get("_flat")
        if cached is None:
            out = []
            for p, f in zip(self.pairs, self.dets):
                out.append(p.m)
                out.append(p.n)
                out.append(f)
            cached = tuple(out)
            self.__dict__["_flat"] = cached
        return cached


@dataclass(frozen=True, init=False)
class WeightSystem:
    """The full invariant tuple attached to a weighted orbit space.

    ``obstruction`` is the cross-sectioning obstruction pair, meaningful
    only when the orbit space is closed (no circle boundaries and no fixed
    cycles); it is stored as (0, 0) otherwise.  ``orientation`` is +1 or -1,
    ``genus`` the genus of the orbit surface.  The three collections keep
    the order and sign representatives they were constructed with; the
    equivalence machinery, not the data type, quotients by presentation.
    """

    obstruction: tuple = (0, 0)
    orientation: int = 1
    genus: int = 0
    circle_boundaries: tuple = ()
    fixed_cycles: tuple = ()
    exceptional: tuple = ()

    def __init__(self, obstruction=(0, 0), orientation=1, genus=0,
                 circle_boundaries=(), fixed_cycles=(), exceptional=()):
        # Coerce to plain ints and tuples (so True is stored as 1 and
        # serializes as a number), then set every field in one step.
        b = obstruction
        if not (type(b) is tuple and len(b) == 2
                and type(b[0]) is int and type(b[1]) is int):
            b1, b2 = b
            b = (int(b1), int(b2))
        if type(orientation) is not int:
            orientation = int(orientation)
        if type(genus) is not int:
            genus = int(genus)
        circles = circle_boundaries
        if type(circles) is not tuple:
            circles = tuple(circles)
        if circles and not all(type(p) is IsotropyPair for p in circles):
            circles = tuple(as_pair(p) for p in circles)
        if type(fixed_cycles) is not tuple:
            fixed_cycles = tuple(fixed_cycles)
        if type(exceptional) is not tuple:
            exceptional = tuple(exceptional)
        self.__dict__.update(obstruction=b, orientation=orientation, genus=genus,
                             circle_boundaries=circles, fixed_cycles=fixed_cycles,
                             exceptional=exceptional)

    @property
    def circle_count(self) -> int:
        return len(self.circle_boundaries)

    @property
    def cycle_count(self) -> int:
        return len(self.fixed_cycles)

    @property
    def exceptional_count(self) -> int:
        return len(self.exceptional)

    @property
    def boundary_count(self) -> int:
        return self.circle_count + self.cycle_count

    @property
    def is_closed(self) -> bool:
        return self.boundary_count == 0

    def all_pairs(self) -> Iterator[IsotropyPair]:
        yield from self.circle_boundaries
        for cycle in self.fixed_cycles:
            yield from cycle.pairs


# Rule identifiers used in validation reports.  The command-line validator
# prints them verbatim, so they are part of the external contract.
RULE_PAIR_COPRIME = "pair-coprime"
RULE_DET_MISMATCH = "det-mismatch"
RULE_DET_ZERO = "det-zero"
RULE_CYCLE_LENGTH = "cycle-length"
RULE_R2_ANTISYMMETRY = "r2-antisymmetry"
RULE_OBSTRUCTION_CLOSED = "obstruction-closed"
RULE_GENUS = "genus"
RULE_ORIENTATION = "orientation"
RULE_SEIFERT = "seifert-range"


@dataclass(frozen=True, slots=True)
class Violation:
    rule: str
    location: str
    message: str

    def describe(self) -> str:
        return f"{self.rule} at {self.location}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def is_legal(self) -> bool:
        return not self.violations

    def lines(self) -> list:
        return [v.describe() for v in self.violations]


def _int_text(value: int) -> str:
    """``str(value)``, or ``<k-digit integer>`` (signed) where str() would
    raise: beyond Python's int/str conversion limit, which a determinant of
    two parsable pairs can pass."""
    try:
        return str(value)
    except ValueError:
        size = abs(value)
        # bit_length * log10(2) is within one of the digit count; start below
        k = max(1, int(size.bit_length() * 0.30102999566398120) - 1)
        while 10 ** k <= size:
            k += 1
        return f"{'-' if value < 0 else ''}<{k}-digit integer>"


def _cycle_violations(cycle: FixedCycle) -> tuple:
    """Violations of one cycle, with locations relative to the cycle."""
    bad = []
    pairs = cycle.pairs
    dets = cycle.dets
    r = len(pairs)
    if r < 2:
        bad.append(Violation(RULE_CYCLE_LENGTH, "",
                             f"a fixed cycle needs at least 2 entries, got {r}"))
    for w, pair in enumerate(pairs):
        if math.gcd(pair.m, pair.n) != 1:
            bad.append(Violation(RULE_PAIR_COPRIME, f".pair[{w}]",
                                 f"{pair} is not a coprime pair"))
    for w in range(r):
        stored = dets[w]
        derived = pairs[w].det(pairs[(w + 1) % r])
        if stored != derived:
            bad.append(Violation(RULE_DET_MISMATCH, f".f[{w}]",
                                 f"stored determinant {_int_text(stored)}, "
                                 f"adjacent pairs give {_int_text(derived)}"))
        if stored == 0:
            bad.append(Violation(RULE_DET_ZERO, f".f[{w}]",
                                 "adjacent determinant is 0 (not legally weighted)"))
    if r == 2 and dets[0] != -dets[1]:
        bad.append(Violation(
            RULE_R2_ANTISYMMETRY, "",
            f"a cycle with r = 2 fixed points must have f1 = -f2, "
            f"got f1 = {_int_text(dets[0])}, f2 = {_int_text(dets[1])}"))
    return tuple(bad)


def _violations(system: WeightSystem) -> tuple:
    """Every legality rule ``system`` breaks, as a tuple of Violations.

    The rules, in report order: orientation is +-1; genus >= 0; the
    obstruction pair is (0, 0) unless the orbit space is closed; circle pairs
    are coprime; per fixed cycle: length >= 2, coprime pairs, each stored
    determinant equal to the one recomputed from the stored pairs and
    nonzero, f1 = -f2 when r = 2; Seifert triples in normal form.  The one
    implementation behind validate() and require_legal(), which guards every
    operation, so a legal system allocates nothing.
    """
    bad = ()
    if system.orientation not in (1, -1):
        bad += (Violation(RULE_ORIENTATION, "orientation",
                          f"orientation must be +1 or -1, got {system.orientation}"),)
    if system.genus < 0:
        bad += (Violation(RULE_GENUS, "genus",
                          f"genus must be >= 0, got {system.genus}"),)
    if system.obstruction != (0, 0) and (system.circle_boundaries or system.fixed_cycles):
        bad += (Violation(
            RULE_OBSTRUCTION_CLOSED, "obstruction",
            f"obstruction {system.obstruction} requires a closed orbit space "
            f"(found {system.boundary_count} boundary components)"),)

    i = 0
    for pair in system.circle_boundaries:
        if math.gcd(pair.m, pair.n) != 1:
            bad += (Violation(RULE_PAIR_COPRIME, f"circle[{i}]",
                              f"{pair} is not a coprime pair"),)
        i += 1

    l = 0
    for cycle in system.fixed_cycles:
        # Stashed on the immutable cycle, which systems share freely.
        found = cycle.__dict__.get("_violations")
        if found is None:
            found = cycle.__dict__["_violations"] = _cycle_violations(cycle)
        if found:
            for v in found:
                bad += (Violation(v.rule, f"cycle[{l}]{v.location}", v.message),)
        l += 1

    j = 0
    for exc in system.exceptional:
        if exc.alpha < 2:
            bad += (Violation(RULE_SEIFERT, f"exceptional[{j}]",
                              f"alpha must be >= 2, got {exc.alpha}"),)
        elif not (0 <= exc.gamma1 < exc.alpha and 0 <= exc.gamma2 < exc.alpha):
            bad += (Violation(RULE_SEIFERT, f"exceptional[{j}]",
                              f"gammas must lie in [0, alpha), got "
                              f"({exc.alpha};{exc.gamma1},{exc.gamma2})"),)
        elif math.gcd(exc.alpha, exc.gamma1, exc.gamma2) != 1:
            bad += (Violation(RULE_SEIFERT, f"exceptional[{j}]",
                              f"gcd(alpha, gamma1, gamma2) must be 1, got "
                              f"({exc.alpha};{exc.gamma1},{exc.gamma2})"),)
        j += 1

    return bad


def validate(system: WeightSystem) -> ValidationReport:
    """Report the broken legality rules (see :func:`_violations`); never raise."""
    return ValidationReport(_violations(system))


def require_legal(system: WeightSystem) -> None:
    """Raise :class:`IllegalWeightSystem` unless ``system`` validates.

    The exception's ``report`` equals ``validate(system)``.
    """
    bad = _violations(system)
    if bad:
        raise IllegalWeightSystem(ValidationReport(bad))
