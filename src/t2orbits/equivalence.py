"""Canonical forms of weight systems and the isomorphism decision procedure.

Two spaces are equivariantly homeomorphic exactly when their weighted orbit
spaces are isomorphic: related by an orientation and weight preserving
homeomorphism.  On the level of the stored data the admitted presentational
symmetries are

* permuting the members of each multiset,
* rotating the starting index of a fixed cycle,
* flipping the sign representative of any single cycle entry (which negates
  the two adjacent determinants and nothing else).

``STRICT`` mode quotients by exactly these.  ``WEAK`` mode additionally
quotients by reparametrizations of the torus (a common unimodular basis
change applied to every isotropy pair) and by reversing the orientation,
which is the natural reading when the torus comes with no preferred basis.

Canonicalization of one cycle is exact: each nonzero determinant forces the
next sign, so it makes one O(r) pass per rotation that starts at the least
|f| and per first sign, O(r^2) at worst in the cycle length r (see
``_canonical_flat``).  A zero determinant is rejected.  The product of the
signs of the determinants around a cycle is invariant under all flips and
makes a cheap prefilter when comparing cycles by hand.

A WEAK decision (``weak_witness``) compares cheap invariants first: the
genus, the number of circles, the per-cycle multisets of |f|, gcd(b1, b2)
and the multiset of alphas.  Every WEAK move keeps each of them and each can
be read off the WEAK components, so a difference answers "not isomorphic"
exactly, without minimizing.  Otherwise both systems are minimized over
basis candidates (``_weak_argmin``), each candidate scored on plain integer
tuples rather than a rebuilt system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .core import (
    ExceptionalOrbit,
    FixedCycle,
    IsotropyPair,
    WeightSystem,
    require_legal,
)
from .errors import IllegalDeterminant, NotUnimodular
from .localmodels import _minimal_bezout

Matrix = tuple  # ((a, b), (c, d)) acting on column vectors (m, n)

IDENTITY: Matrix = ((1, 0), (0, 1))


class EquivalenceMode(Enum):
    STRICT = "strict"
    WEAK = "weak"

    def __str__(self) -> str:
        return self.value


def _canonical_flat(flat: tuple) -> tuple:
    """Lexicographically minimal presentation of a cycle, as entry keys.

    ``flat`` is (m, n, f) per entry; the result is a tuple of entry keys
    (|f|, f, m, n), minimized over all rotations and all per-entry sign
    flips.  A flip of entry w negates the stored pair and the determinants
    at w-1 and w.  A pair may be (0, 0) and f need not be the determinant of
    its pairs, but f = 0 raises :class:`IllegalDeterminant`.

    Exact because each sign is forced.  Under a rotation and signs s_0 ..
    s_{r-1}, entry k of the key is (|f_k|, s_k s_{k+1} f_k, s_k m_k, s_k n_k)
    with s_r = s_0.

    * |f| leads each entry and does not depend on the signs, so only
      rotations that start at the least |f| are tried.
    * Given s_k, the choice of s_{k+1} alone decides whether the second
      component of entry k is -|f_k| or +|f_k|, and entry k comes before
      anything else that choice affects.  So s_{k+1} = -s_k sign(f_k) for
      k < r - 1, and the last entry is fixed by s_{r-1} and s_0.
    * Trying both values of s_0 covers a (0, 0) pair at the start of a
      rotation.

    That is one O(r) pass per (rotation, s_0), O(r^2) at worst.  A pass is
    abandoned once its prefix exceeds the best key so far; ties are followed.
    """
    r = len(flat) // 3
    ms = flat[0::3]
    ns = flat[1::3]
    fs = flat[2::3]
    absf = [abs(f) for f in fs]
    least = min(absf, default=None)
    if least == 0:
        raise IllegalDeterminant("a stored determinant is 0")
    last = r - 1
    best = None
    for rot in range(r):
        if absf[rot] != least:
            continue
        for s0 in (1, -1):
            s = s0  # s_k at entry k
            key = []
            tied = best is not None  # the prefix so far equals best's
            for j in range(r):
                k = rot + j - r  # a negative index wraps around
                f = fs[k]
                t = s0 if j == last else (-s if f > 0 else s)  # s_{k+1}
                entry = (absf[k], s * t * f, s * ms[k], s * ns[k])
                if tied:
                    other = best[j]
                    if entry > other:
                        break
                    tied = entry == other
                key.append(entry)
                s = t
            else:
                if not tied:
                    best = tuple(key)
    return best


def _cycle_from_key(key: tuple) -> FixedCycle:
    pairs = tuple(IsotropyPair(m, n) for _, _, m, n in key)
    dets = tuple(f for _, f, _, _ in key)
    return FixedCycle(pairs, dets)


def _cycle_key(cycle: FixedCycle) -> tuple:
    # Stash the canonical key on the immutable instance; cycles are shared
    # between systems, so this turns repeat canonicalization into a lookup.
    key = cycle.__dict__.get("_ckey")
    if key is None:
        key = _canonical_flat(cycle.flat())
        cycle.__dict__["_ckey"] = key
    return key


def canonical_cycle(cycle: FixedCycle) -> FixedCycle:
    """The canonical representative of a cycle under rotations and sign flips.

    Entries are compared by (|f|, f, m, n); the result is the
    lexicographically minimal presentation, so equal outputs characterize
    equal cycles-up-to-presentation.  Idempotent: an output of this function
    (every pool and census cycle is one) comes back as the same object; any
    other cycle gives a new object on each call, equal from call to call.
    Raises :class:`IllegalDeterminant` when a stored determinant is 0.
    """
    # Each output points to itself, so the piece that decompose builds from
    # a census cycle keeps that cycle's _violations, _ckey and _compact.
    canonical = cycle.__dict__.get("_canonical")
    if canonical is None:
        key = _cycle_key(cycle)
        canonical = _cycle_from_key(key)
        canonical.__dict__["_ckey"] = key
        canonical.__dict__["_canonical"] = canonical
    return canonical


@dataclass(frozen=True)
class CanonicalForm:
    """A totally ordered, deterministic serialization of a weight system.

    Two legal systems have equal canonical forms in a given mode exactly
    when they are isomorphic in that mode.  Forms of different modes never
    compare equal.
    """

    mode: EquivalenceMode
    obstruction: tuple
    orientation: int
    genus: int
    circle_boundaries: tuple
    cycle_keys: tuple
    exceptional: tuple

    @property
    def key(self) -> tuple:
        return (self.mode.value, self.obstruction, self.orientation, self.genus,
                self.circle_boundaries, self.cycle_keys, self.exceptional)

    def __lt__(self, other: "CanonicalForm") -> bool:
        return self.key < other.key

    def to_weight_system(self) -> WeightSystem:
        """Rebuild a weight system presenting exactly this canonical form."""
        return WeightSystem(
            obstruction=self.obstruction,
            orientation=self.orientation,
            genus=self.genus,
            circle_boundaries=tuple(IsotropyPair(m, n) for m, n in self.circle_boundaries),
            fixed_cycles=tuple(_cycle_from_key(k) for k in self.cycle_keys),
            exceptional=tuple(ExceptionalOrbit(*t) for t in self.exceptional),
        )


def _strict_components(system: WeightSystem) -> tuple:
    """The STRICT canonical data, as a plain comparable tuple."""
    if system.circle_boundaries:
        circles = tuple(sorted((p.m, p.n) for p in
                               (q.canonical() for q in system.circle_boundaries)))
    else:
        circles = ()
    raw = system.fixed_cycles
    if not raw:
        cycles = ()
    elif len(raw) == 1:
        cycles = (_cycle_key(raw[0]),)
    else:
        cycles = tuple(sorted(map(_cycle_key, raw)))
    if system.exceptional:
        exceptional = tuple(sorted(e.key() for e in system.exceptional))
    else:
        exceptional = ()
    return (system.obstruction, system.orientation, system.genus,
            circles, cycles, exceptional)


def apply_basis_change(system: WeightSystem, matrix: Matrix) -> WeightSystem:
    """Reparametrize the torus: every pair becomes A*(m, n).

    Stored determinants scale by det(A) and the obstruction pair transforms
    as a vector, so legality is preserved.  Raises :class:`NotUnimodular`
    unless det(A) is +1 or -1.
    """
    (a, b), (c, d) = matrix
    det = a * d - b * c
    if det not in (1, -1):
        raise NotUnimodular(f"matrix {matrix} has determinant {det}")

    def act(p: IsotropyPair) -> IsotropyPair:
        return IsotropyPair(a * p.m + b * p.n, c * p.m + d * p.n)

    b1, b2 = system.obstruction
    return replace(
        system,
        obstruction=(a * b1 + b * b2, c * b1 + d * b2),
        circle_boundaries=tuple(act(p) for p in system.circle_boundaries),
        fixed_cycles=tuple(
            FixedCycle(tuple(act(p) for p in cy.pairs),
                       tuple(det * f for f in cy.dets))
            for cy in system.fixed_cycles
        ),
    )


def reverse_orientation(system: WeightSystem) -> WeightSystem:
    """The same action viewed with the opposite orientation.

    Flips the orientation sign, negates the obstruction, reverses every
    cycle (each determinant re-attaches to the reversed adjacency with a
    sign flip) and conjugates every Seifert triple by gamma -> alpha - gamma
    (mod alpha).  An involution up to presentation.
    """
    b1, b2 = system.obstruction
    return replace(
        system,
        obstruction=(-b1, -b2),
        orientation=-system.orientation,
        fixed_cycles=tuple(
            FixedCycle(c.pairs[::-1], tuple(-f for f in c.dets[-2::-1] + c.dets[-1:]))
            for c in system.fixed_cycles),
        exceptional=tuple(
            ExceptionalOrbit(e.alpha,
                             (e.alpha - e.gamma1) % e.alpha,
                             (e.alpha - e.gamma2) % e.alpha)
            for e in system.exceptional
        ),
    )


def _mat_mul(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mat_inv(x: Matrix) -> Matrix:
    (a, b), (c, d) = x
    det = a * d - b * c
    return ((d * det, -b * det), (-c * det, a * det))


def _completion_to_first_vector(m: int, n: int) -> Matrix:
    """A determinant +1 matrix sending the primitive vector (m, n) to (1, 0)."""
    # Rows (x, y) and (-n, m) with x*m + y*n = 1.
    p, q = _minimal_bezout(-n, m)  # p*m - q*(-n) = 1, i.e. p*m + q*n = 1
    return ((p, q), (-n, m))


def _basis_candidates(system: WeightSystem) -> list:
    """Finite set of basis changes over which WEAK forms are minimized.

    For each pair P occurring in the system (and its negative), take a
    unimodular matrix sending P to (1, 0); the residual stabilizer of (1, 0)
    is the shears [[1, t], [0, +-1]], and t is bounded by Euclidean
    reduction of the images of the remaining pairs.  Every candidate is
    anchored this way (a bare identity would break the correspondence
    between the candidate sets of W and of A*W); only a system with no
    pairs and no obstruction, on which basis changes act trivially, falls
    back to the identity.  The construction is a canonical-form convention:
    complete on the enumerated test sets, where it is cross-validated
    against brute force.
    """
    vectors = {(c.m, c.n) for c in (p.canonical() for p in system.all_pairs())}
    if not vectors and system.obstruction != (0, 0):
        b1, b2 = system.obstruction
        g = math.gcd(b1, b2)
        vectors.add((b1 // g, b2 // g))
    if not vectors:
        return [IDENTITY]
    candidates = set()
    for am, an in vectors:
        for anchor in ((am, an), (-am, -an)):
            base = _completion_to_first_vector(*anchor)
            shear_ts = {0}
            for (vm, vn) in vectors:
                x = base[0][0] * vm + base[0][1] * vn
                y = base[1][0] * vm + base[1][1] * vn
                if y != 0:
                    t0 = -(x // y)
                    shear_ts.update((t0 - 2, t0 - 1, t0, t0 + 1, t0 + 2))
            shear_ts.update((-1, 1))
            for t in shear_ts:
                for d in (1, -1):
                    candidates.add(_mat_mul(((1, t), (0, d)), base))
    return sorted(candidates)


def _weak_argmin(system: WeightSystem) -> tuple:
    """Minimal strict components over orientation reversal and basis candidates.

    Returns (components, matrix, reversed) where ``matrix`` and ``reversed``
    witness the minimizing transformation.  Candidates are ranked
    magnitude-first: a plain lexicographic minimum over strict components is
    not coercive (larger shears make pair entries more negative, hence
    "smaller"), so the entry-wise absolute values of the components lead and
    the exact components only break ties.  The optimum is then a
    Euclidean-reduced configuration, which the candidate windows contain.

    Each candidate is scored on plain tuples: the base's obstruction, circle
    pairs and cycle entries are read once per orientation and moved by integer
    arithmetic, the same values ``_strict_components(apply_basis_change(base,
    matrix))`` would give, without building the system.

    A candidate is dropped before its cycles are canonicalized when its rank
    is already above the best one's: on the obstruction and circles, or,
    with those equal, on a lower bound of the first entry of the cycle
    ranks.  The least cycle key starts at an entry whose |f| is the least
    over all cycles, so that entry ranks at least (|f|, |f|, |m|, |n|)
    minimized over the moved pairs of such entries.  Ties are never
    dropped, so the first least candidate still wins.
    """
    # The move laws are inlined, not shared with apply_basis_change: staged
    # helpers made this 23% slower; the witness check keeps both in step.
    # Reversal keeps every subgroup and at most negates the one anchor of a
    # pair-free closed system, whose two signs are both tried: both
    # orientations share one candidate set.
    candidates = _basis_candidates(system)
    best = None
    for flipped, base in ((False, system), (True, reverse_orientation(system))):
        b1, b2 = base.obstruction
        orientation = base.orientation
        genus = base.genus
        circles = [(p.m, p.n) for p in base.circle_boundaries]
        cycles = [[(p.m, p.n, f) for p, f in cycle.entries()] for cycle in base.fixed_cycles]
        exceptional = tuple(sorted(e.key() for e in base.exceptional))
        abs_exceptional = tuple((abs(x), abs(y), abs(z)) for x, y, z in exceptional)
        # The least key starts at an entry of the least |f| over all cycles.
        least = min((abs(f) for entries in cycles for _, _, f in entries), default=None)
        leading = [(m, n) for entries in cycles for m, n, f in entries if abs(f) == least]
        for matrix in candidates:
            (a, b), (c, d) = matrix
            det = a * d - b * c
            obstruction = (a * b1 + b * b2, c * b1 + d * b2)
            moved = []
            for m, n in circles:
                x = a * m + b * n
                y = c * m + d * n
                if x < 0 or (x == 0 and y < 0):  # IsotropyPair.canonical
                    x, y = -x, -y
                moved.append((x, y))
            moved.sort()
            head = ((abs(obstruction[0]), abs(obstruction[1])), abs(orientation),
                    abs(genus), tuple([(abs(x), abs(y)) for x, y in moved]))
            if best is not None:
                top = best[0][0]
                if head > top[:4]:
                    continue
                if head == top[:4] and leading:
                    low = min([(abs(a * m + b * n), abs(c * m + d * n)) for m, n in leading])
                    if (least, least) + low > top[4][0][0]:
                        continue
            keys = []
            for entries in cycles:
                flat = []
                for m, n, f in entries:
                    flat += (a * m + b * n, c * m + d * n, det * f)
                keys.append(_canonical_flat(tuple(flat)))
            keys.sort()
            components = (obstruction, orientation, genus, tuple(moved),
                          tuple(keys), exceptional)
            rank = (head + (tuple([tuple([(e[0], e[0], abs(e[2]), abs(e[3])) for e in key])
                                   for key in keys]),
                            abs_exceptional),
                    components)
            if best is None or rank < best[0]:
                best = (rank, matrix, flipped)
    (_, components), matrix, flipped = best
    return components, matrix, flipped


def canonical_form(system: WeightSystem,
                   mode: EquivalenceMode = EquivalenceMode.STRICT) -> CanonicalForm:
    """Canonical form of a legal weight system in the given mode.

    Idempotent: the form of ``form.to_weight_system()`` is ``form`` again.
    Raises :class:`IllegalWeightSystem` on illegal input.
    """
    require_legal(system)
    if mode is EquivalenceMode.STRICT:
        components = _strict_components(system)
    else:
        components, _, _ = _weak_argmin(system)
    return CanonicalForm(mode, *components)


def is_isomorphic(first: WeightSystem, second: WeightSystem,
                  mode: EquivalenceMode = EquivalenceMode.STRICT) -> bool:
    """Decide orbit-space isomorphism by comparing canonical forms.

    WEAK mode is decided by :func:`weak_witness`.  Raises
    :class:`IllegalWeightSystem` when either system is illegal.
    """
    if mode is EquivalenceMode.STRICT:
        require_legal(first)
        require_legal(second)
        return _strict_components(first) == _strict_components(second)
    return weak_witness(first, second) is not None


@dataclass(frozen=True, slots=True)
class Witness:
    """A transformation exhibiting a WEAK isomorphism.

    Apply ``matrix`` as a basis change to the first system, after reversing
    its orientation when ``orientation_reversed`` is set, to reach a system
    STRICT-isomorphic to the second.
    """

    matrix: Matrix
    orientation_reversed: bool


def _weak_invariants(system: WeightSystem) -> tuple:
    """Cheap values that every WEAK move keeps; see :func:`weak_witness`."""
    b1, b2 = system.obstruction
    return (system.genus, len(system.circle_boundaries),
            sorted(tuple(sorted(map(abs, cycle.dets))) for cycle in system.fixed_cycles),
            math.gcd(b1, b2),
            sorted(e.alpha for e in system.exceptional))


def weak_witness(first: WeightSystem, second: WeightSystem) -> Witness | None:
    """A witnessing basis change / orientation flip, or None.

    Returns a witness exactly when the two systems are WEAK-isomorphic; this
    is the one WEAK decision.  Raises :class:`IllegalWeightSystem` when
    either system is illegal.

    Systems that differ in the genus, the number of circles, the multiset
    of per-cycle multisets of |f|, gcd(b1, b2) or the multiset of alphas
    get None before either argmin runs.  The shortcut is exact: each value
    is kept by re-presentation, by a basis change of determinant +-1 (which
    scales every f by +-1 and keeps the gcd of a vector) and by orientation
    reversal (which keeps every alpha and every |f|), and each can be read
    off the argmin's components.  So when one differs the components
    differ too, and the answer is None either way.
    """
    require_legal(first)
    require_legal(second)
    if _weak_invariants(first) != _weak_invariants(second):
        return None
    components1, mat1, flip1 = _weak_argmin(first)
    components2, mat2, flip2 = _weak_argmin(second)
    if components1 != components2:
        return None
    witness = Witness(_mat_mul(_mat_inv(mat2), mat1), flip1 ^ flip2)
    moved = first
    if witness.orientation_reversed:
        moved = reverse_orientation(moved)
    moved = apply_basis_change(moved, witness.matrix)
    # Checked at run time: _basis_candidates is a convention; _weak_argmin repeats the move laws.
    if _strict_components(moved) != _strict_components(second):
        raise ArithmeticError("weak witness verification failed")
    return witness
