"""Canonical forms, presentational symmetries and the isomorphism decision."""

import itertools
import math
import random

import pytest

from t2orbits import (
    EnumerationBounds,
    EquivalenceMode,
    ExceptionalOrbit,
    FixedCycle,
    IllegalWeightSystem,
    IsotropyPair,
    NotUnimodular,
    WeightSystem,
    apply_basis_change,
    canonical_cycle,
    canonical_form,
    enumerate_legal,
    is_isomorphic,
    lens_equivalent,
    reverse_orientation,
    space_of_directions,
    suspension_of_lens,
    validate,
    weak_witness,
    weighted_projective,
)
from t2orbits import equivalence
from t2orbits.equivalence import (
    _basis_candidates,
    _canonical_flat,
    _strict_components,
    _weak_argmin,
    _weak_invariants,
)
from tests.conftest import random_coprime_pair, random_legal_cycle, random_legal_system

STRICT = EquivalenceMode.STRICT
WEAK = EquivalenceMode.WEAK


def oracle_canonical_cycle(cycle: FixedCycle) -> tuple:
    """Independent brute force: enumerate the whole presentation orbit.

    Rebuilds every candidate from scratch (rotating the pair list, choosing
    a sign for every entry, recomputing all determinants from the chosen
    representatives) and returns the minimal key sequence under the entry
    order (|f|, f, m, n).
    """
    r = len(cycle)
    best = None
    for rot in range(r):
        rotated = cycle.pairs[rot:] + cycle.pairs[:rot]
        for signs in itertools.product((1, -1), repeat=r):
            pairs = [IsotropyPair(s * p.m, s * p.n) for s, p in zip(signs, rotated)]
            dets = [pairs[w].det(pairs[(w + 1) % r]) for w in range(r)]
            key = tuple((abs(f), f, p.m, p.n) for p, f in zip(pairs, dets))
            if best is None or key < best:
                best = key
    return best


def exhaustive_canonical_flat(flat: tuple) -> tuple:
    """Stored-f brute force over the flat encoding (m, n, f per entry).

    Tries every sign pattern and every rotation and keeps the least key
    sequence; flipping entry w negates its pair and the stored determinants
    at w-1 and w, which need not match the pairs.
    """
    r = len(flat) // 3
    ms = flat[0::3]
    ns = flat[1::3]
    fs = flat[2::3]
    absf = tuple(abs(f) for f in fs)
    best = None
    for mask in range(1 << r):
        signs = [-1 if mask >> w & 1 else 1 for w in range(r)]
        quads = [
            (absf[w], signs[w] * signs[(w + 1) % r] * fs[w],
             signs[w] * ms[w], signs[w] * ns[w])
            for w in range(r)
        ]
        for rot in range(r):
            key = tuple(quads[rot:] + quads[:rot])
            if best is None or key < best:
                best = key
    return best


def random_flat(rng: random.Random, r: int) -> tuple:
    """A flat cycle with entries in [-5, 5], legal or not.

    Small bounds make f = 0 and (0, 0) pairs common; half the cycles store
    random determinants instead of the ones their pairs give.
    """
    bound = rng.choice((1, 2, 5))
    pairs = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(r)]
    if rng.random() < 0.5:
        dets = [rng.randint(-bound, bound) for _ in range(r)]
    else:
        dets = [IsotropyPair(*pairs[w]).det(IsotropyPair(*pairs[(w + 1) % r]))
                for w in range(r)]
    return tuple(x for (m, n), f in zip(pairs, dets) for x in (m, n, f))


def rotate_flat(flat: tuple, k: int) -> tuple:
    return flat[3 * k:] + flat[:3 * k]


def flip_flat(flat: tuple, w: int) -> tuple:
    """Flip the sign representative of entry w: negate its pair and the
    stored determinants at w-1 and w."""
    out = list(flat)
    r = len(flat) // 3
    out[3 * w] = -out[3 * w]
    out[3 * w + 1] = -out[3 * w + 1]
    out[3 * w + 2] = -out[3 * w + 2]
    v = (w - 1) % r
    out[3 * v + 2] = -out[3 * v + 2]
    return tuple(out)


def cycle_key(cycle: FixedCycle) -> tuple:
    return tuple((abs(f), f, p.m, p.n) for p, f in cycle.entries())


def abs_rank(value):
    """Entry-wise absolute value of a nested tuple of integers."""
    if type(value) is tuple:
        return tuple(abs_rank(x) for x in value)
    return abs(value)


def reference_weak_argmin(system: WeightSystem) -> tuple:
    """The WEAK argmin built from the public operations.

    Every candidate is a whole system, ``apply_basis_change`` of the system
    or of its reversal, ranked by the recursive entry-wise absolute value of
    its strict components with the components breaking ties; the first
    least candidate wins.  Returns (components, matrix, reversed).
    """
    candidates = _basis_candidates(system)
    best = None
    for flipped, base in ((False, system), (True, reverse_orientation(system))):
        for matrix in candidates:
            components = _strict_components(apply_basis_change(base, matrix))
            rank = (abs_rank(components), components)
            if best is None or rank < best[0]:
                best = (rank, matrix, flipped)
    (_, components), matrix, flipped = best
    return components, matrix, flipped


def random_exceptional(rng: random.Random) -> ExceptionalOrbit:
    while True:
        alpha = rng.randint(2, 7)
        g1, g2 = rng.randrange(alpha), rng.randrange(alpha)
        if math.gcd(alpha, g1, g2) == 1:
            return ExceptionalOrbit(alpha, g1, g2)


def random_wide_system(rng: random.Random) -> WeightSystem:
    """A legal system beyond the census: cycles of length up to 8, entries
    up to 30, exceptional orbits; a fifth are closed with an obstruction and
    a fifth carry circles only."""
    bound = rng.choice((2, 5, 12, 30))
    exceptional = tuple(random_exceptional(rng) for _ in range(rng.choice((0, 0, 1, 2))))
    circles = cycles = ()
    obstruction = (0, 0)
    kind = rng.random()
    if kind < 0.2:
        obstruction = (rng.randint(-30, 30), rng.randint(-30, 30))
    elif kind < 0.4:
        circles = tuple(random_coprime_pair(rng, bound) for _ in range(rng.randint(1, 4)))
    else:
        cycles = tuple(random_legal_cycle(rng, length=rng.randint(2, 8), bound=bound)
                       for _ in range(rng.randint(1, 2)))
        circles = tuple(random_coprime_pair(rng, bound) for _ in range(rng.randint(0, 1)))
    return WeightSystem(obstruction, rng.choice((1, -1)), rng.randint(0, 2),
                        circles, cycles, exceptional)


class TestCanonicalCycle:
    def test_matches_brute_force_on_spec_example(self):
        c = FixedCycle.from_pairs([(0, 1), (1, 0)])
        assert c.dets == (-1, 1)
        assert cycle_key(canonical_cycle(c)) == oracle_canonical_cycle(c)

    def test_matches_brute_force_on_random_cycles(self, rng):
        for _ in range(150):
            c = random_legal_cycle(rng, bound=5)
            assert cycle_key(canonical_cycle(c)) == oracle_canonical_cycle(c)

    def test_idempotent(self, rng):
        for _ in range(100):
            c = random_legal_cycle(rng)
            once = canonical_cycle(c)
            assert canonical_cycle(once) == once

    def test_length_two_antisymmetry_preserved(self, rng):
        for _ in range(100):
            c = random_legal_cycle(rng, length=2)
            canon = canonical_cycle(c)
            assert canon.dets[0] == -canon.dets[1]

    def test_rotation_and_flip_invariance(self, rng):
        for _ in range(100):
            c = random_legal_cycle(rng)
            r = len(c)
            k = rng.randrange(r)
            rotated = FixedCycle(c.pairs[k:] + c.pairs[:k], c.dets[k:] + c.dets[:k])
            assert canonical_cycle(rotated) == canonical_cycle(c)
            w = rng.randrange(r)
            pairs = list(c.pairs)
            pairs[w] = pairs[w].flipped()
            flipped = FixedCycle.from_pairs(pairs)
            assert canonical_cycle(flipped) == canonical_cycle(c)


class TestCanonicalFlat:
    def test_matches_exhaustive_on_any_stored_values(self):
        # f = 0, (0, 0) pairs and stored determinants that disagree with the
        # pairs make several sign choices tie; all of them must be followed.
        rng = random.Random(0x5EED)
        for r in range(1, 9):
            for _ in range(150):
                flat = random_flat(rng, r)
                assert _canonical_flat(flat) == exhaustive_canonical_flat(flat), flat

    def test_ties_between_states(self):
        # Zero pairs and determinants tie every sign choice; the key is
        # decided only by the entries after them.
        for flat in ((0, 0, 0, 1, 2, 0, 0, 0, 0, 2, 1, 0),
                     (1, 0, 0, 0, 1, 0, 1, 1, 0),
                     (0, 0, 3, 2, 1, 0, 0, 0, -3, 1, 2, 0),
                     (0, 0, 0),
                     ()):
            assert _canonical_flat(flat) == exhaustive_canonical_flat(flat)

    def test_rotation_and_flip_invariance_of_long_flat_cycles(self):
        rng = random.Random(0xF1A7)
        for r in (64, 256):
            for _ in range(3):
                flat = random_flat(rng, r)
                key = _canonical_flat(flat)
                moved = rotate_flat(flat, rng.randrange(r))
                for w in rng.sample(range(r), r // 3):
                    moved = flip_flat(moved, w)
                assert _canonical_flat(moved) == key


class TestStrictCanonicalForm:
    def test_rotation_of_cycle_start(self):
        w = suspension_of_lens((1, 0), (2, 5))
        c = w.fixed_cycles[0]
        rotated = WeightSystem(fixed_cycles=(
            FixedCycle(c.pairs[1:] + c.pairs[:1], c.dets[1:] + c.dets[:1]),))
        assert canonical_form(w) == canonical_form(rotated)

    def test_pair_sign_flips(self):
        w = suspension_of_lens((1, 0), (2, 5))
        flipped = suspension_of_lens((-1, 0), (2, 5))
        assert canonical_form(w) == canonical_form(flipped)

    def test_multiset_permutations(self, rng):
        for _ in range(50):
            w = random_legal_system(rng)
            cycles = list(w.fixed_cycles)
            circles = list(w.circle_boundaries)
            rng.shuffle(cycles)
            rng.shuffle(circles)
            permuted = WeightSystem(w.obstruction, w.orientation, w.genus,
                                    tuple(circles), tuple(cycles), w.exceptional)
            assert is_isomorphic(w, permuted, STRICT)

    def test_idempotent_through_reconstruction(self, rng):
        for _ in range(50):
            w = random_legal_system(rng)
            form = canonical_form(w)
            rebuilt = form.to_weight_system()
            assert validate(rebuilt).is_legal
            assert canonical_form(rebuilt) == form

    def test_illegal_input_raises(self):
        bad = WeightSystem(fixed_cycles=(
            FixedCycle((IsotropyPair(1, 0), IsotropyPair(1, 0)), (0, 0)),))
        with pytest.raises(IllegalWeightSystem):
            canonical_form(bad)

    def test_forms_sort_as_their_keys(self):
        bounds = EnumerationBounds(max_genus=1, max_cycles=2, max_cycle_length=3,
                                   max_weight_entry=2, max_exceptional=1,
                                   max_circle_boundaries=1, max_obstruction=1)
        forms = [canonical_form(w) for w in itertools.islice(enumerate_legal(bounds), 3000)]
        assert len({f.key for f in forms}) > 100
        assert [f.key for f in sorted(forms)] == sorted(f.key for f in forms)

    def test_orientation_and_obstruction_kept_verbatim(self):
        a = WeightSystem(obstruction=(1, 2))
        b = WeightSystem(obstruction=(2, 1))
        assert canonical_form(a) != canonical_form(b)
        assert canonical_form(a) != canonical_form(reverse_orientation(a))


class TestApplyBasisChange:
    def test_identity(self, rng):
        w = random_legal_system(rng)
        assert apply_basis_change(w, ((1, 0), (0, 1))) == w

    def test_swap_acts_and_negates_determinants(self):
        w = suspension_of_lens((1, 0), (2, 5))
        swapped = apply_basis_change(w, ((0, 1), (1, 0)))
        assert swapped.fixed_cycles[0].pairs[0] == IsotropyPair(0, 1)
        assert swapped.fixed_cycles[0].pairs[1] == IsotropyPair(5, 2)
        assert swapped.fixed_cycles[0].dets == (-5, 5)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            apply_basis_change(WeightSystem(), ((2, 0), (0, 1)))

    def test_legality_preserved(self, rng):
        shear = ((1, 1), (0, 1))
        swap = ((0, 1), (1, 0))
        flip = ((-1, 0), (0, 1))
        for _ in range(200):
            w = random_legal_system(rng)
            matrix = ((1, 0), (0, 1))
            from t2orbits.equivalence import _mat_mul
            for _ in range(rng.randint(1, 4)):
                matrix = _mat_mul(matrix, rng.choice((shear, swap, flip)))
            moved = apply_basis_change(w, matrix)
            assert validate(moved).is_legal

    def test_obstruction_transforms_as_vector(self):
        w = WeightSystem(obstruction=(2, 3))
        moved = apply_basis_change(w, ((1, 1), (0, 1)))
        assert moved.obstruction == (5, 3)


class TestReverseOrientation:
    def test_suspension_swaps_to_reversed_parameters(self):
        w = suspension_of_lens((1, 0), (2, 5))
        assert reverse_orientation(w) == suspension_of_lens((2, 5), (1, 0), -1)

    def test_involution_up_to_presentation(self, rng):
        for _ in range(100):
            w = random_legal_system(rng)
            assert canonical_form(reverse_orientation(reverse_orientation(w))) \
                == canonical_form(w)

    def test_legality_preserved_on_small_census(self):
        bounds = EnumerationBounds(max_cycles=1, max_cycle_length=3,
                                   max_weight_entry=2, max_exceptional=1,
                                   max_alpha=3, max_circle_boundaries=1,
                                   max_obstruction=1, max_genus=1)
        for w in enumerate_legal(bounds):
            assert validate(reverse_orientation(w)).is_legal

    def test_seifert_conjugation(self):
        w = WeightSystem(exceptional=(ExceptionalOrbit(5, 2, 0),))
        assert reverse_orientation(w).exceptional[0] == ExceptionalOrbit(5, 3, 0)


class TestIsIsomorphic:
    def test_different_suspensions_differ_but_local_models_agree(self):
        a = suspension_of_lens((1, 0), (2, 5))
        b = suspension_of_lens((1, 0), (3, 5))
        assert not is_isomorphic(a, b, STRICT)
        # the local models alone cannot distinguish them
        assert lens_equivalent(space_of_directions((1, 0), (2, 5)),
                               space_of_directions((1, 0), (3, 5)))

    def test_reversal_weak_but_not_strict_on_asymmetric_system(self):
        w = weighted_projective(1, 2, 3)
        r = reverse_orientation(w)
        assert not is_isomorphic(w, r, STRICT)
        assert is_isomorphic(w, r, WEAK)

    def test_strict_implies_weak_on_census(self):
        bounds = EnumerationBounds(max_cycles=1, max_cycle_length=3,
                                   max_weight_entry=2)
        census = list(enumerate_legal(bounds))
        rng = random.Random(3)
        pairs = [(rng.choice(census), rng.choice(census)) for _ in range(40)]
        pairs += [(w, w) for w in rng.sample(census, 20)]
        for a, b in pairs:
            if is_isomorphic(a, b, STRICT):
                assert is_isomorphic(a, b, WEAK)

    def test_equivalence_relation_on_census_sample(self):
        bounds = EnumerationBounds(max_cycles=1, max_cycle_length=3,
                                   max_weight_entry=2)
        census = list(enumerate_legal(bounds))
        rng = random.Random(4)
        sample = rng.sample(census, 30)
        for w in sample:
            assert is_isomorphic(w, w, STRICT)  # reflexive
        for a, b in zip(sample, sample[1:]):
            assert is_isomorphic(a, b, STRICT) == is_isomorphic(b, a, STRICT)
        # transitivity through shared canonical forms
        for a in sample[:10]:
            matches = [b for b in census if is_isomorphic(a, b, STRICT)]
            for b, c in zip(matches, matches[1:]):
                assert is_isomorphic(b, c, STRICT)


class TestWeakMode:
    def test_shear_example(self):
        w = suspension_of_lens((1, 0), (2, 5))
        moved = apply_basis_change(w, ((1, 1), (0, 1)))
        assert canonical_form(w, WEAK) == canonical_form(moved, WEAK)
        assert weak_witness(w, moved) is not None

    def test_witness_none_when_not_isomorphic(self):
        a = suspension_of_lens((1, 0), (2, 5))
        b = suspension_of_lens((1, 0), (3, 7))
        assert weak_witness(a, b) is None

    def test_witness_verifies(self, rng):
        from t2orbits.equivalence import _mat_mul
        shear = ((1, 1), (0, 1))
        swap = ((0, 1), (1, 0))
        for _ in range(40):
            w = random_legal_system(rng, bound=4)
            matrix = ((1, 0), (0, 1))
            for _ in range(rng.randint(1, 3)):
                matrix = _mat_mul(matrix, rng.choice((shear, swap)))
            moved = apply_basis_change(w, matrix)
            if rng.random() < 0.5:
                moved = reverse_orientation(moved)
            witness = weak_witness(w, moved)
            assert witness is not None  # weak_witness verifies internally

    def test_illegal_operand_raises(self):
        bad = WeightSystem(genus=-1)
        good = suspension_of_lens((1, 0), (2, 5))
        for first, second in ((bad, bad), (bad, good), (good, bad)):
            with pytest.raises(IllegalWeightSystem):
                weak_witness(first, second)
            with pytest.raises(IllegalWeightSystem):
                is_isomorphic(first, second, WEAK)

    def test_weak_canonical_idempotent(self, rng):
        for _ in range(30):
            w = random_legal_system(rng, bound=4)
            form = canonical_form(w, WEAK)
            assert canonical_form(form.to_weight_system(), WEAK) == form

    def test_closed_obstruction_gcd_normal_form(self):
        a = WeightSystem(obstruction=(2, 4))
        b = WeightSystem(obstruction=(4, 2))
        c = WeightSystem(obstruction=(2, 3))
        assert is_isomorphic(a, b, WEAK)
        assert not is_isomorphic(a, c, WEAK)

    def test_cross_validated_against_bounded_brute_force(self):
        # Compare weak equality against an exhaustive search over all
        # unimodular matrices with entries bounded by 3, plus reversal.
        entries = range(-3, 4)
        brute = [((a, b), (c, d))
                 for a in entries for b in entries
                 for c in entries for d in entries
                 if abs(a * d - b * c) == 1]

        def brute_weak_equal(x, y):
            fy = canonical_form(y)
            for base in (x, reverse_orientation(x)):
                for matrix in brute:
                    if canonical_form(apply_basis_change(base, matrix)) == fy:
                        return True
            return False

        bounds = EnumerationBounds(max_cycles=1, max_cycle_length=3,
                                   max_weight_entry=2)
        census = list(enumerate_legal(bounds))
        rng = random.Random(11)
        sample = rng.sample(census, 12)
        shear = ((1, 1), (0, 1))
        swap = ((0, 1), (1, 0))
        for w in sample:
            for matrix in (shear, swap, ((1, -2), (0, -1))):
                moved = apply_basis_change(w, matrix)
                assert is_isomorphic(w, moved, WEAK) == brute_weak_equal(w, moved)
                assert is_isomorphic(w, moved, WEAK)
        for a, b in zip(sample, sample[1:]):
            assert is_isomorphic(a, b, WEAK) == brute_weak_equal(a, b)


# Unimodular products, det +1 and -1, applied to the pinned witness systems.
PINNED_MOVES = (((1, 1), (0, 1)), ((0, -1), (1, 0)), ((0, 1), (1, 0)), ((1, 0), (0, -1)),
                ((2, 1), (1, 1)), ((1, -2), (0, -1)), ((3, 2), (1, 1)), ((-1, 3), (1, -2)))

# (matrix, orientation_reversed) of weak_witness(W, A*W) for the systems of
# test_witness_bytes_are_pinned.  The witness is printed by
# `compare --mode weak`, so its bytes are contract output: a change to the
# argmin's candidates or tie-breaking shows here.
PINNED_WITNESSES = (
    (((1, 0), (0, -1)), True), (((0, 1), (1, 0)), False),
    (((-1, 3), (1, -2)), True), (((1, -2), (0, -1)), True),
    (((1, 0), (0, -1)), True), (((3, 2), (1, 1)), False),
    (((3, 2), (1, 1)), True), (((0, 1), (-1, 0)), True),
    (((1, -2), (0, -1)), False), (((1, 0), (0, -1)), True),
    (((3, 2), (1, 1)), False), (((0, 1), (1, 0)), False),
    (((-3, -2), (-1, -1)), False), (((-1, 3), (1, -2)), False),
    (((2, 1), (1, 1)), True), (((1, 0), (0, -1)), True),
    (((1, 1), (0, 1)), True), (((1, 0), (0, -1)), True),
    (((0, 1), (1, 0)), True), (((-1, 0), (0, 1)), False),
    (((1, 0), (0, -1)), False), (((1, 0), (0, -1)), False),
    (((1, -2), (0, -1)), False), (((2, 1), (1, 1)), True),
    (((-2, 7), (-1, 3)), False), (((1, 0), (0, -1)), True),
    (((-1, 3), (1, -2)), True), (((-1, 3), (1, -2)), True),
    (((-1, 3), (1, -2)), True), (((-2, -1), (-1, -1)), False),
    (((-1, 3), (1, -2)), True), (((1, -2), (0, -1)), True),
    (((1, -2), (0, -1)), False), (((1, 0), (0, -1)), False),
    (((0, -1), (-1, 0)), True), (((2, 1), (1, 1)), False),
    (((2, 1), (1, 1)), False), (((2, 1), (1, 1)), False),
    (((1, 1), (0, 1)), False), (((0, 1), (-1, 10)), True),
)


class TestPinnedWitness:
    def test_witness_bytes_are_pinned(self):
        rng = random.Random(7)
        got = []
        for _ in PINNED_WITNESSES:
            w = random_legal_system(rng)
            moved = apply_basis_change(w, rng.choice(PINNED_MOVES))
            if rng.random() < 0.5:
                moved = reverse_orientation(moved)
            witness = weak_witness(w, moved)
            got.append((witness.matrix, witness.orientation_reversed))
        assert tuple(got) == PINNED_WITNESSES


class TestWeakArgminOracle:
    def test_matches_the_reference_on_wide_systems(self):
        rng = random.Random(0xA5617)
        for _ in range(120):
            w = random_wide_system(rng)
            assert _weak_argmin(w) == reference_weak_argmin(w), w

    def test_matches_the_reference_on_a_census(self):
        bounds = EnumerationBounds(max_genus=1, max_cycles=1, max_cycle_length=3,
                                   max_weight_entry=2, max_exceptional=1, max_alpha=3,
                                   max_circle_boundaries=1, max_obstruction=2)
        for w in itertools.islice(enumerate_legal(bounds), 0, None, 97):
            assert _weak_argmin(w) == reference_weak_argmin(w), w


def invariants_of_components(components: tuple) -> tuple:
    """The invariants of ``_weak_invariants`` read off strict components."""
    obstruction, _, genus, circles, cycles, exceptional = components
    return (genus, len(circles),
            sorted(tuple(sorted(entry[0] for entry in key)) for key in cycles),
            math.gcd(*obstruction),
            sorted(alpha for alpha, _, _ in exceptional))


# One legal pair per invariant the shortcut compares; each differs in it.
SUSPENSION = suspension_of_lens((1, 0), (2, 5))
SQUARE = FixedCycle.from_pairs([(1, 0), (0, 1), (-1, 0), (0, -1)])
DIGON = FixedCycle.from_pairs([(1, 0), (0, 1)])
INVARIANT_BREAKS = {
    "genus": (SUSPENSION, WeightSystem(genus=1, fixed_cycles=SUSPENSION.fixed_cycles)),
    "circles": (WeightSystem(circle_boundaries=((1, 0),)),
                WeightSystem(circle_boundaries=((1, 0), (1, 0)))),
    # the same |f| multiset, four 1s, split into one cycle or two
    "cycles": (WeightSystem(fixed_cycles=(SQUARE,)),
               WeightSystem(fixed_cycles=(DIGON, DIGON))),
    "abs_f": (SUSPENSION, suspension_of_lens((1, 0), (3, 7))),
    "obstruction_gcd": (WeightSystem(obstruction=(2, 4)), WeightSystem(obstruction=(2, 3))),
    "alpha": (WeightSystem(exceptional=(ExceptionalOrbit(3, 1, 0),)),
              WeightSystem(exceptional=(ExceptionalOrbit(5, 1, 0),))),
}


class TestWeakShortcut:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        argmin = equivalence._weak_argmin

        def counted(system):
            calls.append(system)
            return argmin(system)

        monkeypatch.setattr(equivalence, "_weak_argmin", counted)
        return calls

    @pytest.mark.parametrize("name", sorted(INVARIANT_BREAKS))
    def test_a_broken_invariant_skips_the_argmin(self, name, calls):
        first, second = INVARIANT_BREAKS[name]
        assert validate(first).is_legal and validate(second).is_legal
        assert _weak_invariants(first) != _weak_invariants(second)
        assert weak_witness(first, second) is None
        assert weak_witness(second, first) is None
        assert not is_isomorphic(first, second, WEAK)
        assert calls == []

    def test_equal_invariants_still_run_the_argmin(self, calls):
        # The suspensions of L(5, 2) and L(5, 1) share every cheap invariant
        # and are not WEAK-isomorphic: only the argmins tell them apart.
        first = SUSPENSION
        second = suspension_of_lens((1, 0), (1, 5))
        assert _weak_invariants(first) == _weak_invariants(second)
        assert reference_weak_argmin(first)[0] != reference_weak_argmin(second)[0]
        assert weak_witness(first, second) is None
        assert len(calls) == 2

    def test_invariants_are_read_off_the_components(self):
        rng = random.Random(0x1A7)
        for _ in range(80):
            w = random_wide_system(rng)
            assert invariants_of_components(reference_weak_argmin(w)[0]) \
                == _weak_invariants(w), w

    def test_differing_invariants_mean_differing_components(self):
        # Systems from a small census, so that many pairs share some but not
        # all invariants, each with a reversed or basis-changed copy, so that
        # some pairs are WEAK-isomorphic.
        bounds = EnumerationBounds(max_genus=1, max_cycles=2, max_cycle_length=2,
                                   max_weight_entry=2, max_exceptional=1, max_alpha=3,
                                   max_circle_boundaries=1, max_obstruction=2)
        census = list(itertools.islice(enumerate_legal(bounds), 0, None, 23))
        rng = random.Random(0xD1FF)
        sample = []
        for w in rng.sample(census, 25):
            moved = apply_basis_change(w, rng.choice(PINNED_MOVES))
            sample += [w, reverse_orientation(moved) if rng.random() < 0.5 else moved]
        forms = [reference_weak_argmin(w)[0] for w in sample]
        differing = isomorphic = 0
        for i, j in itertools.combinations(range(len(sample)), 2):
            if _weak_invariants(sample[i]) != _weak_invariants(sample[j]):
                differing += 1
                assert forms[i] != forms[j], (sample[i], sample[j])
            isomorphic += forms[i] == forms[j]
        assert differing > 500 and isomorphic >= 25


class TestLargerCycles:
    def test_canonical_cycle_matches_oracle_on_longer_cycles(self, rng):
        # the oracle's search grows as r * 2^r, the canonicalizer's as r^2;
        # spot-check well beyond the census
        for length in (5, 6, 8):
            for _ in range(8):
                c = random_legal_cycle(rng, length=length, bound=4)
                assert cycle_key(canonical_cycle(c)) == oracle_canonical_cycle(c)
        for length in (9, 10, 11):
            for _ in range(3):
                c = random_legal_cycle(rng, length=length, bound=4)
                assert cycle_key(canonical_cycle(c)) == oracle_canonical_cycle(c)

    def test_rotation_and_flip_invariance_of_long_cycles(self, rng):
        for length in (64, 256):
            c = random_legal_cycle(rng, length=length, bound=20)
            canon = canonical_cycle(c)
            assert cycle_key(canonical_cycle(canon)) == cycle_key(canon)
            k = rng.randrange(length)
            pairs = list(c.pairs[k:] + c.pairs[:k])
            for w in rng.sample(range(length), length // 3):
                pairs[w] = pairs[w].flipped()
            assert canonical_cycle(FixedCycle.from_pairs(pairs)) == canon

    def test_weak_witness_between_independent_constructions(self):
        # same action described in two torus parametrizations from scratch
        a = suspension_of_lens((1, 0), (2, 5))
        b = suspension_of_lens((0, 1), (5, 2))
        witness = weak_witness(a, b)
        assert witness is not None
        moved = apply_basis_change(
            reverse_orientation(a) if witness.orientation_reversed else a,
            witness.matrix)
        assert is_isomorphic(moved, b, STRICT)


class TestConcurrentUse:
    def test_shared_values_are_safe_across_threads(self):
        # All values are immutable and operations pure; internal caches are
        # idempotent, so concurrent canonicalization must agree everywhere.
        import concurrent.futures
        import random as _random

        rng = _random.Random(77)
        systems = [random_legal_system(rng) for _ in range(200)]
        expected = [canonical_form(w).key for w in systems]

        def worker(seed):
            order = list(range(len(systems)))
            _random.Random(seed).shuffle(order)
            return [(i, canonical_form(systems[i]).key) for i in order]

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for result in pool.map(worker, range(8)):
                for i, key in result:
                    assert key == expected[i]
