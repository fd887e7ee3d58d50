"""Example families and the bounded census enumerator."""

import itertools
import math
import random

import pytest

from t2orbits import (
    EnumerationBounds,
    FixedCycle,
    IllegalDeterminant,
    IllegalParameters,
    IsotropyPair,
    NotCoprime,
    WeightSystem,
    canonical_cycle,
    canonical_form,
    decompose,
    enumerate_legal,
    lens_equivalent,
    space_of_directions,
    suspension_of_lens,
    validate,
    weighted_projective,
)
from t2orbits.constructors import _cycle_pool
from t2orbits.equivalence import _canonical_flat
from tests.conftest import random_coprime_pair


class TestSuspensionOfLens:
    def test_regular_pair_gives_a_manifold_system(self):
        w = suspension_of_lens((1, 0), (0, 1))
        assert w.fixed_cycles[0].dets == (1, -1)
        assert decompose(w).simple_pieces == ()

    def test_exact_invariant_tuple(self):
        w = suspension_of_lens((1, 0), (2, 5))
        assert w.obstruction == (0, 0)
        assert w.orientation == 1
        assert w.genus == 0
        assert w.circle_boundaries == ()
        assert w.exceptional == ()
        assert w.fixed_cycles == (FixedCycle(
            (IsotropyPair(1, 0), IsotropyPair(2, 5)), (5, -5)),)

    def test_local_models_match_the_lens_space(self):
        w = suspension_of_lens((1, 0), (2, 5))
        reference = space_of_directions((1, 0), (2, 5))
        for _, left, right, _ in w.fixed_cycles[0].fixed_points():
            assert lens_equivalent(space_of_directions(left, right), reference)

    def test_random_inputs_are_legal(self):
        rng = random.Random(21)
        count = 0
        while count < 300:
            p1 = random_coprime_pair(rng, 12)
            p2 = random_coprime_pair(rng, 12)
            if p1.det(p2) == 0:
                continue
            orientation = rng.choice((1, -1))
            w = suspension_of_lens(p1, p2, orientation)
            assert validate(w).is_legal
            assert w.orientation == orientation
            count += 1

    def test_zero_determinant_rejected(self):
        with pytest.raises(IllegalDeterminant):
            suspension_of_lens((1, 0), (-1, 0))

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprime):
            suspension_of_lens((2, 4), (0, 1))

    def test_decomposes_iff_determinant_at_least_two(self):
        rng = random.Random(22)
        count = 0
        while count < 200:
            p1 = random_coprime_pair(rng, 9)
            p2 = random_coprime_pair(rng, 9)
            d = p1.det(p2)
            if d == 0:
                continue
            pieces = decompose(suspension_of_lens(p1, p2)).simple_pieces
            assert (len(pieces) == 1) == (abs(d) >= 2)
            count += 1


class TestWeightedProjective:
    def test_unit_weights_give_three_regular_points(self):
        w = weighted_projective(1, 1, 1)
        cycle = w.fixed_cycles[0]
        assert all(abs(f) == 1 for f in cycle.dets)
        expected = FixedCycle.from_pairs([(1, 0), (0, 1), (1, -1)])
        assert canonical_form(w) == canonical_form(
            WeightSystem(fixed_cycles=(expected,)))

    def test_determinant_equations_by_substitution(self):
        # oracle: plug the emitted pairs into the three defining equations,
        # for every pairwise coprime positive triple with entries up to 30
        triples = [rs for rs in itertools.product(range(1, 31), repeat=3)
                   if all(math.gcd(a, b) == 1 for a, b in itertools.combinations(rs, 2))]
        for r1, r2, r3 in triples:
            w = weighted_projective(r1, r2, r3)
            assert w.fixed_cycles[0].dets == (r2, -r3, r1)
            (p1, p2, p3) = w.fixed_cycles[0].pairs
            assert p1.m * p2.n - p2.m * p1.n == r2
            assert p2.m * p3.n - p3.m * p2.n == -r3
            assert p3.m * p1.n - p1.m * p3.n == r1
            assert validate(w).is_legal

    def test_brute_force_solution_exists_and_agrees(self):
        # independent solver: scan small coprime pairs for the same equations
        r1, r2, r3 = 1, 2, 3
        found = None
        rng = range(-6, 7)
        for m2 in rng:
            for n2 in rng:
                if m2 * 0 - 1 * n2 != -r2:  # det(P2, P1) = -r2 with P1=(1,0)
                    continue
                for m3 in rng:
                    for n3 in rng:
                        if (m2 * n3 - m3 * n2 == -r3
                                and m3 * 0 - 1 * n3 == r1
                                and math.gcd(m2, n2) == 1
                                and math.gcd(m3, n3) == 1):
                            found = ((1, 0), (m2, n2), (m3, n3))
        assert found is not None
        w = weighted_projective(r1, r2, r3)
        assert [abs(f) for f in w.fixed_cycles[0].dets] == [2, 3, 1]

    def test_sign_pattern_of_determinants(self):
        w = weighted_projective(2, 3, 5)
        assert w.fixed_cycles[0].dets == (3, -5, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(IllegalParameters):
            weighted_projective(2, 4, 5)
        with pytest.raises(IllegalParameters):
            weighted_projective(0, 1, 1)
        with pytest.raises(IllegalParameters):
            weighted_projective(1, -2, 3)

    def test_deterministic(self):
        assert weighted_projective(3, 4, 7) == weighted_projective(3, 4, 7)


def oracle_count_length_two_cycles(bound: int) -> int:
    """Independent census of length-2 cycle classes with |entries| <= bound.

    Enumerates ordered pairs of signed coprime pairs with nonzero
    determinant at most ``bound`` in absolute value, then counts orbits of
    the presentation action (rotation and per-entry sign flips) computed
    from scratch.
    """
    signed = [(m, n) for m in range(-bound, bound + 1)
              for n in range(-bound, bound + 1) if math.gcd(m, n) == 1]
    seen = set()
    count = 0
    for a in signed:
        for b in signed:
            d = a[0] * b[1] - a[1] * b[0]
            if d == 0 or abs(d) > bound:
                continue
            orbit = set()
            for first, second in ((a, b), (b, a)):
                for sa in (1, -1):
                    for sb in (1, -1):
                        orbit.add(((sa * first[0], sa * first[1]),
                                   (sb * second[0], sb * second[1])))
            key = min(orbit)
            if key not in seen:
                seen.add(key)
                count += 1
    return count


class TestEnumerateLegal:
    def test_closed_systems_parametrized_by_scalars(self):
        bounds = EnumerationBounds(max_genus=1, max_obstruction=1)
        census = list(enumerate_legal(bounds))
        # (b1, b2) in a 3x3 box, orientation, genus in {0, 1}
        assert len(census) == 9 * 2 * 2
        assert len({canonical_form(w).key for w in census}) == len(census)

    def test_length_two_cycle_count_matches_brute_force(self):
        bounds = EnumerationBounds(max_cycles=1, max_cycle_length=2,
                                   max_weight_entry=2)
        census = [w for w in enumerate_legal(bounds) if w.cycle_count == 1
                  and w.orientation == 1]
        assert len(census) == oracle_count_length_two_cycles(2)

    def test_everything_yielded_validates(self):
        bounds = EnumerationBounds(max_genus=1, max_cycles=1,
                                   max_cycle_length=3, max_weight_entry=2,
                                   max_exceptional=1, max_alpha=3,
                                   max_circle_boundaries=1, max_obstruction=1)
        n = 0
        for w in enumerate_legal(bounds):
            assert validate(w).is_legal
            n += 1
        assert n > 1000

    def test_no_duplicates_up_to_strict_canonical_form(self):
        bounds = EnumerationBounds(max_cycles=2, max_cycle_length=3,
                                   max_weight_entry=2, max_circle_boundaries=1)
        forms = [canonical_form(w).key for w in enumerate_legal(bounds)]
        assert len(forms) == len(set(forms))

    def test_deterministic_order(self):
        bounds = EnumerationBounds(max_cycles=1, max_cycle_length=3,
                                   max_weight_entry=2, max_obstruction=1)
        assert list(enumerate_legal(bounds)) == list(enumerate_legal(bounds))

    def test_bounds_validation(self):
        with pytest.raises(IllegalParameters):
            EnumerationBounds(max_genus=-1)
        with pytest.raises(IllegalParameters):
            EnumerationBounds(max_cycles=1, max_cycle_length=1)

    def test_weight_entry_bound_respected(self):
        bounds = EnumerationBounds(max_cycles=1, max_cycle_length=4,
                                   max_weight_entry=3)
        for w in itertools.islice(enumerate_legal(bounds), 5000):
            for cycle in w.fixed_cycles:
                assert all(abs(p.m) <= 3 and abs(p.n) <= 3 for p in cycle.pairs)
                assert all(0 < abs(f) <= 3 for f in cycle.dets)


# (max cycle length, max weight entry) -> pool size; (4, 3) are the census bounds.
POOL_SIZES = {(3, 2): 50, (4, 3): 1730, (5, 2): 760}


class TestCyclePool:
    """What the pool promises by construction: necklaces of subgroup
    sequences are in bijection with cycle classes, and every member is an
    output of ``canonical_cycle``."""

    @pytest.mark.parametrize("length, entry", sorted(POOL_SIZES))
    def test_one_canonical_cycle_per_class(self, length, entry):
        pool = _cycle_pool(length, entry)
        assert len(pool) == POOL_SIZES[length, entry]
        flats = [c.flat() for c in pool]
        assert all(a < b for a, b in zip(flats, flats[1:]))
        assert len({_canonical_flat(flat) for flat in flats}) == len(pool)
        assert all(canonical_cycle(c) is c for c in pool)

    @pytest.mark.parametrize("length, entry", sorted(POOL_SIZES))
    def test_decompose_keeps_the_census_cycle_instance(self, length, entry):
        census = EnumerationBounds(max_cycles=1, max_cycle_length=length,
                                   max_weight_entry=entry)
        singular = 0
        for w in enumerate_legal(census):
            pieces = decompose(w).simple_pieces
            if pieces:
                singular += 1
                assert pieces[0].fixed_cycles[0] is w.fixed_cycles[0]
        assert singular > 0
