"""Lens classes at fixed points, Bezout complements and chart gluings."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from t2orbits import (
    IllegalDeterminant,
    LensClass,
    NotCoprime,
    bezout_complement,
    det_pair,
    gluing_matrix,
    lens_equivalent,
    space_of_directions,
)
from tests.conftest import random_coprime_pair

coprime_pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(
    lambda p: math.gcd(p[0], p[1]) == 1)


class TestBezoutComplement:
    def test_vertical_axis(self):
        assert bezout_complement((1, 0)) == (0, -1)

    def test_horizontal_axis(self):
        assert bezout_complement((0, 1)) == (1, 0)

    def test_two_five(self):
        # brute force over |p| <= 2 finds (1, 2) as the minimal solution
        assert bezout_complement((2, 5)) == (1, 2)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            bezout_complement((2, 4))

    @given(coprime_pairs)
    def test_defining_identity_and_minimality(self, pair):
        m, n = pair
        p, q = bezout_complement(pair)
        assert p * n - q * m == 1
        if m != 0:
            assert 2 * abs(p) <= abs(m)  # minimal |p| within the solution line

    @given(coprime_pairs)
    def test_deterministic(self, pair):
        assert bezout_complement(pair) == bezout_complement(pair)

    def test_matches_brute_force_with_ties_toward_nonnegative_p(self):
        # Walk p = 0, 1, -1, 2, -2, ... and take the first p with
        # p*n = 1 (mod m): minimal |p|, ties (only at |m| = 2) toward p >= 0.
        for m in range(-30, 31):
            for n in range(-30, 31):
                if math.gcd(m, n) != 1:
                    continue
                if m == 0:
                    expected = (n, 0)  # p*n = 1 forces p = n; q is set to 0
                else:
                    p = next(p for k in range(abs(m) + 1) for p in (k, -k)
                             if (p * n - 1) % m == 0)
                    expected = (p, (p * n - 1) // m)
                assert bezout_complement((m, n)) == expected, (m, n)
        assert bezout_complement((2, 1)) == (1, 0)
        assert bezout_complement((-2, 3)) == (1, -1)

    def test_identity_and_minimality_on_4000_digit_pairs(self):
        rng = random.Random(4000)
        checked = 0
        while checked < 5:
            m = rng.getrandbits(13_280) * rng.choice((1, -1))
            n = rng.getrandbits(13_280) * rng.choice((1, -1))
            if math.gcd(m, n) != 1:
                continue
            p, q = bezout_complement((m, n))
            assert p * n - q * m == 1
            assert 2 * abs(p) <= abs(m)
            checked += 1


class TestLensClass:
    def test_sphere(self):
        assert LensClass(1, 0).is_sphere()

    def test_validation(self):
        with pytest.raises(ValueError):
            LensClass(0, 0)
        with pytest.raises(ValueError):
            LensClass(5, 5)
        with pytest.raises(ValueError):
            LensClass(6, 3)

    def test_equivalence_criterion(self):
        assert lens_equivalent(LensClass(5, 2), LensClass(5, 3))  # 3 = -2 mod 5
        assert not lens_equivalent(LensClass(5, 2), LensClass(7, 2))
        assert lens_equivalent(LensClass(1, 0), LensClass(1, 0))
        assert not lens_equivalent(LensClass(7, 2), LensClass(7, 3))
        # one fixed point read from either side: L(7, 2) and L(7, 4) are
        # homeomorphic (2*4 = 1 mod 7) by exchanging the solid tori, which
        # the labelled criterion +-s does not allow
        one_side = space_of_directions((1, 0), (2, 7))
        other_side = space_of_directions((2, 7), (1, 0))
        assert (one_side, other_side) == (LensClass(7, 2), LensClass(7, 4))
        assert not lens_equivalent(one_side, other_side)
        assert (one_side.s * other_side.s) % 7 == 1


class TestSpaceOfDirections:
    def test_vertical_against_general(self):
        # group diagram (T^2, G(1,0), G(p,q)) has space of directions L(q, p)
        assert space_of_directions((1, 0), (2, 5)) == LensClass(5, 2)

    def test_regular_point_is_sphere(self):
        assert space_of_directions((1, 0), (0, 1)) == LensClass(1, 0)

    def test_brute_force_congruence_solution(self):
        # independent oracle: the unique s in {0..4} with 1*s = 2, 0*s = 0 (5)
        expected = [s for s in range(5) if (s - 2) % 5 == 0 and 0 % 5 == 0]
        assert expected == [2]
        assert space_of_directions((1, 0), (2, 5)).s == 2

    def test_zero_determinant(self):
        with pytest.raises(IllegalDeterminant):
            space_of_directions((1, 0), (-1, 0))

    def test_congruences_hold(self):
        rng = random.Random(5)
        for _ in range(500):
            left = random_coprime_pair(rng, 50)
            right = random_coprime_pair(rng, 50)
            if left.det(right) == 0:
                continue
            lens = space_of_directions(left, right)
            r, s = lens.r, lens.s
            assert (left.m * s - right.m) % r == 0
            assert (left.n * s - right.n) % r == 0

    def test_bezout_choice_independence(self):
        rng = random.Random(6)
        for _ in range(200):
            left = random_coprime_pair(rng, 20)
            right = random_coprime_pair(rng, 20)
            if left.det(right) == 0:
                continue
            base = space_of_directions(left, right)
            p, q = bezout_complement(left)
            for t in range(-3, 4):
                shifted = space_of_directions(
                    left, right, bezout_pair=(p + t * left.m, q + t * left.n))
                assert lens_equivalent(base, shifted)
                assert base == shifted  # s only moves by multiples of r

    def test_rejects_wrong_bezout_pair(self):
        with pytest.raises(NotCoprime):
            space_of_directions((1, 0), (2, 5), bezout_pair=(1, 1))

    def test_sign_flip_of_either_input_is_equivalent(self):
        rng = random.Random(7)
        for _ in range(300):
            left = random_coprime_pair(rng, 20)
            right = random_coprime_pair(rng, 20)
            if left.det(right) == 0:
                continue
            base = space_of_directions(left, right)
            assert lens_equivalent(base, space_of_directions(left.flipped(), right))
            assert lens_equivalent(base, space_of_directions(left, right.flipped()))

    def test_swapping_sides_gives_the_inverse_class(self):
        # Swapping the arcs inverts s mod r: s * s' = 1 (mod r).  This is the
        # classical inverse relation, which the +-s criterion does not always
        # identify, e.g. (2,-3),(1,2) gives L(7,4) one way and L(7,2) the other.
        rng = random.Random(8)
        for _ in range(300):
            left = random_coprime_pair(rng, 20)
            right = random_coprime_pair(rng, 20)
            if left.det(right) == 0:
                continue
            one = space_of_directions(left, right)
            other = space_of_directions(right, left)
            assert one.r == other.r
            assert (one.s * other.s - 1) % one.r == 0
        assert space_of_directions((2, -3), (1, 2)) == LensClass(7, 4)
        assert space_of_directions((1, 2), (2, -3)) == LensClass(7, 2)


class TestGluingMatrix:
    def test_explicit_base_case(self):
        gm = gluing_matrix((1, 0), (0, 1))
        assert gm.rows() == ((0, -1), (1, 0))
        assert gm.determinant() == 1

    def test_unimodular_on_random_pairs(self):
        rng = random.Random(9)
        for _ in range(2000):
            left = random_coprime_pair(rng, 30)
            right = random_coprime_pair(rng, 30)
            if left.det(right) == 0:
                continue
            assert gluing_matrix(left, right).determinant() == 1

    def test_second_row_carries_the_lens_data(self):
        gm = gluing_matrix((1, 0), (2, 5))
        lens = space_of_directions((1, 0), (2, 5))
        assert abs(gm.r) == lens.r
        assert gm.s % abs(gm.r) == lens.s

    def test_second_row_consistency_in_general(self):
        rng = random.Random(10)
        for _ in range(500):
            left = random_coprime_pair(rng, 20)
            right = random_coprime_pair(rng, 20)
            if left.det(right) == 0:
                continue
            gm = gluing_matrix(left, right)
            assert gm.r == det_pair(left, right)
            lens = space_of_directions(left, right)
            assert gm.s % abs(gm.r) == lens.s

    def test_zero_determinant(self):
        with pytest.raises(IllegalDeterminant):
            gluing_matrix((2, 5), (-2, -5))


class TestEdgeCases:
    def test_bezout_override_at_regular_point(self):
        assert space_of_directions((1, 0), (0, 1), bezout_pair=(5, -1)) \
            == LensClass(1, 0)

    def test_lens_class_strings(self):
        assert str(LensClass(5, 2)) == "L(5,2)"
        assert str(space_of_directions((1, 0), (0, 1))) == "L(1,0)"

    def test_large_entries_stay_exact(self):
        big = 10 ** 30
        left = (1, 0)
        right = (3, big + 1)
        lens = space_of_directions(left, right)
        assert lens.r == big + 1
        assert (3 - lens.s) % lens.r == 0
        assert gluing_matrix(left, right).determinant() == 1
