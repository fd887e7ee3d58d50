"""Domain types, orbit classification and the legality validator."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from t2orbits import (
    ExceptionalOrbit,
    FixedCycle,
    IllegalDeterminant,
    IllegalWeightSystem,
    IsotropyPair,
    NotCoprime,
    OrbitType,
    WeightSystem,
    classify_fixed_point,
    det_pair,
    make_pair,
    require_legal,
    suspension_of_lens,
    validate,
)
from t2orbits.core import (
    RULE_DET_MISMATCH,
    RULE_DET_ZERO,
    RULE_GENUS,
    RULE_OBSTRUCTION_CLOSED,
    RULE_PAIR_COPRIME,
    RULE_R2_ANTISYMMETRY,
    RULE_SEIFERT,
)
from tests.conftest import random_legal_cycle


class TestMakePair:
    def test_already_canonical(self):
        assert make_pair(2, -5) == IsotropyPair(2, -5)

    def test_sign_normalization(self):
        assert make_pair(-1, 0) == IsotropyPair(1, 0)
        assert make_pair(0, -1) == IsotropyPair(0, 1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            make_pair(2, 4)
        with pytest.raises(NotCoprime):
            make_pair(0, 0)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_canonical_is_idempotent_and_same_subgroup(self, m, n):
        import math
        if math.gcd(m, n) != 1:
            return
        p = make_pair(m, n)
        assert p.canonical() == p
        assert p.same_subgroup(IsotropyPair(m, n))
        assert p.m > 0 or (p.m == 0 and p.n == 1)


class TestDetPair:
    def test_identity_matrix(self):
        assert det_pair((1, 0), (0, 1)) == 1

    def test_lateral_pair_against_vertical(self):
        # det((1,0),(p,q)) = q gives the lens order at the fixed point
        assert det_pair((1, 0), (2, 5)) == 5

    def test_plain_two_by_two(self):
        assert det_pair((3, 7), (2, 5)) == 3 * 5 - 7 * 2

    @given(st.tuples(st.integers(-99, 99), st.integers(-99, 99)),
           st.tuples(st.integers(-99, 99), st.integers(-99, 99)))
    def test_antisymmetric(self, a, b):
        assert det_pair(a, b) == -det_pair(b, a)


class TestClassifyFixedPoint:
    def test_regular(self):
        assert classify_fixed_point(1) is OrbitType.REGULAR_FIXED
        assert classify_fixed_point(-1) is OrbitType.REGULAR_FIXED

    def test_singular(self):
        assert classify_fixed_point(5) is OrbitType.SINGULAR_FIXED

    def test_zero_is_illegal(self):
        with pytest.raises(IllegalDeterminant):
            classify_fixed_point(0)

    @given(st.integers(-1000, 1000).filter(lambda f: f != 0))
    def test_sign_invariance(self, f):
        assert classify_fixed_point(f) == classify_fixed_point(-f)


class TestFixedCycle:
    def test_from_pairs_derives_determinants(self):
        c = FixedCycle.from_pairs([(1, 0), (2, 5)])
        assert c.dets == (5, -5)

    def test_fixed_points_iteration(self):
        c = FixedCycle.from_pairs([(1, 0), (0, 1), (1, -1)])
        points = list(c.fixed_points())
        assert points[0] == (0, IsotropyPair(1, 0), IsotropyPair(0, 1), 1)
        assert points[2][1] == IsotropyPair(1, -1)
        assert points[2][2] == IsotropyPair(1, 0)

    def test_rejects_structural_nonsense(self):
        with pytest.raises(ValueError):
            FixedCycle((), ())
        with pytest.raises(ValueError):
            FixedCycle((IsotropyPair(1, 0),), (1, 2))


class TestWeightSystem:
    def test_defaults_and_positional_order(self):
        c = FixedCycle.from_pairs([(1, 0), (0, 1)])
        e = ExceptionalOrbit(2, 1, 0)
        w = WeightSystem((0, 0), -1, 2, (IsotropyPair(1, 0),), (c,), (e,))
        assert (w.obstruction, w.orientation, w.genus, w.circle_boundaries,
                w.fixed_cycles, w.exceptional) == ((0, 0), -1, 2, (IsotropyPair(1, 0),),
                                                   (c,), (e,))
        assert w == WeightSystem(orientation=-1, genus=2, circle_boundaries=[(1, 0)],
                                 fixed_cycles=[c], exceptional=[e])
        d = WeightSystem()
        assert (d.obstruction, d.orientation, d.genus, d.circle_boundaries,
                d.fixed_cycles, d.exceptional) == ((0, 0), 1, 0, (), (), ())

    def test_coerces_to_plain_ints_and_tuples(self):
        w = WeightSystem(obstruction=[True, 3], orientation=True, genus=False,
                         circle_boundaries=(p for p in [(1, 0), IsotropyPair(0, 1)]),
                         fixed_cycles=[], exceptional=iter(()))
        assert w.obstruction == (1, 3) and type(w.obstruction) is tuple
        assert [type(v) for v in (*w.obstruction, w.orientation, w.genus)] == [int] * 4
        assert w.circle_boundaries == (IsotropyPair(1, 0), IsotropyPair(0, 1))
        assert (w.fixed_cycles, w.exceptional) == ((), ())
        # A generator of pairs is read once, not consumed by the type check.
        gen = WeightSystem(circle_boundaries=(IsotropyPair(1, 0) for _ in range(2)))
        assert gen.circle_boundaries == (IsotropyPair(1, 0),) * 2

    def test_value_semantics(self):
        w = suspension_of_lens((1, 0), (2, 5))
        again = WeightSystem(fixed_cycles=w.fixed_cycles)
        assert w == again and hash(w) == hash(again)
        assert repr(WeightSystem()) == (
            "WeightSystem(obstruction=(0, 0), orientation=1, genus=0, "
            "circle_boundaries=(), fixed_cycles=(), exceptional=())")
        moved = dataclasses.replace(w, genus=2, circle_boundaries=[(0, 1)])
        assert (moved.genus, moved.circle_boundaries) == (2, (IsotropyPair(0, 1),))
        assert moved.fixed_cycles is w.fixed_cycles
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.genus = 1


def _rules(system):
    """Rules an illegal system violates; require_legal must agree with validate."""
    report = validate(system)
    assert not report.is_legal
    with pytest.raises(IllegalWeightSystem) as raised:
        require_legal(system)
    assert raised.value.report == report
    return {v.rule for v in report.violations}


class TestValidate:
    def test_suspension_is_legal(self):
        report = validate(suspension_of_lens((2, 5), (1, 3)))
        assert report.is_legal

    def test_excluded_disk_violates_r2_rule(self):
        # A disk whose two fixed points carry stored weights (delta, 1) with
        # delta != -1 is excluded by the length-2 antisymmetry rule.
        cycle = FixedCycle((IsotropyPair(1, 0), IsotropyPair(2, 5)), (5, 1))
        assert RULE_R2_ANTISYMMETRY in _rules(WeightSystem(fixed_cycles=(cycle,)))

    def test_closed_obstruction_with_boundary_is_illegal(self):
        w = WeightSystem(obstruction=(1, 0),
                         fixed_cycles=(FixedCycle.from_pairs([(1, 0), (0, 1)]),))
        assert RULE_OBSTRUCTION_CLOSED in _rules(w)

    def test_closed_obstruction_alone_is_legal(self):
        assert validate(WeightSystem(obstruction=(3, -7))).is_legal
        # exceptional orbits do not make the orbit space non-closed
        w = WeightSystem(obstruction=(1, 1),
                         exceptional=(ExceptionalOrbit(2, 1, 0),))
        assert validate(w).is_legal

    def test_non_coprime_pairs_reported(self):
        w = WeightSystem(circle_boundaries=(IsotropyPair(2, 4),))
        assert RULE_PAIR_COPRIME in _rules(w)
        cycle = FixedCycle((IsotropyPair(2, 4), IsotropyPair(0, 1)), (2, -2))
        assert RULE_PAIR_COPRIME in _rules(WeightSystem(fixed_cycles=(cycle,)))

    def test_det_mismatch_and_zero_reported(self):
        cycle = FixedCycle((IsotropyPair(1, 0), IsotropyPair(0, 1)), (2, -2))
        assert RULE_DET_MISMATCH in _rules(WeightSystem(fixed_cycles=(cycle,)))
        cycle = FixedCycle((IsotropyPair(1, 0), IsotropyPair(1, 0)), (0, 0))
        assert RULE_DET_ZERO in _rules(WeightSystem(fixed_cycles=(cycle,)))

    def test_det_mismatch_message(self):
        cycle = FixedCycle((IsotropyPair(1, 0), IsotropyPair(0, 1)), (2, -2))
        lines = validate(WeightSystem(fixed_cycles=(cycle,))).lines()
        assert lines[0] == ("det-mismatch at cycle[0].f[0]: "
                            "stored determinant 2, adjacent pairs give 1")

    def test_wide_determinant_is_abbreviated(self):
        # Both pairs fit Python's int/str conversion limit; their
        # determinant 1 - N^2 has 6,000 digits and does not.
        n = int("7" * 3000)
        assert 10 ** 5999 <= n * n - 1 < 10 ** 6000
        cycle = FixedCycle((IsotropyPair(1, n), IsotropyPair(n, 1)), (1, -1))
        system = WeightSystem(fixed_cycles=(cycle,))
        assert _rules(system) == {RULE_DET_MISMATCH}
        assert validate(system).lines() == [
            "det-mismatch at cycle[0].f[0]: stored determinant 1, "
            "adjacent pairs give -<6000-digit integer>",
            "det-mismatch at cycle[0].f[1]: stored determinant -1, "
            "adjacent pairs give <6000-digit integer>",
        ]

    def test_negative_genus_reported(self):
        assert RULE_GENUS in _rules(WeightSystem(genus=-1))

    def test_seifert_constraints(self):
        for bad in (ExceptionalOrbit(1, 0, 0), ExceptionalOrbit(3, 3, 1),
                    ExceptionalOrbit(4, 2, 0), ExceptionalOrbit(2, -1, 0)):
            assert RULE_SEIFERT in _rules(WeightSystem(exceptional=(bad,))), bad
        assert validate(WeightSystem(exceptional=(ExceptionalOrbit(4, 1, 2),))).is_legal

    def test_validate_is_pure_and_idempotent(self):
        w = suspension_of_lens((1, 0), (2, 5))
        first = validate(w)
        second = validate(w)
        assert first == second
        assert validate(w) == first

    def test_recomputing_dets_reproduces_stored_on_legal(self, rng):
        for _ in range(100):
            c = random_legal_cycle(rng)
            assert c.dets == c.recomputed_dets()


def _flip_entry(cycle: FixedCycle, w: int) -> FixedCycle:
    r = len(cycle)
    pairs = list(cycle.pairs)
    dets = list(cycle.dets)
    pairs[w] = pairs[w].flipped()
    dets[w] = -dets[w]
    dets[(w - 1) % r] = -dets[(w - 1) % r]
    return FixedCycle(tuple(pairs), tuple(dets))


class TestSignFlipInvariants:
    def test_flip_negates_exactly_two_dets_and_stays_legal(self, rng):
        for _ in range(200):
            c = random_legal_cycle(rng)
            w = rng.randrange(len(c))
            flipped = _flip_entry(c, w)
            # consistency: adjusted dets still match the stored representatives
            assert flipped.dets == flipped.recomputed_dets()
            changed = [i for i in range(len(c)) if flipped.dets[i] != c.dets[i]]
            assert sorted(changed) == sorted({w, (w - 1) % len(c)})

    def test_sign_product_is_flip_invariant(self, rng):
        import math
        for _ in range(200):
            c = random_legal_cycle(rng)
            product = math.prod(1 if f > 0 else -1 for f in c.dets)
            flipped = c
            for _ in range(rng.randint(1, 6)):
                flipped = _flip_entry(flipped, rng.randrange(len(c)))
            assert math.prod(1 if f > 0 else -1 for f in flipped.dets) == product
