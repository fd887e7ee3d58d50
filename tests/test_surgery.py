"""Connected sums along circular orbits, decomposition and reassembly."""

import pytest

from t2orbits import (
    CircleSelection,
    Decomposition,
    EnumerationBounds,
    ExceptionalOrbit,
    FixedCycle,
    IllegalWeightSystem,
    IsotropyMismatch,
    IsotropyPair,
    OrientationMismatch,
    WeightSystem,
    c_connected_sum,
    canonical_cycle,
    decompose,
    enumerate_legal,
    is_isomorphic,
    is_simple,
    reassemble,
    suspension_of_lens,
    validate,
    weighted_projective,
)

circle = CircleSelection.boundary_circle
arc = CircleSelection.cycle_arc


class TestCircleSelection:
    def test_must_select_exactly_one_kind(self):
        with pytest.raises(ValueError):
            CircleSelection()
        with pytest.raises(ValueError):
            CircleSelection(circle=0, cycle=0, arc=0)

    def test_negative_indices_are_rejected(self):
        # A negative index counted from the end in one place and not in
        # another, so fusing circle -1 of two circles with circle 0 of two
        # others gave five circles, not three.
        for bad in (dict(circle=-1), dict(cycle=-1, arc=0), dict(cycle=0, arc=-2),
                    dict(circle=0, cycle=-1)):
            with pytest.raises(ValueError):
                CircleSelection(**bad)

    def test_pair_lookup(self):
        w = suspension_of_lens((1, 0), (2, 5))
        assert arc(0, 1).pair_in(w) == IsotropyPair(2, 5)
        host = WeightSystem(circle_boundaries=(IsotropyPair(3, 1),))
        assert circle(0).pair_in(host) == IsotropyPair(3, 1)


class TestIsSimple:
    def test_suspension_is_simple(self):
        assert is_simple(suspension_of_lens((1, 0), (2, 5)))

    def test_weighted_projective_is_simple(self):
        assert is_simple(weighted_projective(1, 1, 1))
        assert is_simple(weighted_projective(2, 3, 5))

    def test_exceptional_orbits_disqualify(self):
        w = suspension_of_lens((1, 0), (2, 5))
        with_exc = WeightSystem(fixed_cycles=w.fixed_cycles,
                                exceptional=(ExceptionalOrbit(2, 1, 0),))
        assert not is_simple(with_exc)

    def test_genus_circles_and_closedness_disqualify(self):
        w = suspension_of_lens((1, 0), (2, 5))
        assert not is_simple(WeightSystem(fixed_cycles=w.fixed_cycles, genus=1))
        assert not is_simple(WeightSystem(
            fixed_cycles=w.fixed_cycles, circle_boundaries=(IsotropyPair(1, 0),)))
        assert not is_simple(WeightSystem(obstruction=(1, 0)))

    def test_illegal_input_raises(self):
        bad = WeightSystem(genus=-2)
        with pytest.raises(IllegalWeightSystem):
            is_simple(bad)


class TestConnectedSum:
    def test_two_free_circles_fuse(self):
        a = WeightSystem(circle_boundaries=(IsotropyPair(1, 0),), genus=1)
        b = WeightSystem(circle_boundaries=(IsotropyPair(1, 0),), genus=2)
        s = c_connected_sum(a, circle(0), b, circle(0))
        assert s.circle_boundaries == (IsotropyPair(1, 0),)
        assert s.genus == 3
        assert validate(s).is_legal

    def test_circle_absorbed_by_simple_piece(self):
        piece = suspension_of_lens((2, 5), (1, 0))
        host = WeightSystem(circle_boundaries=(IsotropyPair(2, 5),))
        s = c_connected_sum(host, circle(0), piece, arc(0, 0))
        assert s.circle_count == 0
        assert s.fixed_cycles == piece.fixed_cycles

    def test_absorption_matches_opposite_sign_representative(self):
        piece = suspension_of_lens((-2, -5), (1, 0))
        host = WeightSystem(circle_boundaries=(IsotropyPair(2, 5),))
        s = c_connected_sum(host, circle(0), piece, arc(0, 0))
        assert validate(s).is_legal

    def test_cycle_arc_absorbs_a_circle_of_the_second(self):
        a = WeightSystem(genus=1, circle_boundaries=(IsotropyPair(3, 1),),
                         fixed_cycles=suspension_of_lens((1, 0), (2, 5)).fixed_cycles)
        b = WeightSystem(circle_boundaries=(IsotropyPair(7, 2), IsotropyPair(-2, -5),
                                            IsotropyPair(1, 1)))
        s = c_connected_sum(a, arc(0, 1), b, circle(1))
        assert s == WeightSystem(
            genus=1,
            circle_boundaries=(IsotropyPair(3, 1), IsotropyPair(7, 2), IsotropyPair(1, 1)),
            fixed_cycles=a.fixed_cycles)

    def test_isotropy_mismatch(self):
        a = WeightSystem(circle_boundaries=(IsotropyPair(1, 0),))
        b = WeightSystem(circle_boundaries=(IsotropyPair(0, 1),))
        with pytest.raises(IsotropyMismatch):
            c_connected_sum(a, circle(0), b, circle(0))

    def test_orientation_mismatch(self):
        a = WeightSystem(circle_boundaries=(IsotropyPair(1, 0),))
        b = WeightSystem(orientation=-1, circle_boundaries=(IsotropyPair(1, 0),))
        with pytest.raises(OrientationMismatch):
            c_connected_sum(a, circle(0), b, circle(0))

    def test_cycle_splice_counts_and_legality(self):
        a = suspension_of_lens((1, 0), (2, 5))
        b = suspension_of_lens((1, 0), (1, 3))
        s = c_connected_sum(a, arc(0, 0), b, arc(0, 0))
        assert s.cycle_count == 1
        spliced = s.fixed_cycles[0]
        assert len(spliced) == 4
        assert validate(s).is_legal
        # both selected arcs survive, so all four fixed points persist
        assert sorted(abs(f) for f in spliced.dets) == [3, 3, 5, 5]

    def test_splice_merges_exceptional_genus_boundaries(self):
        a = WeightSystem(genus=1, fixed_cycles=suspension_of_lens((1, 0), (2, 5)).fixed_cycles,
                         circle_boundaries=(IsotropyPair(7, 2),),
                         exceptional=(ExceptionalOrbit(2, 1, 1),))
        b = WeightSystem(genus=2, fixed_cycles=suspension_of_lens((1, 0), (1, 4)).fixed_cycles,
                         exceptional=(ExceptionalOrbit(3, 2, 0),))
        s = c_connected_sum(a, arc(0, 0), b, arc(0, 0))
        assert s.genus == 3
        assert s.circle_boundaries == (IsotropyPair(7, 2),)
        assert set(s.exceptional) == {ExceptionalOrbit(2, 1, 1), ExceptionalOrbit(3, 2, 0)}
        assert s.boundary_count == 2

    def test_illegal_inputs_rejected(self):
        good = WeightSystem(circle_boundaries=(IsotropyPair(1, 0),))
        bad = WeightSystem(genus=-1, circle_boundaries=(IsotropyPair(1, 0),))
        with pytest.raises(IllegalWeightSystem):
            c_connected_sum(good, circle(0), bad, circle(0))


class TestDecompose:
    def test_manifold_system_is_untouched(self):
        w = suspension_of_lens((1, 0), (0, 1))
        d = decompose(w)
        assert d.manifold_part == w
        assert d.simple_pieces == ()
        assert d.gluings == ()

    def test_suspension_splits_into_circle_plus_piece(self):
        w = suspension_of_lens((1, 0), (2, 5))
        d = decompose(w)
        assert d.manifold_part.cycle_count == 0
        assert d.manifold_part.circle_count == 1
        assert len(d.simple_pieces) == 1
        piece = d.simple_pieces[0]
        assert is_simple(piece)
        assert piece.fixed_cycles[0] == canonical_cycle(w.fixed_cycles[0])
        lead = piece.fixed_cycles[0].pairs[0]
        assert d.manifold_part.circle_boundaries[0].same_subgroup(lead)

    def test_mixed_cycles_split_count(self):
        regular = FixedCycle.from_pairs([(1, 0), (0, 1)])
        singular = suspension_of_lens((1, 0), (2, 5)).fixed_cycles[0]
        w = WeightSystem(fixed_cycles=(regular, singular))
        d = decompose(w)
        assert len(d.simple_pieces) == 1
        assert d.manifold_part.fixed_cycles == (regular,)
        assert d.manifold_part.circle_count == 1

    def test_counts_follow_the_piece_number(self):
        singular1 = suspension_of_lens((1, 0), (2, 5)).fixed_cycles[0]
        singular2 = suspension_of_lens((1, 0), (1, 3)).fixed_cycles[0]
        w = WeightSystem(circle_boundaries=(IsotropyPair(1, 1),),
                         fixed_cycles=(singular1, singular2), genus=2)
        d = decompose(w)
        q = len(d.simple_pieces)
        assert q == 2
        assert d.manifold_part.circle_count == w.circle_count + q
        assert d.manifold_part.cycle_count == w.cycle_count - q
        assert d.manifold_part.genus == w.genus
        for piece in d.simple_pieces:
            assert is_simple(piece)
            assert piece.genus == 0 and piece.obstruction == (0, 0)

    def test_manifold_part_has_only_unit_determinants(self, rng):
        from tests.conftest import random_legal_system
        for _ in range(50):
            w = random_legal_system(rng)
            d = decompose(w)
            for cycle in d.manifold_part.fixed_cycles:
                assert all(abs(f) == 1 for f in cycle.dets)
            assert len(d.simple_pieces) == sum(
                1 for c in w.fixed_cycles if any(abs(f) != 1 for f in c.dets))


class TestReassemble:
    def test_empty_decomposition_round_trip(self):
        w = suspension_of_lens((1, 0), (0, 1))
        assert reassemble(Decomposition(w, (), ())) == w

    def test_round_trip_suspension(self):
        w = suspension_of_lens((1, 0), (2, 5))
        assert is_isomorphic(reassemble(decompose(w)), w)

    def test_round_trip_on_random_systems(self, rng):
        from tests.conftest import random_legal_system
        for _ in range(100):
            w = random_legal_system(rng)
            assert is_isomorphic(reassemble(decompose(w)), w)

    def test_round_trip_on_small_census(self):
        bounds = EnumerationBounds(max_cycles=2, max_cycle_length=3,
                                   max_weight_entry=2, max_circle_boundaries=1,
                                   max_genus=1)
        n = 0
        for w in enumerate_legal(bounds):
            if any(abs(f) >= 2 for c in w.fixed_cycles for f in c.dets):
                assert is_isomorphic(reassemble(decompose(w)), w)
                n += 1
        assert n > 100

    def test_tampered_isotropy_raises(self):
        w = suspension_of_lens((1, 0), (2, 5))
        d = decompose(w)
        tampered = Decomposition(
            WeightSystem(
                obstruction=d.manifold_part.obstruction,
                orientation=d.manifold_part.orientation,
                genus=d.manifold_part.genus,
                circle_boundaries=(IsotropyPair(9, 1),),
                fixed_cycles=d.manifold_part.fixed_cycles,
                exceptional=d.manifold_part.exceptional,
            ),
            d.simple_pieces, d.gluings)
        with pytest.raises(IsotropyMismatch):
            reassemble(tampered)

    def test_consumed_component_cannot_be_reused(self):
        w = suspension_of_lens((1, 0), (2, 5))
        d = decompose(w)
        doubled = Decomposition(d.manifold_part,
                                d.simple_pieces + d.simple_pieces,
                                d.gluings + d.gluings)
        with pytest.raises(ValueError):
            reassemble(doubled)

    def test_out_of_order_consumption(self):
        # The gluings consume circle 1, cycle 1, cycle 0 and circle 0 of the
        # manifold part, in that order; the fusion at circle 2 and the circle
        # glued to cycle 2 consume nothing.
        manifold = WeightSystem(
            circle_boundaries=(IsotropyPair(1, 0), IsotropyPair(0, 1), IsotropyPair(1, 1)),
            fixed_cycles=(FixedCycle.from_pairs([(1, 0), (0, 1)]),
                          FixedCycle.from_pairs([(1, 0), (1, 2)]),
                          FixedCycle.from_pairs([(2, 1), (1, 1)])))
        pieces = (
            suspension_of_lens((0, -1), (2, 5)),
            suspension_of_lens((1, 2), (1, 5)),
            WeightSystem(circle_boundaries=(IsotropyPair(-1, -1), IsotropyPair(5, 2))),
            WeightSystem(genus=1, circle_boundaries=(IsotropyPair(1, 1), IsotropyPair(2, 1))),
            suspension_of_lens((3, 1), (-1, 0)),
            weighted_projective(1, 2, 3),
        )
        gluings = (
            (circle(1), arc(0, 0)),
            (arc(1, 1), arc(0, 0)),
            (arc(2, 1), circle(0)),
            (circle(2), circle(0)),
            (arc(0, 0), arc(0, 1)),
            (circle(0), arc(0, 0)),
        )
        assert reassemble(Decomposition(manifold, pieces, gluings)) == WeightSystem(
            genus=1,
            circle_boundaries=(IsotropyPair(1, 1), IsotropyPair(5, 2), IsotropyPair(2, 1)),
            fixed_cycles=(
                FixedCycle.from_pairs([(2, 1), (1, 1)]),
                FixedCycle.from_pairs([(0, -1), (2, 5)]),
                FixedCycle.from_pairs([(1, 0), (1, 2), (1, 5), (1, 2)]),
                FixedCycle.from_pairs([(1, 0), (3, 1), (-1, 0), (0, 1)]),
                FixedCycle.from_pairs([(1, 0), (1, 2), (1, -1)]),
            ))
        for reused, name in (((arc(1, 0), arc(0, 0)), "cycle 1"),
                             ((circle(1), arc(0, 0)), "circle 1")):
            with pytest.raises(ValueError, match=f"{name} was already consumed"):
                reassemble(Decomposition(manifold, pieces + pieces[1:2],
                                         gluings + (reused,)))

    def test_index_past_the_manifold_part_raises(self):
        # After the first fusion the running system has a circle 1, but it
        # belongs to the piece, not to the manifold part.
        manifold = WeightSystem(circle_boundaries=(IsotropyPair(1, 0),))
        piece = WeightSystem(circle_boundaries=(IsotropyPair(1, 0), IsotropyPair(0, 1)))
        with pytest.raises(IndexError):
            reassemble(Decomposition(manifold, (piece, piece),
                                     ((circle(0), circle(0)), (circle(1), circle(1)))))
