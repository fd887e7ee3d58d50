"""Connected sums along circular orbits, decomposition and reassembly."""

import math
import random
from dataclasses import replace

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
    require_legal,
    suspension_of_lens,
    validate,
    weighted_projective,
)
from tests.conftest import random_coprime_pair

circle = CircleSelection.boundary_circle
arc = CircleSelection.cycle_arc


def reference_connected_sum(first, first_selection, second, second_selection):
    """One checked connected sum as a three-way list edit: a circle selected
    in the second system is dropped, else one selected in the first, else
    the two cycles are popped and their splice is appended last."""
    require_legal(first)
    require_legal(second)
    if first.orientation != second.orientation:
        raise OrientationMismatch("orientations differ")
    p1 = first_selection.pair_in(first)
    p2 = second_selection.pair_in(second)
    if not p1.same_subgroup(p2):
        raise IsotropyMismatch("selected isotropies differ")
    circles1, circles2 = list(first.circle_boundaries), list(second.circle_boundaries)
    cycles1, cycles2 = list(first.fixed_cycles), list(second.fixed_cycles)
    if second_selection.is_circle:
        del circles2[second_selection.circle]
    elif first_selection.is_circle:
        del circles1[first_selection.circle]
    else:
        c1, i = cycles1.pop(first_selection.cycle), first_selection.arc
        c2, j = cycles2.pop(second_selection.cycle), second_selection.arc
        cycles2.append(FixedCycle.from_pairs(
            c1.pairs[: i + 1] + c2.pairs[j + 1:] + c2.pairs[: j + 1] + c1.pairs[i + 1:]))
    return WeightSystem(
        obstruction=(first.obstruction[0] + second.obstruction[0],
                     first.obstruction[1] + second.obstruction[1]),
        orientation=first.orientation,
        genus=first.genus + second.genus,
        circle_boundaries=tuple(circles1 + circles2),
        fixed_cycles=tuple(cycles1 + cycles2),
        exceptional=first.exceptional + second.exceptional,
    )


def reference_reassemble(decomposition):
    """The sequential fold: one checked connected sum per gluing on the
    running system, each manifold index shifted down past the indices of its
    kind that earlier gluings consumed."""
    manifold = running = decomposition.manifold_part
    consumed = {"circle": set(), "cycle": set()}
    for (sel, piece_sel), piece in zip(decomposition.gluings,
                                       decomposition.simple_pieces):
        if sel.is_circle:
            kind, index, count = "circle", sel.circle, manifold.circle_count
        else:
            kind, index, count = "cycle", sel.cycle, manifold.cycle_count
        used = consumed[kind]
        if index >= count:
            raise IndexError(f"{kind} {index} is not in the manifold part")
        if index in used:
            raise ValueError(f"{kind} {index} was already consumed")
        shifted = index - sum(k < index for k in used)
        current = circle(shifted) if sel.is_circle else arc(shifted, sel.arc)
        running = reference_connected_sum(running, current, piece, piece_sel)
        if not piece_sel.is_circle:
            used.add(index)
    return running


def _cycle_through(rng, pair, at, length):
    """A legal cycle whose arc ``at`` carries ``pair``."""
    while True:
        pairs = [random_coprime_pair(rng, 4) for _ in range(length)]
        pairs[at] = pair
        if all(pairs[w].det(pairs[(w + 1) % length]) for w in range(length)):
            return FixedCycle.from_pairs(pairs)


def _random_part(rng, orientation, pair=None, select_circle=True):
    """A small system, legal unless spoiled, and a selection of the component
    that carries ``pair`` (or its negative); no pair, no selection."""
    circles = [random_coprime_pair(rng, 4) for _ in range(rng.randint(0, 2))]
    cycles = [_cycle_through(rng, random_coprime_pair(rng, 4), 0, rng.randint(2, 3))
              for _ in range(rng.randint(0, 2))]
    selection = None
    if pair is not None and select_circle:
        at = rng.randint(0, len(circles))
        circles.insert(at, pair if rng.random() < 0.5 else pair.flipped())
        selection = circle(at)
    elif pair is not None:
        length = rng.randint(2, 4)
        j = rng.randrange(length)
        at = rng.randint(0, len(cycles))
        cycles.insert(at, _cycle_through(rng, pair, j, length))
        selection = arc(at, j)
    exceptional = ()
    if rng.random() < 0.2:
        alpha = rng.randint(2, 5)
        g = rng.randrange(alpha)
        exceptional = (ExceptionalOrbit(alpha, g, 1 if math.gcd(alpha, g) != 1 else 0),)
    system = WeightSystem((0, 0), orientation, rng.randint(0, 2), circles, cycles, exceptional)
    roll = rng.random()
    if roll < 0.03:
        system = replace(system, genus=-1)
    elif roll < 0.05:
        system = replace(system, obstruction=(1, 0))
    elif roll < 0.08:
        system = replace(system, orientation=-orientation)
    return system, selection


def _random_selection(rng, system):
    """A selection into ``system``, out of range now and then."""
    use_circle = not system.fixed_cycles or (system.circle_boundaries and rng.random() < 0.5)
    if use_circle:
        return circle(rng.randrange(system.circle_count + (rng.random() < 0.1)))
    index = rng.randrange(system.cycle_count + (rng.random() < 0.1))
    length = len(system.fixed_cycles[index]) if index < system.cycle_count else 2
    return arc(index, rng.randrange(length + (rng.random() < 0.1)))


def random_gluing_case(rng):
    """A manifold part, one to four pieces and their gluings (none if the
    manifold part has no boundary).

    Most pieces carry the selected manifold isotropy (or its negative) at
    their own selection, so most sums go through; illegal parts, flipped
    orientations, out-of-range indices, reused components and unmatched
    isotropies are mixed in, often several in one case.
    """
    orientation = rng.choice((1, -1))
    manifold, _ = _random_part(rng, orientation)
    pieces, gluings = [], []
    for _ in range(rng.randint(1, 4)):
        if not manifold.circle_count + manifold.cycle_count:
            break
        sel = _random_selection(rng, manifold)
        try:
            pair = sel.pair_in(manifold)
        except IndexError:
            pair = random_coprime_pair(rng, 4)
        if rng.random() < 0.1:
            pair = random_coprime_pair(rng, 4)
        piece, piece_sel = _random_part(rng, orientation, pair, rng.random() < 0.4)
        if rng.random() < 0.05:
            piece_sel = _random_selection(rng, piece)
        pieces.append(piece)
        gluings.append((sel, piece_sel))
    return Decomposition(manifold, pieces, gluings)


def outcome(f, *args):
    """The return value of ``f(*args)``, or the type of what it raised."""
    try:
        return f(*args)
    except (ValueError, IndexError, IllegalWeightSystem, IsotropyMismatch,
            OrientationMismatch) as e:
        return type(e)


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

    def test_unequal_lengths_raise(self):
        # zip() used to drop what was left over: an extra piece was ignored
        # and a gluing without a piece returned the bare manifold part.
        d = decompose(suspension_of_lens((1, 0), (2, 5)))
        with pytest.raises(ValueError, match="2 simple pieces but 1 gluings"):
            Decomposition(d.manifold_part, d.simple_pieces * 2, d.gluings)
        with pytest.raises(ValueError, match="0 simple pieces but 1 gluings"):
            Decomposition(d.manifold_part, (), d.gluings)


class TestFoldMatchesSequentialFold:
    def test_random_decompositions_and_sums(self):
        rng = random.Random(0x5107)
        seen = {}
        for _ in range(2000):
            d = random_gluing_case(rng)
            got = outcome(reassemble, d)
            assert got == outcome(reference_reassemble, d), d
            kind = got if isinstance(got, type) else WeightSystem
            seen[kind] = seen.get(kind, 0) + 1
            if d.gluings:
                (sel, piece_sel), piece = d.gluings[0], d.simple_pieces[0]
                args = (d.manifold_part, sel, piece, piece_sel)
                assert outcome(c_connected_sum, *args) \
                    == outcome(reference_connected_sum, *args), args
        # every outcome is well represented, values most of all
        assert seen[WeightSystem] > 700
        for kind in (ValueError, IndexError, IllegalWeightSystem, IsotropyMismatch,
                     OrientationMismatch):
            assert seen[kind] >= 50, seen

    def test_the_first_of_two_faults_is_raised(self):
        legal = WeightSystem(circle_boundaries=(IsotropyPair(1, 0),),
                             fixed_cycles=suspension_of_lens((1, 0), (2, 5)).fixed_cycles)
        illegal = replace(legal, genus=-1)
        flipped = replace(legal, orientation=-1)
        # An out-of-range index at gluing 0 comes before the manifold part's
        # legality in reassemble, after it in c_connected_sum.
        d = Decomposition(illegal, (legal,), ((circle(1), circle(0)),))
        assert outcome(reassemble, d) is IndexError
        assert outcome(reference_reassemble, d) is IndexError
        for sum_ in (c_connected_sum, reference_connected_sum):
            assert outcome(sum_, illegal, circle(1), legal, circle(0)) is IllegalWeightSystem
        # An orientation mismatch comes before a bad arc in both.
        d = Decomposition(legal, (flipped,), ((arc(0, 5), arc(0, 0)),))
        assert outcome(reassemble, d) is OrientationMismatch
        assert outcome(reference_reassemble, d) is OrientationMismatch
        for sum_ in (c_connected_sum, reference_connected_sum):
            assert outcome(sum_, legal, arc(0, 5), flipped, arc(0, 0)) is OrientationMismatch
