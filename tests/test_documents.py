"""Interchange format: lossless round trips and strict schema checking."""

import itertools
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from t2orbits import (
    DocumentError,
    EnumerationBounds,
    ExceptionalOrbit,
    FixedCycle,
    IsotropyPair,
    WeightSystem,
    enumerate_legal,
    from_document,
    parse,
    serialize,
    serialize_compact,
    suspension_of_lens,
    to_document,
    validate,
)
from tests.conftest import random_legal_system


def sample_systems(rng, count=60):
    out = [
        WeightSystem(),
        WeightSystem(obstruction=(12345678901234567890, -7), orientation=-1),
        suspension_of_lens((1, 0), (2, 5)),
        WeightSystem(circle_boundaries=(IsotropyPair(-1, 0), IsotropyPair(0, -1)),
                     genus=3),
        WeightSystem(fixed_cycles=(FixedCycle.from_pairs([(-1, 0), (0, -1), (-1, -1)]),),
                     exceptional=()),
        WeightSystem(exceptional=(ExceptionalOrbit(5, 2, 3),
                                  ExceptionalOrbit(2, 1, 0))),
    ]
    out += [random_legal_system(rng) for _ in range(count - len(out))]
    return out


class TestRoundTrip:
    def test_parse_of_serialize_is_identity(self, rng):
        for w in sample_systems(rng):
            assert parse(serialize(w)) == w
            assert parse(serialize_compact(w)) == w
            assert serialize_compact(w) == dumped(w)

    def test_serialize_of_parse_is_byte_identity(self, rng):
        for w in sample_systems(rng):
            text = serialize(w)
            assert serialize(parse(text)) == text

    def test_sign_representatives_survive_verbatim(self):
        w = WeightSystem(
            circle_boundaries=(IsotropyPair(-1, 0),),
            fixed_cycles=(FixedCycle((IsotropyPair(-2, -5), IsotropyPair(1, 0)),
                                     (5, -5)),))
        again = parse(serialize(w))
        assert again.circle_boundaries[0] == IsotropyPair(-1, 0)
        assert again.fixed_cycles[0].pairs[0] == IsotropyPair(-2, -5)

    def test_huge_integers_are_exact(self):
        big = 10 ** 60 + 7
        w = WeightSystem(fixed_cycles=(
            FixedCycle.from_pairs([(1, 0), (big, big * big + 1)]),))
        assert parse(serialize(w)) == w


def dumped(system):
    """The compact line as ``json.dumps`` writes the document dictionary."""
    return json.dumps(to_document(system), separators=(",", ":"))


def wide_ints(min_value=0):
    """Integers of 1 to 4,300 digits (the int/str limit) with a small low part."""
    return st.builds(lambda k, low: 10 ** (k - 1) + low,
                     st.integers(1, sys.get_int_max_str_digits()), st.integers(min_value, 9))


def signed(ints):
    return st.builds(lambda v, sign: sign * v, ints, st.sampled_from((1, -1)))


entries = st.one_of(st.integers(-4, 4), signed(wide_ints()))
# (m, 1), (1, m) and (m, m + 1) are coprime for every m.
coprime_pairs = st.builds(lambda m, i: IsotropyPair(*((m, 1), (1, m), (m, m + 1))[i]),
                          entries, st.integers(0, 2))
cycles = st.lists(coprime_pairs, min_size=2, max_size=4).map(FixedCycle.from_pairs) \
    .filter(lambda c: all(c.dets))
seifert = st.builds(lambda alpha, g: ExceptionalOrbit(alpha, 1, g % alpha),
                    st.one_of(st.integers(2, 5), wide_ints(2)), entries)


@st.composite
def legal_systems(draw):
    """Legal systems whose integers reach the 4,300-digit limit; adjacent
    determinants of wide pairs can pass it."""
    circles = tuple(draw(st.lists(coprime_pairs, max_size=2)))
    fixed = tuple(draw(st.lists(cycles, max_size=2)))
    closed = not circles and not fixed
    obstruction = draw(st.tuples(entries, entries)) if closed else (0, 0)
    return WeightSystem(obstruction, draw(st.sampled_from((1, -1))),
                        draw(st.one_of(st.integers(0, 3), wide_ints())),
                        circles, fixed, tuple(draw(st.lists(seifert, max_size=2))))


class TestCompactIsJsonDumps:
    """``serialize_compact`` writes each line directly; it must equal the
    ``json.dumps`` form of the document byte for byte."""

    def test_acceptance_census_slice(self):
        bounds = EnumerationBounds(max_genus=0, max_cycles=2, max_cycle_length=4,
                                   max_weight_entry=3)
        for w in itertools.islice(enumerate_legal(bounds), 20_000):
            assert serialize_compact(w) == dumped(w)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(legal_systems())
    def test_drawn_legal_systems(self, w):
        assert validate(w).is_legal
        try:
            expected = dumped(w)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                serialize_compact(w)
            assert str(raised.value) == str(err)
            return
        assert serialize_compact(w) == expected
        assert parse(serialize_compact(w)) == w

    def test_bool_entries_are_written_as_numbers(self):
        w = WeightSystem(circle_boundaries=(IsotropyPair(True, 0),),
                         exceptional=(ExceptionalOrbit(2, True, 0),))
        assert validate(w).is_legal
        assert serialize_compact(w) == dumped(w)
        for write in (serialize, serialize_compact):
            assert parse(write(w)) == w

    def test_past_the_digit_limit_raises_value_error(self):
        limit = sys.get_int_max_str_digits()
        edge = 10 ** limit - 1  # the widest integer that converts
        assert parse(serialize_compact(WeightSystem(obstruction=(edge, 1)))).obstruction \
            == (edge, 1)
        wide = 10 ** limit
        cycle = FixedCycle((IsotropyPair(1, 0), IsotropyPair(0, 1)), (wide, -wide))
        for w in (WeightSystem(obstruction=(wide, 1)), WeightSystem(genus=wide),
                  WeightSystem(fixed_cycles=(cycle,)),
                  WeightSystem(exceptional=(ExceptionalOrbit(wide, 1, 0),))):
            for write in (serialize_compact, dumped, serialize):
                with pytest.raises(ValueError, match="integer string conversion"):
                    write(w)
        # A cycle whose text could not be written is written again next time.
        with pytest.raises(ValueError):
            serialize_compact(WeightSystem(fixed_cycles=(cycle,)))

    def test_bool_orientation_and_genus_serialize_as_numbers(self):
        w = WeightSystem(orientation=True, genus=True,
                         fixed_cycles=(FixedCycle.from_pairs([(1, 0), (0, 1)]),))
        assert validate(w).is_legal
        assert (type(w.orientation), type(w.genus)) == (int, int)
        assert parse(serialize(w)) == w
        assert parse(serialize_compact(w)) == w
        assert serialize_compact(w) == dumped(w)


def rejected_with(doc, message: str) -> None:
    """``from_document(doc)`` raises DocumentError with exactly ``message``."""
    with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
        from_document(doc)


class TestSchemaChecking:
    def good(self):
        return to_document(suspension_of_lens((1, 0), (2, 5)))

    def test_not_json(self):
        with pytest.raises(DocumentError):
            parse("{not json")

    def test_non_object(self):
        with pytest.raises(DocumentError):
            parse("[1, 2]")

    def test_beyond_the_decoder_limits(self):
        with pytest.raises(DocumentError, match="wider than"):
            parse("[" + "1" * (sys.get_int_max_str_digits() + 1) + "]")
        with pytest.raises(DocumentError, match="nested too deeply"):
            parse("[" * 100_000)

    def test_missing_key(self):
        doc = self.good()
        del doc["genus"]
        rejected_with(doc, "missing key 'genus'")

    def test_unknown_key(self):
        doc = self.good()
        doc["extra"] = 1
        rejected_with(doc, "unknown keys ['extra']")

    @pytest.mark.parametrize("key", ["circle_boundaries", "fixed_cycles", "exceptional"])
    def test_component_lists_must_be_lists(self, key):
        for value in ({}, "[]", None, 0):
            doc = self.good()
            doc[key] = value
            rejected_with(doc, f"{key} must be a list")

    def test_bad_schema_version(self):
        doc = self.good()
        doc["schema_version"] = "2"
        with pytest.raises(DocumentError):
            from_document(doc)
        doc["schema_version"] = 1
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_floats_and_bools_rejected(self):
        doc = self.good()
        doc["genus"] = 0.0
        with pytest.raises(DocumentError):
            from_document(doc)
        doc = self.good()
        doc["orientation"] = True
        with pytest.raises(DocumentError):
            from_document(doc)
        doc = self.good()
        doc["fixed_cycles"][0][0]["f"] = 5.0
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_malformed_pairs(self):
        doc = self.good()
        doc["circle_boundaries"] = [[1, 2, 3]]
        with pytest.raises(DocumentError):
            from_document(doc)
        doc = self.good()
        doc["obstruction"] = "00"
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_empty_cycle_rejected(self):
        doc = self.good()
        doc["fixed_cycles"].append([])
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_cycle_entry_shape(self):
        for entry in ({"pair": [1, 0]}, {"pair": [1, 0], "f": 5, "x": 1}, [[1, 0], 5]):
            doc = self.good()
            doc["fixed_cycles"][0][0] = entry
            rejected_with(doc, "fixed_cycles[0][0] must be an object with keys pair, f")

    def test_exceptional_shape(self):
        for entry in ({"alpha": 2, "gamma1": 1}, [2, 1, 0]):
            doc = self.good()
            doc["exceptional"] = [entry]
            rejected_with(doc, "exceptional[0] must be an object with keys alpha, gamma1, gamma2")

    def test_parse_accepts_any_valid_json_layout(self):
        w = suspension_of_lens((1, 0), (2, 5))
        reflowed = json.dumps(to_document(w), indent=7)
        assert parse(reflowed) == w

    def test_illegal_but_well_formed_documents_parse(self):
        # Legality is the validator's business; the parser only checks shape.
        doc = {
            "schema_version": "1",
            "obstruction": [0, 0],
            "orientation": 7,
            "genus": -2,
            "circle_boundaries": [[2, 4]],
            "fixed_cycles": [[{"pair": [1, 0], "f": 3}]],
            "exceptional": [{"alpha": 1, "gamma1": 0, "gamma2": 0}],
        }
        system = from_document(doc)
        from t2orbits import validate
        assert not validate(system).is_legal
