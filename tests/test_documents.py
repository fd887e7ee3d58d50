"""Interchange format: lossless round trips and strict schema checking."""

import json
import sys

import pytest

from t2orbits import (
    DocumentError,
    ExceptionalOrbit,
    FixedCycle,
    IsotropyPair,
    WeightSystem,
    from_document,
    parse,
    serialize,
    serialize_compact,
    suspension_of_lens,
    to_document,
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
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_unknown_key(self):
        doc = self.good()
        doc["extra"] = 1
        with pytest.raises(DocumentError):
            from_document(doc)

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
        doc = self.good()
        doc["fixed_cycles"][0][0] = {"pair": [1, 0]}
        with pytest.raises(DocumentError):
            from_document(doc)
        doc = self.good()
        doc["fixed_cycles"][0][0] = {"pair": [1, 0], "f": 5, "x": 1}
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_exceptional_shape(self):
        doc = self.good()
        doc["exceptional"] = [{"alpha": 2, "gamma1": 1}]
        with pytest.raises(DocumentError):
            from_document(doc)

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
