"""Command-line front end: exit codes, diagnostics and output formats."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import t2orbits
from t2orbits import (
    DocumentError,
    FixedCycle,
    IsotropyPair,
    LensClass,
    WeightSystem,
    equivalence,
    is_isomorphic,
    lens_equivalent,
    parse,
    reverse_orientation,
    serialize,
    suspension_of_lens,
    validate,
    weighted_projective,
)
from t2orbits import cli
from t2orbits.cli import main
from t2orbits.documents import to_document
from tests.conftest import random_legal_system


def write(tmp_path, name, system):
    path = tmp_path / name
    path.write_text(serialize(system), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_legal_file(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", suspension_of_lens((1, 0), (2, 5)))
        code, out, err = run(capsys, "validate", path)
        assert code == 0
        assert out.strip() == "legal"

    def test_excluded_disk_names_the_r2_rule(self, tmp_path, capsys):
        cycle = FixedCycle((IsotropyPair(1, 0), IsotropyPair(2, 5)), (5, 1))
        path = write(tmp_path, "bad.json", WeightSystem(fixed_cycles=(cycle,)))
        code, out, err = run(capsys, "validate", path)
        assert code == 2
        assert "r2-antisymmetry" in err
        assert "f1 = -f2" in err

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\"schema_version\": \"1\"", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "parse error" in err

    def test_stdin_dash(self, capsys, monkeypatch):
        text = serialize(suspension_of_lens((1, 0), (2, 5)))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "validate", "-")
        assert code == 0

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "validate", "/nonexistent/x.json")
        assert code == 1

    def test_unparsable_json_is_one_diagnostic_line(self, tmp_path):
        # Past the JSON decoder's limits (the int/str conversion limit, the
        # recursion limit) a document is a parse error, not a traceback.
        wide = tmp_path / "wide.json"
        wide.write_text('{"schema_version": "1", "obstruction": [' + "7" * 5000
                        + ', 0], "orientation": 1, "genus": 0, "circle_boundaries": [], '
                        '"fixed_cycles": [], "exceptional": []}\n', encoding="utf-8")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        src = str(Path(t2orbits.__file__).parent.parent)
        for path in (wide, deep):
            done = subprocess.run(
                [sys.executable, "-m", "t2orbits.cli", "validate", str(path)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
            assert done.returncode == 1
            assert done.stdout == ""
            lines = done.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"parse error in {path}: ")
            assert "Traceback" not in done.stderr

    def test_wide_determinant_is_one_diagnostic_per_entry(self, tmp_path, capsys):
        # The pairs parse; their 6,000-digit determinant is abbreviated in
        # the det-mismatch lines instead of raising.
        n = int("7" * 3000)
        cycle = FixedCycle((IsotropyPair(1, n), IsotropyPair(n, 1)), (1, -1))
        path = write(tmp_path, "wide.json", WeightSystem(fixed_cycles=(cycle,)))
        good = write(tmp_path, "good.json", suspension_of_lens((1, 0), (2, 5)))
        expected = ["det-mismatch at cycle[0].f[0]: stored determinant 1, "
                    "adjacent pairs give -<6000-digit integer>",
                    "det-mismatch at cycle[0].f[1]: stored determinant -1, "
                    "adjacent pairs give <6000-digit integer>"]
        code, out, err = run(capsys, "validate", path)
        assert (code, out, err.splitlines()) == (2, "", expected)
        for argv in (("compare", path, good), ("compare", good, path, "--mode", "weak")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.splitlines() == [f"{path}: {line}" for line in expected]


class TestCompare:
    def test_permuted_copy_is_isomorphic(self, tmp_path, capsys):
        a = WeightSystem(circle_boundaries=(IsotropyPair(1, 0), IsotropyPair(0, 1)),
                         genus=1)
        b = WeightSystem(circle_boundaries=(IsotropyPair(0, 1), IsotropyPair(-1, 0)),
                         genus=1)
        pa = write(tmp_path, "a.json", a)
        pb = write(tmp_path, "b.json", b)
        code, out, _ = run(capsys, "compare", pa, pb)
        assert code == 0
        assert out.strip() == "isomorphic"

    def test_different_suspensions_strict(self, tmp_path, capsys):
        pa = write(tmp_path, "a.json", suspension_of_lens((1, 0), (2, 5)))
        pb = write(tmp_path, "b.json", suspension_of_lens((1, 0), (3, 5)))
        code, out, _ = run(capsys, "compare", pa, pb, "--mode", "strict")
        assert code == 3
        assert out.strip() == "not isomorphic"

    def test_reversed_orientation_weak_vs_strict(self, tmp_path, capsys):
        w = weighted_projective(1, 2, 3)
        pa = write(tmp_path, "a.json", w)
        pb = write(tmp_path, "b.json", reverse_orientation(w))
        code, out, _ = run(capsys, "compare", pa, pb, "--mode", "strict")
        assert code == 3
        code, out, _ = run(capsys, "compare", pa, pb, "--mode", "weak")
        assert code == 0
        assert "isomorphic" in out
        assert "witness" in out and "orientation reversed: yes" in out

    def test_weak_runs_the_argmin_once_per_operand(self, tmp_path, capsys, monkeypatch):
        calls = []
        argmin = equivalence._weak_argmin

        def counted(system):
            calls.append(system)
            return argmin(system)

        monkeypatch.setattr(equivalence, "_weak_argmin", counted)
        w = weighted_projective(1, 2, 3)
        pa = write(tmp_path, "a.json", w)
        pb = write(tmp_path, "b.json", reverse_orientation(w))
        code, out, _ = run(capsys, "compare", pa, pb, "--mode", "weak")
        assert code == 0 and "witness" in out
        assert len(calls) == 2

    def test_wide_witness_is_abbreviated(self, tmp_path):
        # Every entry parses (2,201 digits), but one witness entry is near
        # N*M, past Python's int/str conversion limit: it prints as
        # <k-digit integer> instead of raising out of main.
        n = 10 ** 2200 + 1
        m = 10 ** 2200 + 3
        pa = write(tmp_path, "a.json", WeightSystem(
            circle_boundaries=(IsotropyPair(n, 1), IsotropyPair(n - 1, 1))))
        pb = write(tmp_path, "b.json", WeightSystem(
            circle_boundaries=(IsotropyPair(1, m), IsotropyPair(0, 1))))
        src = str(Path(t2orbits.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "t2orbits.cli", "compare", "--mode", "weak", pa, pb],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stderr) == (0, "")
        verdict, witness = done.stdout.splitlines()
        entry = r"-?(\d+|<\d+-digit integer>)"
        assert verdict == "isomorphic"
        assert re.fullmatch(rf"witness: basis change \[\[{entry},{entry}\],\[{entry},{entry}\]\], "
                            r"orientation reversed: (yes|no)", witness)
        assert "<4401-digit integer>" in witness

    def test_illegal_operand(self, tmp_path, capsys):
        pa = write(tmp_path, "a.json", suspension_of_lens((1, 0), (2, 5)))
        bad = WeightSystem(genus=-1)
        pb = write(tmp_path, "b.json", bad)
        code, out, err = run(capsys, "compare", pa, pb)
        assert code == 2
        assert "genus" in err


class TestLocalModels:
    def test_suspension_lists_two_singular_points(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", suspension_of_lens((1, 0), (2, 5)))
        code, out, _ = run(capsys, "localmodels", path)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all("SF" in line for line in lines)
        # both local models are the lens space L(5, 2) up to homeomorphism
        reference = LensClass(5, 2)
        for line in lines:
            r, s = line.rsplit("L(", 1)[1].rstrip(")").split(",")
            assert lens_equivalent(LensClass(int(r), int(s)), reference)

    def test_manifold_system_lists_regular_points(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", suspension_of_lens((1, 0), (0, 1)))
        code, out, _ = run(capsys, "localmodels", path)
        assert code == 0
        assert all("RF" in line and "L(1,0)" in line
                   for line in out.strip().splitlines())

    def test_weighted_projective_unit_weights(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", weighted_projective(1, 1, 1))
        code, out, _ = run(capsys, "localmodels", path)
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all("RF" in line for line in lines)


class TestDecompose:
    def test_writes_pieces_and_manifest(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", suspension_of_lens((1, 0), (2, 5)))
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, "decompose", path, "--out", str(outdir))
        assert code == 0
        manifold = parse((outdir / "manifold.json").read_text())
        piece = parse((outdir / "piece_000.json").read_text())
        assert validate(manifold).is_legal and validate(piece).is_legal
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["pieces"] == ["piece_000.json"]
        glue = manifest["gluings"][0]
        assert glue["manifold_circle"] == 0
        pair = IsotropyPair(*glue["isotropy"])
        assert pair.same_subgroup(piece.fixed_cycles[0].pairs[glue["piece_arc"]])

    def test_round_trips_through_files(self, tmp_path, capsys):
        from t2orbits import CircleSelection, Decomposition, reassemble
        w = WeightSystem(genus=1, fixed_cycles=(
            suspension_of_lens((1, 0), (2, 5)).fixed_cycles[0],
            FixedCycle.from_pairs([(1, 0), (0, 1)]),
        ))
        path = write(tmp_path, "a.json", w)
        outdir = tmp_path / "out"
        code, _, _ = run(capsys, "decompose", path, "--out", str(outdir))
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        manifold = parse((outdir / "manifold.json").read_text())
        pieces = [parse((outdir / name).read_text()) for name in manifest["pieces"]]
        gluings = tuple(
            (CircleSelection.boundary_circle(g["manifold_circle"]),
             CircleSelection.cycle_arc(g["piece_cycle"], g["piece_arc"]))
            for g in manifest["gluings"])
        rebuilt = reassemble(Decomposition(manifold, tuple(pieces), gluings))
        assert is_isomorphic(rebuilt, w)


class TestGenerate:
    def test_suspension_document(self, capsys):
        code, out, _ = run(capsys, "generate", "suspension", "1,0", "2,5")
        assert code == 0
        system = parse(out)
        assert system == suspension_of_lens((1, 0), (2, 5))

    def test_weighted_projective_document(self, capsys):
        code, out, _ = run(capsys, "generate", "weighted-projective", "1", "2", "3")
        assert code == 0
        assert parse(out) == weighted_projective(1, 2, 3)

    def test_orientation_flag(self, capsys):
        code, out, _ = run(capsys, "generate", "suspension", "1,0", "2,5",
                           "--orientation", "-1")
        assert code == 0
        assert parse(out).orientation == -1

    def test_bad_parameters_exit_nonzero(self, capsys):
        code, _, err = run(capsys, "generate", "weighted-projective", "2", "4", "5")
        assert code == 2
        assert "coprime" in err
        code, _, err = run(capsys, "generate", "suspension", "1,0", "-1,0")
        assert code == 2
        code, _, err = run(capsys, "generate", "suspension", "10", "2,5")
        assert code == 2

    def test_too_wide_determinant_is_one_diagnostic_line(self):
        # Both pairs parse (3,000 digits), but r = det = 1 - N^2 has about
        # 6,000 digits, past Python's int/str conversion limit.
        n = "1" + "0" * 2999
        src = str(Path(t2orbits.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "t2orbits.cli", "generate", "suspension", f"1,{n}", f"{n},1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (2, "")
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ")

    def test_generated_document_pipes_into_validate(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "generate", "suspension", "1,0", "2,5")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, "validate", "-")
        assert code == 0


class TestEnumerate:
    def test_streams_census_with_count_on_stderr(self, capsys):
        code, out, err = run(capsys, "enumerate", "--max-cycles", "1",
                             "--max-cycle-length", "2", "--max-weight-entry", "2",
                             "--max-obstruction", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert f"{len(lines)} systems" in err
        for line in lines:
            assert validate(parse(line)).is_legal

    def test_bad_bounds(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-genus", "-2")
        assert code == 2


class TestEdgeCases:
    def test_decompose_manifold_only_manifest(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", suspension_of_lens((1, 0), (0, 1)))
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, "decompose", path, "--out", str(outdir))
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["pieces"] == []
        assert manifest["gluings"] == []
        assert validate(parse((outdir / "manifold.json").read_text())).is_legal

    def test_enumerate_is_deterministic(self, capsys):
        args = ("enumerate", "--max-cycles", "1", "--max-cycle-length", "3",
                "--max-weight-entry", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_compare_same_file_weak_witness_identity(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", weighted_projective(1, 2, 3))
        code, out, _ = run(capsys, "compare", path, path, "--mode", "weak")
        assert code == 0
        assert "witness" in out


class TestParserReuse:
    CALLS = (
        ("compare", "{a}"),
        ("validate", "{a}"),
        ("compare", "{a}", "{b}", "--mode", "weak"),
        ("compare", "{a}", "{b}"),
        ("generate", "suspension", "-1,0", "2,5"),
        ("--help",),
    )

    @staticmethod
    def outcome(capsys, argv, fresh):
        try:
            if fresh:
                args = cli.build_parser().parse_args(argv)
                try:
                    code = args.handler(args)
                except cli._Exit as stop:
                    code = stop.code
            else:
                code = main(argv)
        except SystemExit as stop:
            code = ("SystemExit", stop.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_answers_like_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        a = write(tmp_path, "a.json", weighted_projective(1, 2, 3))
        b = write(tmp_path, "b.json", reverse_orientation(weighted_projective(1, 2, 3)))
        calls = [[x.format(a=a, b=b) for x in argv] for argv in self.CALLS]
        built = []
        build = cli.build_parser

        def counted():
            built.append(None)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        reused = [self.outcome(capsys, argv, fresh=False) for argv in calls]
        assert len(built) == 1
        monkeypatch.setattr(cli, "build_parser", build)
        for argv, got in zip(calls, reused):
            assert got == self.outcome(capsys, argv, fresh=True), argv
        codes = [code for code, _, _ in reused]
        assert codes == [("SystemExit", 2), 0, 0, 3, 0, ("SystemExit", 0)]


def wide_ints(max_digits):
    """Integers of 1 to ``max_digits`` digits. 4,300 is the parse limit,
    past which a document is a parse error."""
    return st.builds(lambda k, sign, low: sign * (10 ** (k - 1) + low),
                     st.integers(1, max_digits), st.sampled_from((1, -1)), st.integers(0, 9))


doc_ints = st.one_of(st.integers(-4, 4), wide_ints(4300))
junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                 st.lists(st.integers(-2, 2), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _entry(pair, f):
    return {"pair": list(pair), "f": f}


drawn_docs = st.fixed_dictionaries({
    "schema_version": st.just("1"),
    "obstruction": st.lists(doc_ints, min_size=2, max_size=2),
    "orientation": st.one_of(st.sampled_from((1, -1)), doc_ints),
    "genus": st.one_of(st.integers(0, 2), doc_ints),
    "circle_boundaries": st.lists(st.lists(doc_ints, min_size=2, max_size=2), max_size=3),
    "fixed_cycles": st.lists(st.lists(st.builds(_entry, st.tuples(doc_ints, doc_ints), doc_ints),
                                      min_size=1, max_size=4), max_size=2),
    "exceptional": st.lists(st.fixed_dictionaries(
        {"alpha": doc_ints, "gamma1": doc_ints, "gamma2": doc_ints}), max_size=2),
})
# Legal systems, serialized as the library writes them.
legal_docs = st.integers(0, 2 ** 32).map(lambda seed: to_document(
    random_legal_system(random.Random(seed), bound=4)))


@st.composite
def broken(draw, docs):
    """A document with one key missing, one value of a wrong type, or an
    unknown key; or a JSON value that is no document at all."""
    doc = dict(draw(docs))
    how = draw(st.sampled_from(("drop", "retype", "extra", "not-a-document")))
    key = draw(st.sampled_from(sorted(doc)))
    if how == "drop":
        del doc[key]
    elif how == "retype":
        doc[key] = draw(junk)
    elif how == "extra":
        doc["extra"] = 0
    else:
        return draw(junk)
    return doc


document_texts = st.one_of(
    st.one_of(legal_docs, drawn_docs, broken(st.one_of(legal_docs, drawn_docs))).map(json.dumps),
    st.text(max_size=30),
)


# Constructor parameters as the command line takes them: coprime pairs
# (m, 1), (1, m), (m, m + 1) and pairwise coprime weights (k, k + 1, 2k + 1),
# or any integers, or malformed text.
param_ints = st.one_of(st.integers(-6, 6), wide_ints(3000))
coprime_pairs = st.builds(lambda m, i: ((m, 1), (1, m), (m, m + 1))[i],
                          param_ints, st.integers(0, 2))
param_pairs = st.one_of(
    st.one_of(coprime_pairs, st.tuples(param_ints, param_ints)).map(lambda p: f"{p[0]},{p[1]}"),
    st.sampled_from(("1,2,3", "a,b", "", "7")))
param_weights = st.one_of(
    param_ints.map(lambda k: (abs(k), abs(k) + 1, 2 * abs(k) + 1)),
    st.tuples(param_ints, param_ints, param_ints),
).map(lambda ws: [str(w) for w in ws])


class TestExitCodeContract:
    @staticmethod
    def call(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)  # an escaping exception fails the test

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(document_texts, document_texts)
    def test_every_document_gets_a_contract_exit_code(self, first, second):
        with tempfile.TemporaryDirectory() as tmp:
            pa = Path(tmp) / "a.json"
            pb = Path(tmp) / "b.json"
            pa.write_text(first, encoding="utf-8")
            pb.write_text(second, encoding="utf-8")
            for argv in (["validate", str(pa)], ["compare", str(pa), str(pb)],
                         ["compare", str(pa), str(pb), "--mode", "weak"],
                         ["compare", str(pa), str(pa), "--mode", "weak"]):
                assert self.call(argv) in (0, 1, 2, 3), argv
        for text in (first, second):
            try:
                system = parse(text)
            except DocumentError:
                continue
            assert parse(serialize(system)) == system

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(document_texts, param_pairs, param_pairs, param_weights)
    def test_every_other_command_gets_a_contract_exit_code(self, text, first, second, weights):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.json"
            path.write_text(text, encoding="utf-8")
            for argv in (["localmodels", str(path)],
                         ["decompose", str(path), "--out", str(Path(tmp) / "out")],
                         ["generate", "suspension", first, second],
                         ["generate", "weighted-projective", *weights]):
                assert self.call(argv) in (0, 1, 2, 3), argv
