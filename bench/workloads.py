"""The four workloads: their seeded inputs, their operations and their checks.

Each workload runs in rounds.  A round performs the same operations on the
same inputs in the same order (its random choices are re-seeded at the start
of the round), so rounds can be repeated until the run has lasted long
enough without changing what one round measures.  ``run_round`` times every
operation through the clock, hands the program's outputs to ``check``, and
``check`` answers from :mod:`oracle` alone.  The self-test feeds ``check``
wrong answers to show that it rejects them.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import oracle
from oracle import Sys

# Shaped like the acceptance census (criteria 5 and 6), which is 2.95M systems.
CENSUS_BOUNDS = dict(max_genus=0, max_cycles=2, max_cycle_length=4, max_weight_entry=3)
CENSUS_START, CENSUS_SLICE = 100_000, 5_000

WEAK_PAIRS = 48
# The systems A and the invariant a negative pair breaks are drawn from this
# fixed seed, the same for every run: the cost of a WEAK compare depends on
# how many distinct pairs A has, and with seeded shapes the median op moved
# by a quarter from seed to seed.  The run's seed draws the WEAK moves.
WEAK_SHAPE_SEED = 0
# (genus, circles, cycle lengths); a closed shape gets an obstruction instead.
WEAK_SHAPES = ((0, 1, (3,)), (1, 0, (2, 4)), (0, 2, (4,)), (2, 0, ()),
               (0, 0, (3, 3)), (1, 1, (2,)), (0, 0, (4,)), (0, 2, ()))
WEAK_BREAKS = ("genus", "circles", "cycles", "abs_f", "obstruction_gcd")

LONG_LENGTHS = (8, 9, 10, 11, 12)
LONG_PAIRS_PER_LENGTH = 4

ENUMERATE_BOUNDS = dict(max_genus=1, max_cycles=2, max_cycle_length=3,
                        max_weight_entry=2, max_exceptional=1, max_alpha=2,
                        max_circle_boundaries=0, max_obstruction=1)

GENERATORS = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)),
              ((1, 0), (1, 1)), ((1, 0), (0, -1)))

WITNESS = re.compile(r"witness: basis change \[\[(-?\d+),(-?\d+)\],\[(-?\d+),(-?\d+)\]\], "
                     r"orientation reversed: (yes|no)")


class Tally:
    """Operations attempted and failed, and what went wrong.

    ``failures`` holds the errors of ops that raised; ``problems`` holds
    wrong answers of ops that returned, which make the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []

    def fail(self, err: Exception) -> None:
        self.failed += 1
        self.failures.append(f"{type(err).__name__}: {err}")

    def note(self, problem: str | None) -> None:
        if problem is not None:
            self.problems.append(problem)


def sys_of(system) -> Sys:
    """Read a t2orbits weight system into the oracle's plain tuples."""
    return Sys(tuple(system.obstruction), system.orientation, system.genus,
               tuple((p.m, p.n) for p in system.circle_boundaries),
               tuple(tuple((p.m, p.n, f) for p, f in zip(c.pairs, c.dets))
                     for c in system.fixed_cycles),
               tuple((e.alpha, e.gamma1, e.gamma2) for e in system.exceptional))


def build_cycle(t, cycle: tuple):
    return t.core.FixedCycle(tuple(t.core.IsotropyPair(m, n) for m, n, _ in cycle),
                             tuple(f for _, _, f in cycle))


def build(t, s: Sys):
    """A fresh t2orbits weight system for the oracle's tuples."""
    core = t.core
    return core.WeightSystem(
        obstruction=s.obstruction, orientation=s.orientation, genus=s.genus,
        circle_boundaries=tuple(core.IsotropyPair(m, n) for m, n in s.circles),
        fixed_cycles=tuple(build_cycle(t, c) for c in s.cycles),
        exceptional=tuple(core.ExceptionalOrbit(*e) for e in s.exceptional))


def singular(s: Sys) -> bool:
    return any(abs(f) > 1 for c in s.cycles for _, _, f in c)


# ---------------------------------------------------------------- census

class Census:
    """One op: the three checks of one census system.

    The systems are a fixed slice of a fresh ``enumerate_legal`` stream, the
    same for every seed, because the share of cheap and dear systems moves
    from one part of the census to another.  The seed draws the
    re-presentations, which are built before the op's timed span.  The op
    times the STRICT comparison with the re-presentation, the
    decompose/reassemble round trip when the system has a singular point,
    and ``space_of_directions`` plus ``gluing_matrix`` at every fixed point.
    """

    name = "census"

    def __init__(self, t, seed: int, workdir=None, size: int = CENSUS_SLICE):
        self.t = t
        self.seed = seed
        self.size = size

    def stream(self, start: int = CENSUS_START, size: int | None = None):
        c = self.t.constructors
        systems = c.enumerate_legal(c.EnumerationBounds(**CENSUS_BOUNDS))
        return itertools.islice(systems, start, start + (size or self.size))

    def warm_up(self) -> None:
        next(self.stream(0, 1))  # builds the census cycle pool

    def cycles(self) -> list:
        return [c for system in self.stream() for c in sys_of(system).cycles]

    def op(self, system, presented, has_singular: bool) -> tuple:
        t = self.t
        same = t.equivalence.is_isomorphic(system, presented)
        parts = back = round_trip = None
        if has_singular:
            parts = t.surgery.decompose(system)
            back = t.surgery.reassemble(parts)
            round_trip = t.equivalence.is_isomorphic(back, system)
        local = [(t.localmodels.space_of_directions(left, right),
                  t.localmodels.gluing_matrix(left, right))
                 for cycle in system.fixed_cycles
                 for _, left, right, _ in cycle.fixed_points()]
        return same, parts, back, round_trip, local

    def run_round(self, clock, tally: Tally) -> None:
        rng = random.Random(self.seed)
        for system in self.stream():
            own = sys_of(system)
            presented = build(self.t, oracle.represent(own, rng))
            has_singular = singular(own)
            tally.attempted += 1
            t0 = clock.begin()
            try:
                outcome = self.op(system, presented, has_singular)
            except Exception as err:  # a failed op is counted, not fatal
                clock.end()
                tally.fail(err)
                continue
            clock.record(clock.end() - t0)
            tally.note(self.check(own, outcome))

    @staticmethod
    def check(own: Sys, outcome: tuple) -> str | None:
        same, parts, back, round_trip, local = outcome
        if same is not True:
            return f"census: re-presentation of {own} not STRICT-isomorphic"
        if singular(own):
            if round_trip is not True or oracle.strict_key(sys_of(back)) != oracle.strict_key(own):
                return f"census: decompose/reassemble round trip changed {own}"
            manifold = sys_of(parts.manifold_part)
            if any(abs(f) != 1 for c in manifold.cycles for _, _, f in c):
                return f"census: manifold part of {own} has |f| != 1"
            for piece in map(sys_of, parts.simple_pieces):
                if (piece.genus, piece.obstruction, piece.circles, len(piece.cycles),
                        piece.exceptional) != (0, (0, 0), (), 1, ()):
                    return f"census: piece {piece} of {own} is not a disk with one cycle"
        points = [(c[w][:2], c[(w + 1) % len(c)][:2]) for c in own.cycles for w in range(len(c))]
        if len(points) != len(local):
            return f"census: {len(local)} local models for {len(points)} fixed points"
        for ((m, n), (m2, n2)), (lens, glue) in zip(points, local):
            f = oracle.det((m, n), (m2, n2))
            r = abs(f)
            if lens.r != r or (m * lens.s - m2) % r or (n * lens.s - n2) % r:
                return f"census: L({lens.r},{lens.s}) wrong at ({m},{n})|({m2},{n2})"
            if glue.r != f or glue.u * glue.s - glue.v * glue.r != 1:
                return f"census: gluing {glue} wrong at ({m},{n})|({m2},{n2})"
        return None


# ---------------------------------------------------------------- random systems

def random_pair(rng, bound: int) -> tuple:
    while True:
        p = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if math.gcd(*p) == 1:
            return p


def random_cycle(rng, r: int, bound: int) -> tuple:
    """A legal cycle of length r with pair entries at most ``bound``."""
    while True:
        pairs = [random_pair(rng, bound)]
        while len(pairs) < r:
            p = random_pair(rng, bound)
            if oracle.det(pairs[-1], p) != 0:
                pairs.append(p)
        if oracle.det(pairs[-1], pairs[0]) != 0:
            return oracle.cycle_from_pairs(pairs)


def random_unimodular(rng) -> tuple:
    a = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 4)):
        a = oracle.mat_mul(rng.choice(GENERATORS), a)
    return a


def random_system(rng, shape: tuple) -> Sys:
    genus, circles, lengths = shape
    obstruction = (0, 0)
    if not circles and not lengths:
        obstruction = (rng.randint(-6, 6), rng.randint(-6, 6))
    return Sys(obstruction, rng.choice((1, -1)), genus,
               tuple(random_pair(rng, 4) for _ in range(circles)),
               tuple(random_cycle(rng, r, 4) for r in lengths))


def weak_move(s: Sys, rng) -> Sys:
    """An optional orientation reversal, a unimodular change, a re-presentation."""
    if rng.random() < 0.5:
        s = oracle.reverse(s)
    return oracle.represent(oracle.basis_change(s, random_unimodular(rng)), rng)


def break_invariant(s: Sys, kind: str, rng) -> Sys:
    """Change one WEAK invariant of ``s``; the result stays legal."""
    if kind == "genus":
        return s._replace(genus=s.genus + 1)
    if kind == "circles":
        return s._replace(obstruction=(0, 0), circles=s.circles + (random_pair(rng, 4),))
    if kind == "cycles":
        return s._replace(obstruction=(0, 0), cycles=s.cycles + (random_cycle(rng, 3, 4),))
    if kind == "abs_f":
        first = s.cycles[0]
        while True:
            other = random_cycle(rng, len(first), 4)
            if sorted(abs(f) for *_, f in other) != sorted(abs(f) for *_, f in first):
                return s._replace(cycles=(other,) + s.cycles[1:])
    b1, b2 = s.obstruction
    doubled = (2 * b1, 2 * b2) if (b1, b2) != (0, 0) else (3, 0)
    return s._replace(obstruction=oracle.act(random_unimodular(rng), doubled))


def _breaks_for(s: Sys) -> tuple:
    closed = not s.circles and not s.cycles
    return tuple(k for k in WEAK_BREAKS
                 if (k != "abs_f" or s.cycles) and (k != "obstruction_gcd" or closed))


class Case(NamedTuple):
    """Two documents to compare, the systems they hold, and the right verdict."""

    first: str
    second: str
    a: Sys
    b: Sys
    positive: bool


def _case(workdir, stem: str, a: Sys, b: Sys, positive: bool) -> Case:
    paths = []
    for side, system in (("a", a), ("b", b)):
        path = workdir / f"{stem}_{side}.json"
        path.write_text(json.dumps(oracle.to_doc(system), indent=2) + "\n", encoding="utf-8")
        paths.append(str(path))
    return Case(*paths, a, b, positive)


class _CliCompare:
    """Ops that each run ``t2orbits compare`` in-process on two documents."""

    mode = ()

    def warm_up(self) -> None:
        pass

    def run_round(self, clock, tally: Tally) -> None:
        cli = self.t.cli
        for case in self.cases:
            out = io.StringIO()
            tally.attempted += 1
            with redirect_stdout(out):
                t0 = clock.begin()
                try:
                    code = cli.main(["compare", *self.mode, case.first, case.second])
                except Exception as err:  # a failed op is counted, not fatal
                    clock.end()
                    tally.fail(err)
                    continue
                clock.record(clock.end() - t0)
            tally.note(self.check(case, code, out.getvalue()))

    def cycles(self) -> list:
        return [c for case in self.cases for s in (case.a, case.b) for c in s.cycles]


class Weak(_CliCompare):
    """One op: ``t2orbits compare --mode weak A B`` on documents written at set-up.

    Even cases are WEAK-isomorphic by construction; odd cases differ in an
    invariant no WEAK move alters.  No system has exceptional orbits.  The
    systems are the same for every seed (WEAK_SHAPE_SEED); the seed draws the
    unimodular change, orientation reversal and re-presentation of each B.
    """

    name = "weak"
    mode = ("--mode", "weak")

    def __init__(self, t, seed: int, workdir, size: int = WEAK_PAIRS):
        self.t = t
        shapes = random.Random(WEAK_SHAPE_SEED)
        rng = random.Random(seed)
        self.cases = []
        for i in range(size):
            shape, repeat = i // 2 % len(WEAK_SHAPES), i // 2 // len(WEAK_SHAPES)
            a = b = random_system(shapes, WEAK_SHAPES[shape])
            if i % 2:
                kinds = _breaks_for(a)
                b = break_invariant(a, kinds[(shape + repeat) % len(kinds)], shapes)
            b = weak_move(b, rng)
            if not (oracle.legal(a) and oracle.legal(b)):
                raise AssertionError(f"weak: generated an illegal system {a} / {b}")
            if (i % 2 == 0) != (oracle.weak_invariants(a) == oracle.weak_invariants(b)):
                raise AssertionError(f"weak: case {i} invariants do not match its kind")
            self.cases.append(_case(workdir, f"weak_{i:03d}", a, b, i % 2 == 0))

    @staticmethod
    def check(case: Case, code: int, text: str) -> str | None:
        a, b = case.a, case.b
        if not case.positive:
            return None if (code, text) == (3, "not isomorphic\n") else \
                f"weak: non-isomorphic pair {a} / {b} gave exit {code}"
        lines = text.splitlines()
        found = WITNESS.fullmatch(lines[1]) if code == 0 and len(lines) == 2 else None
        if found is None or lines[0] != "isomorphic":
            return f"weak: isomorphic pair {a} / {b} gave exit {code}: {text!r}"
        p, q, r, s, flag = found.groups()
        matrix = ((int(p), int(q)), (int(r), int(s)))
        if oracle.mat_det(matrix) not in (1, -1):
            return f"weak: witness {matrix} is not unimodular"
        moved = oracle.reverse(a) if flag == "yes" else a
        if oracle.strict_key(oracle.basis_change(moved, matrix)) != oracle.strict_key(b):
            return f"weak: witness {matrix}, reversed {flag}, does not carry {a} to {b}"
        return None


class LongCycles(_CliCompare):
    """One op: STRICT ``t2orbits compare A B`` of two single-cycle systems.

    Positive cases are a rotation plus sign flips of the same cycle; negative
    cases have another multiset of |f|.  Cycle lengths run over LONG_LENGTHS.
    """

    name = "long-cycles"

    def __init__(self, t, seed: int, workdir, lengths=LONG_LENGTHS,
                 per_length: int = LONG_PAIRS_PER_LENGTH):
        self.t = t
        rng = random.Random(seed)
        self.cases = []
        for r in lengths:
            for k in range(per_length):
                first = random_cycle(rng, r, 3)
                if k % 2 == 0:
                    second = oracle.represent_cycle(first, rng)
                else:
                    second = random_cycle(rng, r, 3)
                    while sorted(abs(f) for *_, f in second) == sorted(abs(f) for *_, f in first):
                        second = random_cycle(rng, r, 3)
                self.cases.append(_case(workdir, f"long_{r:02d}_{k}", Sys(cycles=(first,)),
                                        Sys(cycles=(second,)), k % 2 == 0))

    @staticmethod
    def check(case: Case, code: int, text: str) -> str | None:
        expected = (0, "isomorphic\n") if case.positive else (3, "not isomorphic\n")
        if (code, text) != expected:
            return f"long-cycles: r = {len(case.a.cycles[0])} case gave exit {code}, {text!r}"
        return None


# ---------------------------------------------------------------- enumerate

class _Sink:
    """Standard output for the enumerate command: keeps each write and its time."""

    def __init__(self, now):
        self.now = now
        self.times = []
        self.parts = []

    def write(self, text: str) -> int:
        self.times.append(self.now())
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class Enumerate:
    """One op: one document line of in-process ``t2orbits enumerate``.

    An op is timed from the previous write to the output sink (or from the
    command's start) to its own write.  The bounds are fixed, so this
    workload's inputs do not depend on the seed.
    """

    name = "enumerate"

    def __init__(self, t, seed: int, workdir=None, bounds=None):
        self.t = t
        self.bounds = dict(bounds or ENUMERATE_BOUNDS)
        self.argv = ["enumerate"]
        for key, value in self.bounds.items():
            self.argv += ["--" + key.replace("_", "-"), str(value)]
        self.digest = None  # of the first round's output, once checked
        self.first_lines = []  # its first lines, whose cycles the traced run times

    def warm_up(self) -> None:
        pass

    def cycles(self) -> list:
        return [c for line in self.first_lines for c in oracle.from_doc(json.loads(line)).cycles]

    def run_round(self, clock, tally: Tally) -> None:
        sink = _Sink(clock.now)
        code = None
        with redirect_stdout(sink), redirect_stderr(io.StringIO()):
            t0 = clock.begin()
            try:
                code = self.t.cli.main(self.argv)
            except Exception as err:  # a failed op is counted, not fatal
                tally.attempted += 1
                tally.fail(err)
            clock.end()
        previous = t0
        for stamp in sink.times:
            clock.record(stamp - previous)
            previous = stamp
        tally.attempted += len(sink.parts)
        if code is not None:
            tally.note(self.check_round(code, sink.parts))

    def check_round(self, code: int, parts: list) -> str | None:
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part.encode())
        digest = digest.hexdigest()
        if self.digest is not None:
            return None if digest == self.digest and code == 0 else \
                "enumerate: output differs from the checked first round"
        problem = self.check(self.bounds, code, parts)
        if problem is None:
            self.digest = digest
            self.first_lines = [p[:-1] for p in parts[:2000]]
        return problem

    @staticmethod
    def check(bounds: dict, code: int, parts: list) -> str | None:
        if code != 0:
            return f"enumerate: exit {code}"
        expected = oracle.census_count(**bounds)
        if len(parts) != expected:
            return f"enumerate: {len(parts)} lines, brute force counts {expected}"
        for k, part in enumerate(parts):
            line = part[:-1]
            if not part.endswith("\n") or "\n" in line:
                return f"enumerate: write {k} is not one line"
            try:
                doc = json.loads(line)
            except ValueError:
                return f"enumerate: line {k} is not JSON"
            if json.dumps(doc, separators=(",", ":")) != line:
                return f"enumerate: line {k} is not compact JSON"
            s = oracle.from_doc(doc)
            if s is None or not oracle.legal(s):
                return f"enumerate: line {k} is not a legal system: {line}"
        return None


WORKLOADS = {w.name: w for w in (Census, Weak, LongCycles, Enumerate)}
