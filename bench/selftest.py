"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs one round of every workload at a tiny size and expects every check to
pass.  Then it hands each checker wrong answers (a flipped verdict or exit
code, a wrong lens class, gluing or piece, a wrong witness, a dropped or
altered enumerate line) and expects each to be rejected.  Exits 1 when any
expectation fails.
"""

from __future__ import annotations

import io
import random
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import oracle
import run
import workloads

SEED = 1
failures = []


def expect(what: str, ok: bool) -> None:
    print(f"selftest {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def one_round(workload, what: str) -> None:
    clock, tally = run.Clock(), workloads.Tally()
    workload.warm_up()
    workload.run_round(clock, tally)
    expect(f"{what}: one round, {tally.attempted} ops, all checks pass",
           tally.attempted > 0 and tally.failed == 0 and not tally.problems
           and len(clock.latencies) == tally.attempted)


def compare(t, case: tuple, mode: tuple) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out):
        code = t.cli.main(["compare", *mode, case.first, case.second])
    return code, out.getvalue()


def census(t) -> None:
    w = workloads.Census(t, SEED, size=60)
    one_round(w, "census")
    rng = random.Random(SEED)
    for s in (workloads.sys_of(x) for x in w.stream(0, 3000)):
        moved = oracle.represent(s, rng)
        if oracle.strict_key(moved) != oracle.strict_key(s):
            expect(f"census: oracle re-presentation keeps the key of {s}", False)
            return
    system = next(x for x in w.stream(0, 3000)
                  if any(abs(f) > 2 for c in x.fixed_cycles for f in c.dets))
    own = workloads.sys_of(system)
    presented = workloads.build(t, oracle.represent(own, rng))
    same, parts, back, round_trip, local = w.op(system, presented, True)
    expect("census: right answer accepted",
           w.check(own, (same, parts, back, round_trip, local)) is None)
    expect("census: flipped STRICT verdict rejected",
           w.check(own, (False, parts, back, round_trip, local)) is not None)
    expect("census: flipped round-trip verdict rejected",
           w.check(own, (same, parts, back, False, local)) is not None)
    other = next(x for x in w.stream(0, 3000) if workloads.sys_of(x) != own)
    expect("census: wrong reassembled system rejected",
           w.check(own, (same, parts, other, True, local)) is not None)
    handle = t.core.WeightSystem(genus=1, fixed_cycles=system.fixed_cycles[:1])
    not_disk = SimpleNamespace(manifold_part=parts.manifold_part, simple_pieces=(handle,))
    expect("census: piece that is not a disk with one cycle rejected",
           w.check(own, (same, not_disk, back, True, local)) is not None)
    k = next(i for i, (lens, _) in enumerate(local) if lens.r > 2)
    lens, glue = local[k]
    bad_lens = SimpleNamespace(r=lens.r, s=(lens.s + 1) % lens.r)
    bad_glue = SimpleNamespace(u=glue.u + 1, v=glue.v, r=glue.r, s=glue.s)
    expect("census: wrong lens class rejected",
           w.check(own, (same, parts, back, True,
                         local[:k] + [(bad_lens, glue)] + local[k + 1:])) is not None)
    expect("census: gluing matrix of determinant != 1 rejected",
           w.check(own, (same, parts, back, True,
                         local[:k] + [(lens, bad_glue)] + local[k + 1:])) is not None)
    expect("census: missing local model rejected",
           w.check(own, (same, parts, back, True, local[:-1])) is not None)


def weak(t, workdir: Path) -> None:
    w = workloads.Weak(t, SEED, workdir, size=8)
    one_round(w, "weak")
    positive = next(c for c in w.cases if c.positive)
    negative = next(c for c in w.cases if not c.positive)
    code, text = compare(t, positive, w.mode)
    expect("weak: right witness accepted", w.check(positive, code, text) is None)
    expect("weak: flipped exit code on an isomorphic pair rejected",
           w.check(positive, 3, "not isomorphic\n") is not None)
    flag = "reversed: yes" if "reversed: yes" in text else "reversed: no"
    wrong = text.replace(flag, "reversed: no" if flag.endswith("yes") else "reversed: yes")
    expect("weak: witness with the wrong orientation flag rejected",
           w.check(positive, code, wrong) is not None)
    matrix = workloads.WITNESS.search(text).groups()[:4]
    sheared = text.replace("[[{},{}],[{},{}]]".format(*matrix),
                           "[[{},{}],[{},{}]]".format(*matrix[:2], int(matrix[2]) + 7,
                                                      int(matrix[3]) + 7))
    expect("weak: witness with a wrong matrix rejected",
           w.check(positive, code, sheared) is not None)
    code, text = compare(t, negative, w.mode)
    expect("weak: right negative verdict accepted", w.check(negative, code, text) is None)
    expect("weak: flipped exit code on a non-isomorphic pair rejected",
           w.check(negative, 0, "isomorphic\n") is not None)


def long_cycles(t, workdir: Path) -> None:
    w = workloads.LongCycles(t, SEED, workdir, lengths=(8,), per_length=2)
    one_round(w, "long-cycles")
    for case in w.cases:
        code, text = compare(t, case, w.mode)
        kind = "isomorphic" if case.positive else "non-isomorphic"
        expect(f"long-cycles: right {kind} verdict accepted", w.check(case, code, text) is None)
        flipped = (3, "not isomorphic\n") if case.positive else (0, "isomorphic\n")
        expect(f"long-cycles: flipped exit code on the {kind} pair rejected",
               w.check(case, *flipped) is not None)


def enumerate_(t) -> None:
    bounds = dict(workloads.ENUMERATE_BOUNDS, max_genus=0, max_cycles=1, max_obstruction=0)
    w = workloads.Enumerate(t, SEED, bounds=bounds)
    one_round(w, "enumerate")
    sink = workloads._Sink(run.Clock.now)
    with redirect_stdout(sink), redirect_stderr(io.StringIO()):
        code = t.cli.main(w.argv)
    parts = sink.parts
    expect("enumerate: right output accepted", w.check(bounds, code, parts) is None)
    expect("enumerate: dropped line rejected", w.check(bounds, code, parts[:-1]) is not None)
    spaced = parts[:1] + [parts[1].replace(",", ", ", 1)] + parts[2:]
    expect("enumerate: line that is not compact JSON rejected",
           w.check(bounds, code, spaced) is not None)
    k = next(i for i, p in enumerate(parts) if '"f":' in p)
    f = parts[k].split('"f":', 1)[1].split("}", 1)[0]
    wrong_f = parts[k].replace(f'"f":{f}}}', f'"f":{int(f) + 1}}}', 1)
    illegal = parts[:k] + [wrong_f] + parts[k + 1:]
    expect("enumerate: line with a wrong determinant rejected",
           w.check(bounds, code, illegal) is not None)
    expect("enumerate: exit code 2 rejected", w.check(bounds, 2, parts) is not None)


def main() -> int:
    _, t = run.load_t2orbits()
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "selftest"
    workdir.mkdir(exist_ok=True)
    try:
        census(t)
        weak(t, workdir)
        long_cycles(t, workdir)
        enumerate_(t)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
