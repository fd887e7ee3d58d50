"""Connected sums along circular orbits and the manifold/simple decomposition.

A tube around a circular orbit has boundary S^2 x S^1; removing the tubes
around one circular orbit in each of two spaces with the same isotropy there
and gluing along the boundaries is the C-equivariant connected sum.  On
weight systems the operation is purely combinatorial: genus and obstruction
add, exceptional data unite, and the two selected boundary components merge
into one (two circles fuse to a circle, a circle is absorbed by a cycle, two
cycles splice into one longer cycle).

Every such space decomposes as the sum of a single closed 4-manifold system
(all adjacent determinants +-1) with one simple piece per boundary cycle
containing a singular fixed point; ``decompose`` produces that presentation
and ``reassemble`` folds it back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FixedCycle, IsotropyPair, WeightSystem, require_legal
from .equivalence import canonical_cycle
from .errors import IllegalJunction, IsotropyMismatch, OrientationMismatch


@dataclass(frozen=True, slots=True)
class CircleSelection:
    """A circular orbit selected for a connected sum.

    Either a pure circle boundary component (``circle`` is its index) or an
    arc of circular orbits inside a fixed cycle (``cycle`` and ``arc`` index
    the cycle and the arc within it).  Indices count from 0; a negative one
    raises ValueError rather than counting from the end.
    """

    circle: int | None = None
    cycle: int | None = None
    arc: int | None = None

    def __post_init__(self):
        on_circle = self.circle is not None
        on_arc = self.cycle is not None and self.arc is not None
        if on_circle == on_arc:
            raise ValueError("select either a circle boundary or a cycle arc")
        if min(self.circle or 0, self.cycle or 0, self.arc or 0) < 0:
            raise ValueError(f"selection indices must be nonnegative: {self}")

    @classmethod
    def boundary_circle(cls, index: int) -> "CircleSelection":
        return cls(circle=index)

    @classmethod
    def cycle_arc(cls, cycle: int, arc: int) -> "CircleSelection":
        return cls(cycle=cycle, arc=arc)

    @property
    def is_circle(self) -> bool:
        return self.circle is not None

    def pair_in(self, system: WeightSystem) -> IsotropyPair:
        """The isotropy representative at the selection; IndexError if absent."""
        if self.is_circle:
            return system.circle_boundaries[self.circle]
        return system.fixed_cycles[self.cycle].pairs[self.arc]


@dataclass(frozen=True)
class Decomposition:
    """A manifold weight system plus simple pieces and the gluing selections.

    ``gluings[k]`` pairs a selection into ``manifold_part`` (as presented
    here, before any sums are folded) with a selection into
    ``simple_pieces[k]``.
    """

    manifold_part: WeightSystem
    simple_pieces: tuple
    gluings: tuple

    def __post_init__(self):
        object.__setattr__(self, "simple_pieces", tuple(self.simple_pieces))
        object.__setattr__(self, "gluings", tuple(self.gluings))


def is_simple(system: WeightSystem) -> bool:
    """Disk orbit space, no exceptional orbits, at least one fixed point.

    Equivalently: genus 0, obstruction (0, 0), no circle boundaries, exactly
    one fixed cycle, no exceptional orbits (legality already forces at least
    two fixed points on the cycle).
    """
    require_legal(system)
    return (system.genus == 0
            and system.obstruction == (0, 0)
            and system.circle_count == 0
            and system.cycle_count == 1
            and system.exceptional_count == 0)


def _splice(c1: FixedCycle, i: int, c2: FixedCycle, j: int) -> FixedCycle:
    """Splice two cycles cut open at arcs i and j.

    The second cycle's entries are inserted after arc i, starting just past
    arc j and ending with arc j itself, so both selected arcs survive into
    the result and all original fixed points persist.  The two junction
    determinants are recomputed from the now-adjacent representatives.
    """
    pairs = c1.pairs[: i + 1] + c2.pairs[j + 1:] + c2.pairs[: j + 1] + c1.pairs[i + 1:]
    spliced = FixedCycle.from_pairs(pairs)
    r = len(spliced)
    # Junctions sit after position i (start of the inserted block) and after
    # position i + len(c2) (its end); the latter is the wrap when i was last.
    for w in (i, i + len(c2)):
        if spliced.dets[w] == 0:
            raise IllegalJunction(
                f"splice junction between {spliced.pairs[w]} and "
                f"{spliced.pairs[(w + 1) % r]} has determinant 0")
    return spliced


def c_connected_sum(first: WeightSystem, first_selection: CircleSelection,
                    second: WeightSystem, second_selection: CircleSelection
                    ) -> WeightSystem:
    """C-equivariant connected sum at the two selected circular orbits.

    Both systems must be legal, carry the same orientation
    (:class:`OrientationMismatch` otherwise) and have equal isotropy
    subgroups at the selections (:class:`IsotropyMismatch`).  Genus and
    obstruction add, exceptional orbits unite, unselected boundary
    components carry over, and the selected components merge as described in
    the module docstring: a circle selected in the second system is dropped,
    else a circle selected in the first is, else the two cycles give way to
    their splice, appended last.  The first system's other components come
    first, in order.
    """
    require_legal(first)
    require_legal(second)
    if first.orientation != second.orientation:
        raise OrientationMismatch(
            f"orientations {first.orientation} and {second.orientation} differ")
    p1 = first_selection.pair_in(first)
    p2 = second_selection.pair_in(second)
    if not p1.same_subgroup(p2):
        raise IsotropyMismatch(f"selected isotropies {p1} and {p2} differ")

    circles1, circles2 = list(first.circle_boundaries), list(second.circle_boundaries)
    cycles1, cycles2 = list(first.fixed_cycles), list(second.fixed_cycles)
    if second_selection.is_circle:
        del circles2[second_selection.circle]
    elif first_selection.is_circle:
        del circles1[first_selection.circle]
    else:
        cycles2.append(_splice(cycles1.pop(first_selection.cycle), first_selection.arc,
                               cycles2.pop(second_selection.cycle), second_selection.arc))
    return WeightSystem(
        obstruction=(first.obstruction[0] + second.obstruction[0],
                     first.obstruction[1] + second.obstruction[1]),
        orientation=first.orientation,
        genus=first.genus + second.genus,
        circle_boundaries=tuple(circles1 + circles2),
        fixed_cycles=tuple(cycles1 + cycles2),
        exceptional=first.exceptional + second.exceptional,
    )


def decompose(system: WeightSystem) -> Decomposition:
    """Split off one simple piece per cycle containing a singular fixed point.

    Each such cycle (canonicalized first, so the emitted data is
    deterministic) becomes a simple piece; the manifold part replaces it by
    a pure circle boundary carrying the cycle's first isotropy pair.  Cycles
    with all determinants +-1 stay in the manifold part, which therefore
    describes a closed 4-manifold action.  When no singular fixed point
    exists the decomposition is (system, no pieces).
    """
    require_legal(system)
    manifold_cycles = []
    pieces = []
    gluings = []
    new_circles = []
    base = system.circle_count
    for cycle in system.fixed_cycles:
        if all(abs(f) == 1 for f in cycle.dets):
            manifold_cycles.append(cycle)
            continue
        canon = canonical_cycle(cycle)
        gluings.append((CircleSelection.boundary_circle(base + len(pieces)),
                        CircleSelection.cycle_arc(0, 0)))
        new_circles.append(canon.pairs[0].canonical())
        pieces.append(WeightSystem(orientation=system.orientation,
                                   fixed_cycles=(canon,)))
    if not pieces:
        return Decomposition(system, (), ())
    manifold = WeightSystem(
        obstruction=system.obstruction,
        orientation=system.orientation,
        genus=system.genus,
        circle_boundaries=system.circle_boundaries + tuple(new_circles),
        fixed_cycles=tuple(manifold_cycles),
        exceptional=system.exceptional,
    )
    return Decomposition(manifold, tuple(pieces), tuple(gluings))


def reassemble(decomposition: Decomposition) -> WeightSystem:
    """Fold the connected sums of a decomposition back into one system.

    Selections in ``gluings`` refer to component indices of
    ``manifold_part`` as given.  Every sum keeps the running system's
    components at the front, in order, and consumes a manifold component
    exactly when the piece's selection is a cycle arc (a circle absorbed by
    the piece's cycle, or a cycle spliced away).  So a component's current
    index is its given index minus the number of consumed indices of its
    kind below it.  An index past the manifold part's own components raises
    IndexError; one consumed by an earlier gluing raises ValueError.
    """
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
        current = (CircleSelection.boundary_circle(shifted) if sel.is_circle
                   else CircleSelection.cycle_arc(shifted, sel.arc))
        running = c_connected_sum(running, current, piece, piece_sel)
        if not piece_sel.is_circle:
            used.add(index)
    return running
