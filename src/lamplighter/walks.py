"""Explicit walks in the lamplighter Cayley graph.

The half-quasi-line is a concatenation of stage walks: stage n carries the
binary-counter configuration for n (low bits under the cursor at the
origin) to the one for n+1.  A stage with k trailing one-bits first plants
a turnaround marker at -k, copies the bits it will destroy into the
mirror positions, clears the low block while writing the next bit, and
finally sweeps the negative side clean.  Everything else here (two-sided
quasi-line, quasi-intervals, quasi-circles, probe configurations) is
assembled from those stages and their left-right mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator

from .group import IDENTITY, Configuration, Step, apply_step


def trailing_ones(n: int) -> int:
    """Largest k such that bits 0..k-1 of n are set and bit k is clear."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n ^ (n + 1)).bit_length() - 1


def stage_config(n: int) -> Configuration:
    """Counter configuration for n: its set bits as lamps, cursor at 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Configuration((p for p in range(n.bit_length()) if (n >> p) & 1), 0)


def stage_steps(n: int) -> Iterator[Step]:
    """Generator moves carrying stage_config(n) to stage_config(n+1).

    With k = trailing_ones(n) the walk: goes left to -k and lights a
    marker there; walks back, at -k+r matching the lamp to the one at
    k+r (r = 1..k-1); clears lamps 0..k-1 while moving right and lights
    lamp k; then returns, continuing to -k and switching off every lit
    lamp on arrival, and comes home.  k = 0 degenerates to one toggle.
    """
    k = trailing_ones(n)
    if k == 0:
        yield Step.TOGGLE
        return
    for _ in range(k):
        yield Step.LEFT
    yield Step.TOGGLE
    for r in range(1, k):
        yield Step.RIGHT
        if (n >> (k + r)) & 1:
            yield Step.TOGGLE
    yield Step.RIGHT
    for _ in range(k):
        yield Step.TOGGLE
        yield Step.RIGHT
    yield Step.TOGGLE
    for _ in range(k):
        yield Step.LEFT
    for p in range(1, k + 1):
        yield Step.LEFT
        if p == k or (n >> (2 * k - p)) & 1:
            yield Step.TOGGLE
    for _ in range(k):
        yield Step.RIGHT


def stage_step_count(n: int) -> int:
    """len(list(stage_steps(n))) without generating the steps: one
    toggle when k = trailing_ones(n) is 0, else 7k + 3 moves and toggles
    plus two toggles (one copying, one clearing) for each set bit among
    bits k+1..2k-1 of n."""
    k = trailing_ones(n)
    if k == 0:
        return 1
    return 7 * k + 3 + 2 * ((n >> (k + 1)) & ((1 << (k - 1)) - 1)).bit_count()


def replay(start: Configuration, steps: Iterable[Step]) -> list[Configuration]:
    """All vertices visited when applying steps from start."""
    vertices = [start]
    current = start
    for s in steps:
        current = apply_step(current, s)
        vertices.append(current)
    return vertices


_CURSOR_MOVE = {Step.TOGGLE: 0, Step.RIGHT: 1, Step.LEFT: -1}


@dataclass(frozen=True)
class Walk:
    """A walk in the Cayley graph: start vertex plus generator steps.

    vertices is derived from start and steps on first access and always
    satisfies vertices[i+1] = apply_step(vertices[i], steps[i]); code
    that only needs the lamps and cursors reads start and cursors()
    instead.  milestones maps labels to vertex indices.
    """

    start: Configuration
    steps: tuple[Step, ...]
    milestones: dict[str, int] = field(default_factory=dict)
    kind: str | None = None
    n: int | None = None
    closed: bool = False

    @cached_property
    def vertices(self) -> tuple[Configuration, ...]:
        return tuple(replay(self.start, self.steps))

    def cursors(self) -> list[int]:
        """The cursor at each vertex.  Step i toggles exactly when
        cursors()[i + 1] == cursors()[i], and then it toggles the lamp
        at that cursor."""
        return list(accumulate(map(_CURSOR_MOVE.__getitem__, self.steps),
                               initial=self.start.cursor))

    @property
    def end(self) -> Configuration:
        return self.vertices[-1]

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def is_simple(self) -> bool:
        """No repeated vertex; a closed walk may repeat only its endpoint."""
        if self.closed:
            if self.vertices[0] != self.vertices[-1]:
                return False
            interior = self.vertices[:-1]
            return len(set(interior)) == len(interior)
        return len(set(self.vertices)) == len(self.vertices)


def stage_walk(n: int) -> Walk:
    """The stage-n segment of the half-quasi-line as a standalone walk."""
    return Walk(stage_config(n), tuple(stage_steps(n)))


_MIRROR = {Step.TOGGLE: Step.TOGGLE, Step.RIGHT: Step.LEFT, Step.LEFT: Step.RIGHT}


def mirror_steps(steps: Iterable[Step]) -> tuple[Step, ...]:
    """Swap left and right moves, keeping toggles."""
    return tuple(_MIRROR[s] for s in steps)


def half_quasi_line(num_steps: int) -> Walk:
    """The first num_steps steps of the concatenated stage walks.

    Milestone "c<n>" marks the vertex index where stage n starts, for
    every stage start the truncated walk reaches.
    """
    if num_steps < 0:
        raise ValueError("num_steps must be nonnegative")
    steps: list[Step] = []
    milestones = {"c0": 0}
    stage = 0
    while len(steps) < num_steps:
        stage_list = list(stage_steps(stage))
        stage += 1
        if len(stage_list) <= num_steps - len(steps):
            steps.extend(stage_list)
            milestones[f"c{stage}"] = len(steps)
        else:
            steps.extend(stage_list[: num_steps - len(steps)])
            break
    return Walk(IDENTITY, tuple(steps), milestones, kind="N")


def quasi_line(neg_len: int, pos_steps: int) -> Walk:
    """Two-sided quasi-line: a negative ray joined to the half-quasi-line.

    The negative ray's anchor i steps out has lamps -i..-1 lit and the
    cursor at -i; consecutive anchors are interpolated by a toggle and a
    move.  The walk runs from the farthest anchor through the identity
    and on along the half-quasi-line.
    """
    if neg_len < 0 or pos_steps < 0:
        raise ValueError("lengths must be nonnegative")
    start = Configuration(range(-neg_len, 0), -neg_len)
    steps: list[Step] = []
    for _ in range(neg_len):
        steps.append(Step.TOGGLE)
        steps.append(Step.RIGHT)
    positive = half_quasi_line(pos_steps)
    offset = len(steps)
    milestones = {"origin": offset}
    for label, idx in positive.milestones.items():
        milestones[label] = offset + idx
    steps.extend(positive.steps)
    return Walk(start, tuple(steps), milestones, kind="R")


def _segment_one_stages(n: int) -> int:
    """The number of stages in segment one of the quasi-interval at scale n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (1 << (2 * n + 1)) - 2


def quasi_interval(n: int) -> Walk:
    """Finite three-segment walk from the identity to lamps 0..2n at 2n.

    Segment one follows the half-quasi-line until the counter shows bits
    1..2n (one stage short of the full low block, so that segment two
    can leave without retracing an edge).  Segment two sweeps right,
    clearing lamps 1..2n-1 and keeping lamp 2n.  Segment three replays
    segment one mirrored, which by reflection ends with lamps 0..2n lit
    and the cursor at 2n.  Milestones mark the two junctions.  Length
    grows like 4**n; callers should keep n at most 6.
    """
    seg1: list[Step] = []
    for stage in range(_segment_one_stages(n)):
        seg1.extend(stage_steps(stage))
    seg2: list[Step] = [Step.RIGHT]
    for _ in range(2 * n - 1):
        seg2.append(Step.TOGGLE)
        seg2.append(Step.RIGHT)
    seg3 = mirror_steps(seg1)
    milestones = {"I1_end": len(seg1), "I2_end": len(seg1) + len(seg2)}
    return Walk(IDENTITY, (*seg1, *seg2, *seg3), milestones, kind="I", n=n)


def quasi_circle(n: int) -> Walk:
    """Closed walk: the quasi-interval rebased at ({0}, 0) plus a return.

    The interval's first step (the stage-0 toggle at the identity) is
    dropped so the circle is based at ({0}, 0); the closing segment
    walks from the interval's far endpoint back to the base, switching
    off lamps 2n down to 1 and keeping lamp 0.  Basing at the identity
    instead would force the closing segment through an interior vertex
    of the first segment.
    """
    interval = quasi_interval(n)
    steps = list(interval.steps[1:])
    milestones = {
        label: idx - 1 for label, idx in interval.milestones.items()
    }
    milestones["closing_start"] = len(steps)
    steps.append(Step.TOGGLE)
    for _ in range(2 * n - 1):
        steps.append(Step.LEFT)
        steps.append(Step.TOGGLE)
    steps.append(Step.LEFT)
    return Walk(Configuration((0,), 0), tuple(steps), milestones, kind="C", n=n, closed=True)


def path_walk(kind: str, n: int | None = None, steps: int | None = None) -> Walk:
    """The walk of a path kind: the first steps steps of the
    half-quasi-line (N) or of the quasi-line with a quarter of them on
    the negative ray (R), or the whole quasi-interval (I) or quasi-circle
    (C) at scale n."""
    if kind == "N":
        return half_quasi_line(steps)
    if kind == "R":
        neg = steps // 4
        return quasi_line(neg, steps - 2 * neg)
    if kind == "I":
        return quasi_interval(n)
    if kind == "C":
        return quasi_circle(n)
    raise ValueError(f"unknown path kind {kind!r}")


def intrinsic_step_count(kind: str, n: int) -> int:
    """path_walk(kind, n).step_count for kind I or C, without building
    the walk: segments one and three each take the steps of the stages
    of segment one, segment two 4n - 1, and the circle drops the first
    step and closes in 4n."""
    interval = 2 * sum(map(stage_step_count, range(_segment_one_stages(n)))) + 4 * n - 1
    if kind == "I":
        return interval
    if kind == "C":
        return interval + 4 * n - 1
    raise ValueError(f"kind {kind!r} has no intrinsic length")


@dataclass(frozen=True)
class ProbeSet:
    """The four probe configurations used in separation experiments."""

    n: int
    a_n: Configuration
    b_n: Configuration
    x_n: Configuration
    y_n: Configuration


def probes(n: int) -> ProbeSet:
    """Standard probes at scale n, one on each side of the obstacles."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return ProbeSet(
        n=n,
        a_n=Configuration(range(0, 2 * n), n),
        b_n=Configuration((), -n),
        x_n=Configuration(range(0, 2 * n + 1), n),
        y_n=Configuration((), -n),
    )
