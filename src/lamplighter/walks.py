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

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

from .group import IDENTITY, Configuration, dyadic_views


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


def stage_cursors(n: int) -> Iterator[int]:
    """The cursor after each generator move carrying stage_config(n) to
    stage_config(n+1); a move that keeps the cursor toggles the lamp
    under it.

    With k = trailing_ones(n) the walk: goes left to -k and lights a
    marker there; walks back, at -k+r matching the lamp to the one at
    k+r (r = 1..k-1); clears lamps 0..k-1 while moving right and lights
    lamp k; then returns, continuing to -k and switching off every lit
    lamp on arrival, and comes home.  k = 0 degenerates to one toggle.
    """
    k = trailing_ones(n)
    if k == 0:
        yield 0
        return
    yield from range(-1, -k - 1, -1)
    yield -k
    for r in range(1 - k, 0):
        yield r
        if (n >> (2 * k + r)) & 1:
            yield r
    yield 0
    for c in range(k):
        yield c
        yield c + 1
    yield k
    yield from range(k - 1, -1, -1)
    for p in range(1, k + 1):
        yield -p
        if p == k or (n >> (2 * k - p)) & 1:
            yield -p
    yield from range(1 - k, 1)


def keyed_vertices(
    vertices: Iterable[Configuration],
) -> Iterator[tuple[Configuration, tuple[tuple[int, int], int]]]:
    """Each vertex with its key (dyadic_views(v), v.cursor), which is
    exact: dyadic_views maps finite lamp sets one-to-one onto pairs of
    naturals.

    The views are computed once per lamp-set object: Walk.iter_vertices
    hands one frozenset to every vertex of a run of moves, so a walk's
    keys share their views tuples and cost about one int pair per
    toggle.
    """
    lamps = views = None
    for v in vertices:
        if v.lamps is not lamps:
            lamps, views = v.lamps, dyadic_views(v)
        yield v, (views, v.cursor)


@dataclass(frozen=True)
class Walk:
    """A walk in the Cayley graph: start vertex plus the cursor at each
    vertex.

    cursors[0] == start.cursor, and step i toggles the lamp under the
    cursor exactly when cursors[i + 1] == cursors[i], else it moves the
    cursor by one.  iter_vertices replays the cursors from start, one
    Configuration per vertex, holding only the current one; vertices
    keeps that replay as a tuple on first access; end replays it and
    keeps only the last vertex.  Code that only needs the lamps and
    cursors reads start and cursors instead.  milestones
    maps labels to vertex indices.
    """

    start: Configuration
    cursors: list[int]
    milestones: dict[str, int] = field(default_factory=dict)
    kind: str | None = None
    n: int | None = None
    closed: bool = False

    def iter_vertices(self) -> Iterator[Configuration]:
        lamps, prev = self.start.lamps, None
        for c in self.cursors:
            if c == prev:
                lamps = lamps ^ {c}
            yield Configuration(lamps, c)
            prev = c

    @cached_property
    def vertices(self) -> tuple[Configuration, ...]:
        return tuple(self.iter_vertices())

    @property
    def end(self) -> Configuration:
        return deque(self.iter_vertices(), maxlen=1)[0]

    @property
    def step_count(self) -> int:
        return len(self.cursors) - 1

    def is_simple(self) -> bool:
        """No repeated vertex; a closed walk must end at its first vertex
        and repeat no other.  Streams iter_vertices and compares exact
        keys (see keyed_vertices), so it builds no vertex tuple."""
        keys = (key for _, key in keyed_vertices(self.iter_vertices()))
        first = next(keys)
        seen = {first}
        for key in keys:
            if key in seen:
                return self.closed and key == first and next(keys, None) is None
            seen.add(key)
        return not self.closed or len(seen) == 1


def stage_walk(n: int) -> Walk:
    """The stage-n segment of the half-quasi-line as a standalone walk."""
    return Walk(stage_config(n), [0, *stage_cursors(n)])


def half_quasi_line(num_steps: int) -> Walk:
    """The first num_steps steps of the concatenated stage walks.

    Milestone "c<n>" marks the vertex index where stage n starts, for
    every stage start the truncated walk reaches.
    """
    if num_steps < 0:
        raise ValueError("num_steps must be nonnegative")
    cursors = [0]
    milestones = {"c0": 0}
    stage = 0
    while len(cursors) <= num_steps:
        cursors.extend(stage_cursors(stage))
        stage += 1
        if len(cursors) <= num_steps + 1:
            milestones[f"c{stage}"] = len(cursors) - 1
    del cursors[num_steps + 1:]
    return Walk(IDENTITY, cursors, milestones, kind="N")


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
    cursors = [-neg_len]
    for c in range(-neg_len, 0):
        cursors += (c, c + 1)
    positive = half_quasi_line(pos_steps)
    offset = len(cursors) - 1
    milestones = {"origin": offset}
    for label, idx in positive.milestones.items():
        milestones[label] = offset + idx
    cursors += positive.cursors[1:]
    return Walk(start, cursors, milestones, kind="R")


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
    segment one mirrored, each cursor c as 2n - c, and so ends with
    lamps 0..2n lit and the cursor at 2n.  Milestones mark the two
    junctions.  Length grows like 4**n; callers should keep n at most 6.
    """
    cursors = [0]
    for stage in range(_segment_one_stages(n)):
        cursors.extend(stage_cursors(stage))
    i1 = len(cursors) - 1
    cursors.append(1)
    for c in range(1, 2 * n):
        cursors += (c, c + 1)
    i2 = len(cursors) - 1
    # segment one reflected, read in place: islice stops before what it appends
    cursors.extend(map((2 * n).__sub__, islice(cursors, 1, i1 + 1)))
    return Walk(IDENTITY, cursors, {"I1_end": i1, "I2_end": i2}, kind="I", n=n)


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
    cursors = interval.cursors[1:]
    milestones = {
        label: idx - 1 for label, idx in interval.milestones.items()
    }
    milestones["closing_start"] = len(cursors) - 1
    cursors.append(2 * n)
    for c in range(2 * n - 1, 0, -1):
        cursors += (c, c)
    cursors.append(0)
    return Walk(Configuration((0,), 0), cursors, milestones, kind="C", n=n, closed=True)


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
    """path_walk(kind, n).step_count for kind I or C in O(n) operations,
    without building the walk or visiting its stages.

    Segment one runs stages 0..2**m - 3 with m = 2n + 1.  Half of them
    are even and take one toggle.  For k = 1..m-1, 2**(m-k-1) of them
    have k trailing ones and take 7k + 3 steps plus two toggles per set
    bit among bits k+1..2k-1 (see stage_cursors); min(k - 1, m - 1 - k)
    of those bits lie below bit m, and each is set in half the stages.
    Segments one and three each take that many steps, segment two
    4n - 1, and the circle drops the first step and closes in 4n.
    """
    if kind not in ("I", "C"):
        raise ValueError(f"kind {kind!r} has no intrinsic length")
    stages = _segment_one_stages(n)
    m = 2 * n + 1
    segment_one = stages // 2 + sum(
        (7 * k + 3 + min(k - 1, m - 1 - k)) << (m - k - 1) for k in range(1, m)
    )
    interval = 2 * segment_one + 4 * n - 1
    return interval if kind == "I" else interval + 4 * n - 1


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
