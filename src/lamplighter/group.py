"""Lamplighter group core: configurations, group law, word metric.

The group is the restricted wreath product of the order-2 group by the
integers.  An element is a finitely supported lamp pattern over Z together
with a cursor position.  Generators: toggle the lamp under the cursor,
move the cursor one step right, move it one step left.  The word metric
has a closed form (visit every lamp that must change, sweep once each
way at worst); a breadth-first oracle over the Cayley graph is kept as an
independent cross-check.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from collections import deque
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator


class _Exceeds:
    """Sentinel: a capped search ran out of budget without an answer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Exceeds"


EXCEEDS = _Exceeds()


@dataclass(frozen=True)
class Configuration:
    """Immutable group element: finite lamp set over Z plus cursor."""

    lamps: frozenset[int]
    cursor: int

    def __init__(self, lamps: Iterable[int] = (), cursor: int = 0):
        object.__setattr__(self, "lamps", frozenset(lamps))
        object.__setattr__(self, "cursor", int(cursor))

    def __repr__(self) -> str:
        return f"Configuration({sorted(self.lamps)}, {self.cursor})"

    def sorted_lamps(self) -> list[int]:
        return sorted(self.lamps)


IDENTITY = Configuration((), 0)

def compose(g: Configuration, h: Configuration) -> Configuration:
    """Group product: h's lamps are laid down relative to g's cursor."""
    shifted = frozenset(p + g.cursor for p in h.lamps)
    return Configuration(g.lamps ^ shifted, g.cursor + h.cursor)


def invert(g: Configuration) -> Configuration:
    """Group inverse."""
    return Configuration(frozenset(p - g.cursor for p in g.lamps), -g.cursor)


def dyadic_views(g: Configuration) -> tuple[int, int]:
    """Read the lamp pattern as two binary numbers.

    The nonnegative positions give the first value (bit p contributes
    2**p), the negative positions give the second (position p contributes
    2**(-p-1)).  The cursor is ignored.
    """
    plus = 0
    minus = 0
    for p in g.lamps:
        if p >= 0:
            plus += 1 << p
        else:
            minus += 1 << (-p - 1)
    return plus, minus


def _travel(l: int, r: int, start: int, end: int) -> int:
    """Minimal walk length from start to end visiting all of [l, r]."""
    return min(
        (start - l) + (r - l) + (r - end),
        (r - start) + (r - l) + (end - l),
    )


def word_distance(g: Configuration, h: Configuration) -> int:
    """Word metric: toggles for every differing lamp plus optimal sweep.

    The cursor must visit each position where the lamp patterns differ,
    starting at g's cursor and ending at h's.  On a line the optimal
    route sweeps to one extreme first, then the other; the cheaper of
    the two orders is exact.  Left-invariant by construction.
    """
    diff = g.lamps ^ h.lamps
    lo = min(g.cursor, h.cursor)
    hi = max(g.cursor, h.cursor)
    if diff:
        lo = min(lo, min(diff))
        hi = max(hi, max(diff))
    return len(diff) + _travel(lo, hi, g.cursor, h.cursor)


@lru_cache(maxsize=32)
def sphere_sizes(radius: int) -> tuple[int, ...]:
    """|S(e, d)| for d = 0..radius, counted from the closed form.

    |g| is the lamp count plus the travel over the hull [lo, hi] of 0,
    the cursor c and the lamps, so the sphere sizes are a sum of
    binomials over (c, lo, hi, lamp count): a hull end beyond 0 and c
    must be a lit lamp, every other hull position is free.  This is the
    counting behind W. Parry's growth series of wreath products
    (Trans. AMS 331, 1992).
    """
    sizes = [0] * (radius + 1)
    for c in range(-radius, radius + 1):
        a, z = min(0, c), max(0, c)
        for lo in range(a, a - radius - 1, -1):
            for hi in range(z, z + radius + 1):
                forced = (lo < a) + (hi > z)
                base = _travel(lo, hi, 0, c) + forced
                if base > radius:
                    break  # travel and forced lamps only grow with hi
                free = hi - lo + 1 - forced
                for j in range(min(free, radius - base) + 1):
                    sizes[base + j] += comb(free, j)
    return tuple(sizes)


def neighbors(g: Configuration) -> Iterator[Configuration]:
    """The three Cayley-graph neighbors of g: g right-multiplied by each
    generator, toggle the lamp under the cursor, move right, move left."""
    yield Configuration(g.lamps ^ {g.cursor}, g.cursor)
    yield Configuration(g.lamps, g.cursor + 1)
    yield Configuration(g.lamps, g.cursor - 1)


def bfs_ball(center: Configuration, radius: int) -> dict[Configuration, int]:
    """Exhaustive breadth-first distances from center out to radius.

    Independent of the closed form on purpose: this is the oracle the
    metric is validated against.
    """
    dist = {center: 0}
    frontier = deque([center])
    while frontier:
        g = frontier.popleft()
        d = dist[g]
        if d == radius:
            continue
        for nb in neighbors(g):
            if nb not in dist:
                dist[nb] = d + 1
                frontier.append(nb)
    return dist


class CodecError(ValueError):
    """Rejected configuration text, with a position when one makes sense."""


# Caps and errors of the ball-local layer: coarse re-exports them, and the
# CLI reads them here without loading numpy.
DEFAULT_MEMBER_CAP = 5_000_000
DEFAULT_RADIUS_CAP = 12
DEFAULT_INDEX_CAP = 10_000


class ResourceLimitError(RuntimeError):
    """A configured resource cap (members, stages) would be exceeded."""


class ProbeOutsideBallError(ValueError):
    """A probe configuration lies outside the requested ball."""


class ProbeInsideObstacleError(ValueError):
    """A probe configuration lies inside the removed obstacle region."""


def encode_config(g: Configuration) -> str:
    """Canonical single-line JSON form: cursor, then ascending lamps."""
    return json.dumps(
        {"cursor": g.cursor, "lamps": g.sorted_lamps()},
        separators=(",", ":"),
    )


def encode_vertices(start: Configuration, cursors: Iterable[int]) -> Iterator[str]:
    """encode_config of each vertex of a walk, from its start and the
    cursor at each vertex (a repeated cursor means that the step toggled
    the lamp under it), without building a Configuration per vertex."""
    lamps = sorted(start.lamps)
    words = list(map(str, lamps))  # each lamp's text, kept with the lamp
    shown = ",".join(words)
    prev = None
    for cursor in cursors:
        if cursor == prev:
            i = bisect_left(lamps, cursor)
            if i < len(lamps) and lamps[i] == cursor:
                del lamps[i], words[i]
            else:
                lamps.insert(i, cursor)
                words.insert(i, str(cursor))
            shown = ",".join(words)
        prev = cursor
        yield '{"cursor":%d,"lamps":[%s]}' % (cursor, shown)


def _require_int(value, what: str) -> int:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodecError(f"{what} must be an integer, got {value!r}")
    return value


def decode_config(text: str) -> Configuration:
    """Parse the canonical form, rejecting malformed input with position."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise CodecError("configuration must be a JSON object")
    extra = set(raw) - {"cursor", "lamps"}
    if extra:
        raise CodecError(f"unexpected keys: {sorted(extra)}")
    if "cursor" not in raw or "lamps" not in raw:
        raise CodecError("configuration needs both 'cursor' and 'lamps'")
    cursor = _require_int(raw["cursor"], "cursor")
    lamps = raw["lamps"]
    if not isinstance(lamps, list):
        raise CodecError("lamps must be an array")
    out = []
    for i, p in enumerate(lamps):
        p = _require_int(p, f"lamp at index {i}")
        if out and p <= out[-1]:
            raise CodecError(
                f"lamps must be strictly ascending: index {i} holds {p} "
                f"after {out[-1]}"
            )
        out.append(p)
    return Configuration(out, cursor)
