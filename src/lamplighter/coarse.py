"""Ball-local coarse geometry for the lamplighter Cayley graph.

A metric ball is the sorted table of its members' packed keys (lamp
window plus cursor in one 64-bit word), found by breadth-first search;
distances are the closed form on the keys.  Obstacles are the explicit
walks; removing an obstacle neighborhood and decomposing what is left
gives ball-local separation verdicts.  Every walk (interval, circle,
the quasi-line's negative ray, a probe's seed stage, a profiled path)
is read from its start and cursors, never as one Configuration per
vertex: one numpy packer xor-accumulates its lamps a uint64 word column
at a time.  Ball-local walk keys hold the lamps around the identity or
a probe; the profile join's keys hold those in a window anchored near
each cursor beside an exact rank of the lamps outside it, so every
translate by a ball member is one searchsorted in the sorted keys.
Enumeration of the infinite paths is truncated by provable per-stage
lower bounds: lamps above the trailing block never change during a
stage, so any stage whose persistent high bits already cost more than
the budget cannot reach the ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import Iterable, Iterator

import numpy as np

from .group import (  # the caps and errors are re-exported from here
    DEFAULT_INDEX_CAP,
    DEFAULT_MEMBER_CAP,
    DEFAULT_RADIUS_CAP,
    EXCEEDS,
    IDENTITY,
    Configuration,
    ProbeInsideObstacleError,
    ProbeOutsideBallError,
    ResourceLimitError,
    compose,
    invert,
    sphere_sizes,
    word_distance,
)
from .walks import Walk, intrinsic_step_count, path_walk, quasi_line, stage_walk

_CUR_BITS = 7
_CUR_MASK = np.uint64((1 << _CUR_BITS) - 1)
_MAX_RADIUS = 28  # packing limit: 2*28+1 lamp bits + 7 cursor bits < 64


@dataclass(frozen=True)
class PathSpec:
    """Which explicit path plays the obstacle or profile subject.

    kind "N" is the half-quasi-line, "R" the two-sided quasi-line,
    "I" the quasi-interval at scale n, "C" the quasi-circle at scale n.
    """

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("N", "R", "I", "C"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.kind in ("I", "C"):
            if self.n is None or self.n < 1:
                raise ValueError(f"kind {self.kind} needs n >= 1")
        elif self.n is not None:
            raise ValueError(f"kind {self.kind} takes no n")


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.

    np.unique takes a hash path for integer arrays in numpy 2.x, which
    is an order of magnitude slower than sorting on millions of packed
    keys; a sort plus an adjacent-difference mask gives the same array.
    """
    out = np.sort(values)
    return out[_distinct(out)]


def _distinct(values: np.ndarray) -> np.ndarray:
    """Mask of the first value of each run of equal values in a sorted
    array."""
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return keep


def _find(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in a sorted table, -1 where it is absent."""
    pos = np.searchsorted(table, values)
    np.minimum(pos, len(table) - 1, out=pos)  # all -1 on an empty table
    if len(table):
        pos[table[pos] != values] = -1
    return pos


class Ball:
    """Exhaustive metric ball around a center, held as its sorted keys.

    A key packs a member relative to the center (lamp window shifted by
    the radius, then the cursor); distances are the closed form on the
    keys.  Deterministic: member order is the packed order, which sorts
    by lamp pattern as a binary value, then cursor.
    """

    def __init__(self, center: Configuration, radius: int, keys: np.ndarray,
                 toggles: np.ndarray | None = None):
        self.center = center
        self.radius = radius
        self.keys = keys  # the members' packed keys (uint64), sorted
        if toggles is not None:  # the ball graph is then not searched for
            self.toggles = toggles

    @property
    def member_count(self) -> int:
        return len(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def pack(self, g: Configuration) -> int | None:
        """Packed key of c^-1 g for the center c (g's lamps xor c's, and
        g's cursor, each shifted by -c.cursor), or None if outside the
        representable window (such a vertex cannot be a member)."""
        r, c = self.radius, self.center.cursor
        if abs(g.cursor - c) > r:
            return None
        mask = 0
        for p in g.lamps ^ self.center.lamps:
            if abs(p - c) > r:
                return None
            mask |= 1 << (p - c + r)
        return (mask << _CUR_BITS) | (g.cursor - c + r)

    def unpack(self, key: int) -> Configuration:
        shift = self.center.cursor - self.radius
        key = int(key)
        mask = key >> _CUR_BITS
        lamps = {b + shift for b in range(mask.bit_length()) if (mask >> b) & 1}
        return Configuration(self.center.lamps ^ lamps, (key & ((1 << _CUR_BITS) - 1)) + shift)

    def _position(self, g: Configuration) -> int:
        """Position of g in the key table, -1 if g is not a member."""
        key = self.pack(g)
        if key is None:
            return -1
        return int(_find(self.keys, np.array([key], dtype=np.uint64))[0])

    def __contains__(self, g: Configuration) -> bool:
        return self._position(g) >= 0

    @cached_property
    def toggles(self) -> np.ndarray:
        """Position of each member's toggle neighbour in the key table
        (int32, -1 outside the ball): given to the constructor, or
        searched for on first use."""
        return _toggle_column(self.keys)

    @cached_property
    def links(self) -> np.ndarray:
        """The rest of the ball graph, built on first use, _REPLAY_ROWS
        keys at a time: links[j] (j = 1..len - 1) says keys[j] == keys[j -
        1] + 1.  key + 1 is the right neighbour, which sits at the next
        position when it is a member, so member i's right neighbour is a
        member iff links[i + 1] and its left iff links[i].  links[0] and
        links[len] stay False."""
        links = np.zeros(len(self.keys) + 1, dtype=bool)
        for lo in range(0, len(self.keys), _REPLAY_ROWS):
            part = self.keys[lo:lo + _REPLAY_ROWS + 1]
            links[lo + 1:lo + len(part)] = part[1:] - part[:-1] == 1
        return links


def _toggle_column(keys: np.ndarray) -> np.ndarray:
    """Position in a sorted key table of each key's toggle neighbour
    (int32, -1 where it is absent).  The toggle is an involution, so only
    keys with the lamp under the cursor off are looked up, and each hit
    fills both ends."""
    tog = np.full(len(keys), -1, dtype=np.int32)
    for lo in range(0, len(keys), _REPLAY_ROWS):
        part = keys[lo:lo + _REPLAY_ROWS]
        bit = np.uint64(1) << (np.uint64(_CUR_BITS) + (part & _CUR_MASK))
        dark = np.flatnonzero((part & bit) == 0)
        pos = _find(keys, part[dark] | bit[dark])
        hit = pos >= 0
        src, dst = lo + dark[hit], pos[hit]
        tog[src] = dst
        tog[dst] = src
    return tog


def _neighbor_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Toggle, right, left neighbors of packed keys (same window)."""
    toggled = keys ^ (np.uint64(1) << (np.uint64(_CUR_BITS) + (keys & _CUR_MASK)))
    return toggled, keys + np.uint64(1), keys - np.uint64(1)


def ball_member_count(radius: int, member_cap: int = DEFAULT_MEMBER_CAP) -> int:
    """|B(e, radius)| by the closed form, once radius is within the
    packing window (else ValueError) and the count within the member cap
    (else ResourceLimitError)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > _MAX_RADIUS:
        raise ValueError(f"radius {radius} exceeds the packing window ({_MAX_RADIUS})")
    members = sum(sphere_sizes(radius))
    if members > member_cap:
        raise ResourceLimitError(f"ball(radius={radius}) exceeds member cap {member_cap}")
    return members


def ball(center: Configuration, radius: int, *, member_cap: int = DEFAULT_MEMBER_CAP) -> Ball:
    """Exhaustive BFS ball: every member's key, sorted.

    Growth is exponential (ratio around 1.8 per unit radius); the
    closed-form count of the ball raises ResourceLimitError over the
    member cap before any level is built.  The levels are written into
    one array of that count and sorted in place; a BFS that finds a
    different count raises RuntimeError.
    """
    members = ball_member_count(radius, member_cap)
    keys = np.empty(members, dtype=np.uint64)
    keys[0] = radius  # identity: empty lamps, cursor 0
    prev, lo, end = keys[:0], 0, 1  # the last level is keys[lo:end]
    for _ in range(radius):
        cur = keys[lo:end]
        n = len(cur)
        cand = np.empty(3 * n, dtype=np.uint64)
        for i in range(0, n, _REPLAY_ROWS):
            for j, nbr in enumerate(_neighbor_keys(cur[i:i + _REPLAY_ROWS])):
                cand[j * n + i:j * n + i + len(nbr)] = nbr
        cand.sort()
        distinct = _distinct(cand)
        for i in range(0, len(cand), _REPLAY_ROWS):
            part = cand[i:i + _REPLAY_ROWS][distinct[i:i + _REPLAY_ROWS]]
            # the Cayley graph is bipartite (every generator flips lamp
            # count plus cursor mod 2), so new vertices can only collide
            # with the previous level
            fresh = part[_find(prev, part) < 0]
            if end + len(fresh) > members:
                raise RuntimeError(f"ball(radius={radius}) BFS passed the closed-form count {members}")
            keys[end:end + len(fresh)] = fresh
            end += len(fresh)
        prev, lo = cur, lo + n
    if end != members:
        raise RuntimeError(f"ball(radius={radius}) BFS found {end} members, not {members}")
    keys.sort()
    return Ball(center, radius, keys)


def encode_members(b: Ball) -> Iterator[str]:
    """The line of each member of b (distance, cursor, sorted lamps), in
    key order, read off the keys _REPLAY_ROWS at a time: the counterpart
    of group.encode_vertices.  Lamp bit p and the cursor field shift by
    center.cursor - radius, as in Ball.unpack; keys sort by lamp mask
    first, so each mask's lamp text is rendered once."""
    shift = b.center.cursor - b.radius
    mask, shown = None, ""
    for lo in range(0, len(b.keys), _REPLAY_ROWS):
        part = b.keys[lo:lo + _REPLAY_ROWS]
        dists = _packed_distance(part, b.radius, 0, 0).tolist()
        cursors = ((part & _CUR_MASK).astype(np.int64) + shift).tolist()
        for key, d, cursor in zip((part >> np.uint64(_CUR_BITS)).tolist(), dists, cursors):
            if key != mask:
                mask = key
                lit = {p + shift for p in range(key.bit_length()) if key >> p & 1}
                shown = ",".join(map(str, sorted(b.center.lamps ^ lit)))
            yield '{"d":%d,"cursor":%d,"lamps":[%s]}' % (d, cursor, shown)


def _members(b: Ball, keys: np.ndarray) -> np.ndarray:
    """The distinct keys among keys that are members of b, sorted."""
    keys = _unique(keys)
    return keys[_find(b.keys, keys) >= 0]


def _walk_keys(walk: Walk, off: int, v: Configuration = IDENTITY) -> np.ndarray:
    """Ball.pack keys (radius off), in walk order, of the vertices v^-1 w
    whose lamps and cursor all lie in [-off, off].  Lamp p sits at bit p
    + low of the _lamp_columns, low = off + 64 m for the least m >= 0
    that keeps every cursor at a bit >= 0 (the window is then bits 0..2
    off of word m), read _REPLAY_ROWS cursors at a time from the last row
    before, each word at the slice start xored in.  A row with a bit lit
    outside the window is left out; a lit lamp past the columns, which no
    cursor reaches, leaves every row out."""
    start, cursors = compose(invert(v), walk.start), walk.cursors
    low = off + 64 * max(0, -((min(cursors) - v.cursor + off) // 64))
    words = (max(max(cursors) - v.cursor, 0) + low) // 64 + 1
    if any(not 0 <= p + low < 64 * words for p in start.lamps):
        return np.zeros(0, dtype=np.uint64)
    word = sum(1 << (p + low) for p in start.lamps)
    carry = np.frombuffer(word.to_bytes(8 * words, "little"), dtype="<u8").astype(np.uint64)
    window = np.uint64((1 << (2 * off + 1)) - 1)
    found = []
    for lo in range(0, len(cursors), _REPLAY_ROWS):
        c = np.array(cursors[max(lo - 1, 0):lo + _REPLAY_ROWS], dtype=np.int64) - v.cursor
        keep = np.abs(c) <= off
        keep[0] &= lo == 0  # else the last row of the slice before
        for j, col in enumerate(_lamp_columns(c, low, words)):
            col ^= carry[j]
            carry[j] = col[-1]
            if j == low >> 6:  # word m, off < 64
                lamps = col & window
                col ^= lamps
            keep &= col == 0
        found.append((lamps[keep] << np.uint64(_CUR_BITS)) | (c[keep] + off).astype(np.uint64))
    return np.concatenate(found)


_MOVE = -2  # template gate of a cursor move: no lamp toggles
_ALWAYS = -1  # template gate of a toggle that every stage makes


@lru_cache(maxsize=64)  # k < 64 for any uint64 stage
def _stage_template(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The steps of walks.stage_cursors shared by every stage with k
    trailing ones, as three int64 arrays: the cursor after each step,
    the lamp it toggles (0 for a move), and its gate.

    Stages with k trailing ones differ only in the mirror copies: a
    toggle at cursor c with -k < c < 0 copies stage bit 2k + c, so it
    happens iff that bit is set.  The template is the walk of the stage
    with all those bits set, each such toggle gated by its bit; with the
    bit clear the step repeats the previous vertex.
    """
    cursors = np.array(stage_walk(((1 << (2 * k)) - 1) & ~(1 << k)).cursors, dtype=np.int64)
    cursor = cursors[1:]
    toggle = cursor == cursors[:-1]
    mirror = toggle & (-k < cursor) & (cursor < 0)
    lamp = np.where(toggle, cursor, 0)
    gate = np.where(mirror, 2 * k + cursor, np.where(toggle, _ALWAYS, _MOVE))
    columns = (cursor, lamp, gate)
    for col in columns:
        col.flags.writeable = False
    return columns


def _replay_stages(stages: np.ndarray, k: int, off: int) -> np.ndarray:
    """Packed keys of the stage walks of uint64 stages with k trailing ones.

    Row i holds stages[i]'s start vertex, then the vertex after each
    template step, as (lamp mask << _CUR_BITS) | (cursor + off) with
    lamp p at bit p + off.  The lamp words are the stage bits xor the
    running xor of the toggles that fire.  Needs off >= k and every lamp
    bit below 64 - _CUR_BITS, which holds for the stages that survive
    the origin bound of a ball within the packing window.
    """
    cursor, lamp, gate = _stage_template(k)
    one = np.uint64(1)
    words = np.zeros((len(stages), len(cursor) + 1), dtype=np.uint64)
    words[:, 1:] = (one << (lamp + off).astype(np.uint64)) * (gate != _MOVE)
    gated = np.flatnonzero(gate >= 0)
    if len(gated):
        fires = (stages[:, None] >> gate[gated].astype(np.uint64)) & one
        words[:, gated + 1] *= fires
    np.bitwise_xor.accumulate(words, axis=1, out=words)
    words ^= (stages << np.uint64(off))[:, None]
    words <<= np.uint64(_CUR_BITS)
    words |= np.concatenate([[0], cursor]).astype(np.uint64) + np.uint64(off)
    return words


_REPLAY_ROWS = 1 << 14


def _line_stages(radius: int) -> dict[int, np.ndarray]:
    """The half-quasi-line stages with origin bound at most radius, as
    uint64, keyed by their number k of trailing ones.

    The bits of H in a stage s = (H << (k + 1)) | (2**k - 1) persist
    while the cursor stays within [-k, k], so a path from the identity
    to a vertex of the stage lights each of them, reaches the top one at
    T = bitlen(H) + k and ends at a cursor <= k: it is at least r =
    popcount(H) + 2T - k = cost(H) + k long, with cost(H) = popcount(H) +
    2 * bitlen(H) (at H = 0 the stage keeps a lamp lit while it reaches
    bit k - 1, so r = k).  Every stage of bound r lies below 2**r.  A low
    0 bit adds 2 to the cost of H and a 1 bit 3, so the H of cost c are
    those of cost c - 2 and c - 3 shifted left, the latter with a 1.
    """
    one = np.uint64(1)
    empty = np.zeros(0, dtype=np.uint64)
    highs = [np.zeros(1, dtype=np.uint64), empty, empty]  # the H of each cost
    for c in range(3, radius + 1):
        highs.append(np.concatenate([highs[c - 2] << one, (highs[c - 3] << one) | one]))
    stages = {}
    for k in range(radius + 1):
        h = np.concatenate(highs[:radius - k + 1])
        stages[k] = (h << np.uint64(k + 1)) | np.uint64((1 << k) - 1)
    return stages


def _line_keys(radius: int, off: int) -> Iterator[np.ndarray]:
    """_replay_stages rows of every stage of _line_stages(radius), with
    lamp p at bit p + off, _REPLAY_ROWS stages at a time.  Needs off >=
    radius and radius + off < 64 - _CUR_BITS."""
    for k, stages in _line_stages(radius).items():
        for lo in range(0, len(stages), _REPLAY_ROWS):
            yield _replay_stages(stages[lo:lo + _REPLAY_ROWS], k, off)


def _path_keys_in_ball(spec: PathSpec, b: Ball) -> np.ndarray:
    if b.center != IDENTITY:
        raise ValueError("path enumeration requires a ball centered at the identity")
    if spec.kind in ("I", "C"):
        return _members(b, _walk_keys(path_walk(spec.kind, spec.n), b.radius))
    # the half-quasi-line: every stage that can reach the ball
    line = _unique(np.concatenate([_members(b, rows.ravel())
                                   for rows in _line_keys(b.radius, b.radius)]))
    if spec.kind == "N":
        return line
    # quasi-line: the ray anchor i sits at distance 2i, interpolants at 2i+1
    ray = quasi_line(b.radius // 2 + 1, 0)
    return _members(b, np.concatenate([line, _walk_keys(ray, b.radius)]))


def path_in_ball(spec: PathSpec, b: Ball) -> set[Configuration]:
    """Exact set of vertices of the (possibly infinite) path in the ball.

    For the infinite kinds every stage that can reach the ball is
    enumerated (all lie below 2**radius).
    """
    keys = _path_keys_in_ball(spec, b)
    return {b.unpack(int(k)) for k in keys}


def _packed_distance(keys: np.ndarray, off: int, vmask: int, vcur: int) -> np.ndarray:
    """word_distance from each packed key to the probe (vmask, vcur),
    whose lamp p sits at bit p + off of vmask as in the keys.

    The closed form on the lamp words: one toggle per differing lamp,
    plus the travel 2 * (hi - lo) - |c - vcur| over the hull [lo, hi] of
    both cursors and the differing lamps.  The top differing bit is
    counted from the bit-smeared word: a float64 log2 rounds words near
    2**57 up a bit.
    """
    cur = (keys & _CUR_MASK).astype(np.int64) - off
    diff = (keys >> np.uint64(_CUR_BITS)) ^ np.uint64(vmask)
    smear = diff.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        smear |= smear >> np.uint64(shift)
    lowest = np.bitwise_count(diff ^ (diff - np.uint64(1))).astype(np.int64) - 1 - off
    top = np.bitwise_count(smear).astype(np.int64) - 1 - off
    lo, hi = np.minimum(cur, vcur), np.maximum(cur, vcur)
    lit = diff != 0
    lo = np.where(lit, np.minimum(lo, lowest), lo)
    hi = np.where(lit, np.maximum(hi, top), hi)
    return np.bitwise_count(diff).astype(np.int64) + 2 * (hi - lo) - np.abs(cur - vcur)


def _walk_distance(v: Configuration, walk: Walk, off: int) -> int:
    """Min word distance from v to the walk when it is at most off, else
    some larger value: the walk is packed relative to v, and a vertex
    outside the radius-off window lies more than off from v."""
    keys = _walk_keys(walk, off, v)
    return min((int(_packed_distance(keys[lo:lo + _REPLAY_ROWS], off, 0, 0).min())
                for lo in range(0, len(keys), _REPLAY_ROWS)), default=off + 1)


def _distance_to_counter_line(v: Configuration, cap: int) -> int:
    """Min distance from v to the half-quasi-line when at most cap, else
    some larger value.

    Seeded with d(e, v) and the distance to the stage that shows v's
    lamps at positions >= 0, read in a window of radius min(cap,
    _MAX_RADIUS) (a seed past it changes neither t below nor the
    answer).  Every vertex of a stage with origin bound r lies at least r
    from the identity, so at least r - d(e, v) from v; with t = min(best
    - 1, cap), the largest distance still worth finding, only the stages
    of bound <= d(e, v) + t can come closer.  Those within the packing
    window are replayed once and scored in numpy.  If after that a
    distance t >= 0 could still be found past the window (d(e, v) + t >
    _MAX_RADIUS), ResourceLimitError is raised.  A probe with a lamp
    outside the window lies more than _MAX_RADIUS from the identity, so
    it raises unless the seed finds it on the line; its lamp word cannot
    be packed, so it skips the replay.
    """
    d0 = word_distance(IDENTITY, v)
    plus = sum(1 << p for p in v.lamps if p >= 0)
    best = min(d0, _walk_distance(v, stage_walk(plus), min(cap, _MAX_RADIUS)))
    off = _MAX_RADIUS
    t = min(best - 1, cap)
    if t >= 0 and all(abs(p) <= off for p in v.lamps):
        vmask = sum(1 << (p + off) for p in v.lamps)
        for keys in _line_keys(min(d0 + t, off), off):
            best = min(best, int(_packed_distance(keys, off, vmask, v.cursor).min()))
        t = min(best - 1, cap)
    if t >= 0 and d0 + t > _MAX_RADIUS:
        raise ResourceLimitError(
            f"distance from {v!r} to the half-quasi-line needs stages"
            f" past the packing window ({_MAX_RADIUS})"
        )
    return best


def distance_to_path(v: Configuration, spec: PathSpec, cap: int):
    """Min word distance from v to the path if at most cap, else EXCEEDS.

    I, C and the quasi-line's negative ray are packed relative to v (the
    keys of v^-1 w) in a window of radius min(cap, 28) and scored by the
    closed form.  The infinite kinds replay, in one pass, every stage of
    origin bound at most d(e, v) + min(cap, best - 1), where best is the
    distance to the stage that shows v's lamps at positions >= 0.
    Raises ResourceLimitError when a stage that could still come closer
    lies past the packing window (d(e, stage) > 28), when v has a lamp
    beyond +-28 and is not on the stage that shows its lamps at
    positions >= 0, or, for I and C with cap > 28, when no vertex of the
    walk lies within 28 of v.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    off = min(cap, _MAX_RADIUS)
    if spec.kind in ("I", "C"):
        best = _walk_distance(v, path_walk(spec.kind, spec.n), off)
        if best > off and off < cap:
            raise ResourceLimitError(
                f"distance from {v!r} to {spec.kind}{spec.n} needs vertices"
                f" past the packing window ({_MAX_RADIUS})"
            )
    else:
        best = _distance_to_counter_line(v, cap)
        if spec.kind == "R":
            d0 = word_distance(IDENTITY, v)
            # ray vertices sit at distance 2i and 2i+1 from the identity,
            # and one that comes closer than best lies within off of v
            max_anchor = max(0, (d0 + min(best - 1, cap)) // 2 + 1)
            best = min(best, _walk_distance(v, quasi_line(max_anchor, 0), off))
    return best if best <= cap else EXCEEDS


@dataclass(frozen=True)
class Component:
    """One connected piece of the ball after removal."""

    id: int
    size: int
    representative: Configuration
    max_distance_to_obstacle: int | None


def _flood(b: Ball, start: np.ndarray, seen: np.ndarray) -> Iterator[np.ndarray]:
    """Breadth-first levels through the ball graph, its toggles and links.

    Yields the start positions, then each level's unseen neighbours, as
    int32 positions in the key table (start must be int32 too), and marks
    every yielded position in seen.  A level is expanded _REPLAY_ROWS
    positions at a time: each slice's unseen neighbours are deduplicated
    and marked seen at once, so the next slice skips them, and the next
    level is the slices one after another, each sorted but not merged:
    no depth, size, representative or probe id depends on the order
    within a level.
    """
    tog, link = b.toggles, b.links
    seen[start] = True
    frontier = start
    while len(frontier):
        yield frontier
        slices = []
        for lo in range(0, len(frontier), _REPLAY_ROWS):
            part = frontier[lo:lo + _REPLAY_ROWS]
            flipped = tog[part]
            cand = np.concatenate([
                flipped[flipped >= 0],
                part[link[part + 1]] + 1,
                part[link[part]] - 1,
            ])
            cand = _unique(cand[~seen[cand]])
            seen[cand] = True
            slices.append(cand)
        frontier = np.concatenate(slices)


def _neighborhood(b: Ball, source_keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the ball positions within k of the sources, and each
    position's distance to the sources (int8, -1 where unreached), by one
    flood from the sources.  Any two members are joined through the
    center inside the ball, so the flood reaches every member at most 2 *
    radius <= 56 away, or none of them without sources.

    A kept position's depth below the neighborhood is its distance minus
    k: in a connected graph the distance to the k-neighborhood of a set
    is the distance to the set minus k.  Callers subtract k as Python
    ints, so no k overflows the int8 distances.  The mask is the flood's
    seen buffer, refilled by one comparison on the distances read as
    uint8 against min(k, 2 * radius), so an unreached -1 (255) stays kept.
    """
    dist = np.full(len(b.keys), -1, dtype=np.int8)
    seen = np.zeros(len(b.keys), dtype=bool)
    start = np.searchsorted(b.keys, source_keys).astype(np.int32)
    for level, pos in enumerate(_flood(b, start, seen)):
        dist[pos] = level
    np.less_equal(dist.view(np.uint8), min(k, 2 * b.radius), out=seen)
    return seen, dist


def _decompose(
    b: Ball, removed: np.ndarray, dist: np.ndarray, k: int, probes: list[int]
) -> tuple[list[int], list[Component]]:
    """Component id of each probe position (all kept) and the components
    of the ball minus the removed positions.

    Each component is flooded from the smallest key not yet seen, so
    component 0 holds the smallest kept key, component 1 the next, and
    so on (canonical configuration order: lamp pattern as a binary
    value, then cursor).  The seed scan walks the table once,
    _REPLAY_ROWS positions at a time.  A probe's id is that of the first
    component whose flood marks its position seen.  A component's depth
    is its largest distance to the sources minus k (dist and k as from
    _neighborhood), None when the sources reach none of it.  The floods
    mark the removed mask itself as seen, so it reads all True afterwards.
    """
    keys = b.keys
    seen = removed
    ids = [-1] * len(probes)
    comps: list[Component] = []
    for lo in range(0, len(keys), _REPLAY_ROWS):
        for start in lo + np.flatnonzero(~seen[lo:lo + _REPLAY_ROWS]):
            if seen[start]:
                continue
            size, deepest = 0, -1
            for level in _flood(b, np.array([start], dtype=np.int32), seen):
                size += len(level)
                deepest = max(deepest, int(dist[level].max()))
            ids = [len(comps) if i < 0 and seen[pos] else i for i, pos in zip(ids, probes)]
            comps.append(Component(
                id=len(comps),
                size=size,
                representative=b.unpack(keys[start]),
                max_distance_to_obstacle=None if deepest < 0 else deepest - k,
            ))
    return ids, comps


def components_after_removal(b: Ball, removed: Iterable[Configuration]) -> list[Component]:
    """Connected components of the ball minus a removed vertex set.

    Removed configurations outside the ball are ignored.  Deepness is the
    maximum ball-graph distance from the removed set; None when nothing
    was removed.
    """
    keys = np.array([k for k in map(b.pack, removed) if k is not None], dtype=np.uint64)
    return _decompose(b, *_neighborhood(b, _members(b, keys), 0), 0, [])[1]


@dataclass(frozen=True)
class ProbePlacement:
    """Where one probe landed in the decomposition."""

    config: Configuration
    component_id: int
    distance_to_obstacle: int | None


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of removing an obstacle neighborhood around a path.

    Everything is ball-local: the obstacle is the path intersected with
    the ball, the K-neighborhood is taken inside the ball graph, and the
    verdict says whether the probes fall in distinct components of what
    remains.  A verdict of separated-in-ball is evidence at radius R,
    not a statement about the whole group.
    """

    path: PathSpec
    k_neighborhood: int
    radius: int
    ball_size: int
    obstacle_size: int
    components: tuple[Component, ...]
    probes: tuple[ProbePlacement, ...]
    verdict: str

    def to_dict(self) -> dict:
        def cfg(c: Configuration) -> dict:
            return {"cursor": c.cursor, "lamps": c.sorted_lamps()}

        return {
            "obstacle": {
                "kind": self.path.kind,
                "n": self.path.n,
                "size_in_ball": self.obstacle_size,
            },
            "K": self.k_neighborhood,
            "radius": self.radius,
            "ball_size": self.ball_size,
            "components": [
                {
                    "id": c.id,
                    "size": c.size,
                    "representative": cfg(c.representative),
                    "max_distance_to_obstacle": c.max_distance_to_obstacle,
                }
                for c in self.components
            ],
            "probes": [
                {
                    "config": cfg(p.config),
                    "component": p.component_id,
                    "distance_to_obstacle": p.distance_to_obstacle,
                }
                for p in self.probes
            ],
            "verdict": self.verdict,
        }


def separation_report(
    spec: PathSpec,
    k_neighborhood: int,
    radius: int,
    probe_a: Configuration,
    probe_b: Configuration,
    *,
    prebuilt_ball: Ball | None = None,
) -> SeparationReport:
    """Remove the K-neighborhood of a path from a ball and place probes.

    Raises ProbeOutsideBallError or ProbeInsideObstacleError when a probe
    cannot be placed, and ResourceLimitError when the ball would exceed
    the member cap.
    """
    if k_neighborhood < 0:
        raise ValueError("K must be nonnegative")
    b = prebuilt_ball if prebuilt_ball is not None else ball(IDENTITY, radius)
    if b.radius != radius or b.center != IDENTITY:
        raise ValueError("prebuilt ball does not match the requested radius")
    probe_positions = [b._position(p) for p in (probe_a, probe_b)]
    for p, pos in zip((probe_a, probe_b), probe_positions):
        if pos < 0:
            raise ProbeOutsideBallError(f"probe {p!r} is outside ball(e, {radius})")
    removed, dist = _neighborhood(b, _path_keys_in_ball(spec, b), k_neighborhood)
    for p, pos in zip((probe_a, probe_b), probe_positions):
        if removed[pos]:
            raise ProbeInsideObstacleError(
                f"probe {p!r} lies in the removed obstacle neighborhood"
            )
    ids, comps = _decompose(b, removed, dist, k_neighborhood, probe_positions)
    placements = []
    for p, pos, comp_id in zip((probe_a, probe_b), probe_positions, ids):
        # the in-ball distance to the obstacle bounds d(p, path) from
        # above, and a path of length <= R - d(e, p) from p stays in the
        # ball, so d_ball <= R - d(e, p) + 1 is exact (-1: unreached)
        d_ball = int(dist[pos])
        if 0 <= d_ball <= radius - word_distance(IDENTITY, p) + 1:
            d = d_ball if d_ball <= radius else EXCEEDS
        else:
            d = distance_to_path(p, spec, cap=radius)
        placements.append(ProbePlacement(p, comp_id, None if d is EXCEEDS else int(d)))
    verdict = (
        "separated-in-ball"
        if placements[0].component_id != placements[1].component_id
        else "connected-in-ball"
    )
    return SeparationReport(
        path=spec,
        k_neighborhood=k_neighborhood,
        radius=radius,
        ball_size=b.member_count,
        obstacle_size=b.member_count - sum(c.size for c in comps),
        components=tuple(comps),
        probes=tuple(placements),
        verdict=verdict,
    )


@dataclass(frozen=True)
class DistortionProfile:
    """Max index gap per ambient distance bound along one path.

    entries[M] is the largest index gap (linear for open paths, cyclic
    for circles) over vertex pairs at word distance at most M.
    """

    kind: str
    n: int | None
    index_limit: int
    m_max: int
    metric_mode: str
    entries: tuple[int, ...]

    def csv_text(self) -> str:
        lines = ["M,D"]
        for m, d in enumerate(self.entries):
            lines.append(f"{m},{d}")
        return "\n".join(lines) + "\n"


def _lamp_columns(cursors: np.ndarray, low: int, words: int) -> Iterator[np.ndarray]:
    """Word j = 0..words - 1 of the lamps of each vertex of the walk with
    these cursors from no lamp lit, lamp p at bit (p + low) % 64 of word
    (p + low) // 64 (low must keep every cursor at a bit >= 0), one uint64
    column at a time.  A toggle sits wherever the cursor repeats: the
    toggles' bits that fall in word j are xor-accumulated down the
    column."""
    at = np.flatnonzero(cursors[1:] == cursors[:-1]) + 1
    lamp = cursors[at] + low
    for j in range(words):
        col = np.zeros(len(cursors), dtype=np.uint64)
        here = lamp >> 6 == j
        col[at[here]] = np.uint64(1) << (lamp[here] & 63).astype(np.uint64)
        np.bitwise_xor.accumulate(col, out=col)
        yield col


def _split_columns(columns: Iterable[np.ndarray], word: np.ndarray, bit: np.ndarray,
                   mask: np.ndarray, windows: np.ndarray) -> Iterator[np.ndarray]:
    """Each of the word columns j = 0, 1, ... of the vertices' lamps,
    repeated once per window, with the window's bits cleared.  Window i
    covers bits bit[i] .. bit[i] + w - 1 of word word[i] and on into the
    next word, of vertex i % len(column) (mask = 2**w - 1, w < 64);
    windows[i] collects its bits as the columns pass."""
    one, top = np.uint64(1), np.uint64(63)
    for j, col in enumerate(columns):
        if len(word) > len(col):
            col = np.tile(col, len(word) // len(col))
        for lo in range(0, len(col), _REPLAY_ROWS):
            part, w, b = (x[lo:lo + _REPLAY_ROWS] for x in (col, word, bit))
            low = np.where(w == j, mask << b, 0)  # the window's bits in this word
            high = np.where(w == j - 1, (mask >> one) >> (top - b), 0)  # in the next
            windows[lo:lo + _REPLAY_ROWS] |= ((part & low) >> b) | (((part & high) << one) << (top - b))
            part &= ~(low | high)
        yield col


def _rank_rows(columns: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Ids of the rows of a table given as uint64 columns, which are
    overwritten, one column at a time: the first n rows get dense ids,
    equal exactly for equal rows, and every later row the id of the
    equal row among them, -1 where there is none.

    The columns are folded left to right: each column is ranked among the
    distinct values of its first n entries, then each (id so far, column
    rank) pair, packed in one word, among the distinct pairs of the first
    n rows, each by a sort and searchsorted.  A rank is below n, so a row
    without a match packs to a pair above every pair of the first n rows
    and stays at -1.
    """
    def rank(values):  # in place
        distinct = _unique(values[:n])
        for lo in range(0, len(values), _REPLAY_ROWS):
            part = values[lo:lo + _REPLAY_ROWS]
            part[:] = _find(distinct, part).view(np.uint64)
        return values

    half = np.uint64(32)
    ids = None
    for col in columns:
        col = rank(col)
        if ids is not None:
            ids <<= half
            ids |= col
            col = rank(ids)
        ids = col
    return ids.view(np.int64)


def _join_block(m_max: int, n: int, whole: int) -> int:
    """Anchor block of the profile join's keys: whole, one block that
    holds every vertex and translate, whose window then holds every lamp,
    so that every outside id is 0, when that key fits 64 bits; else the
    widest block whose key (outside id below n, cursor offset and lamp
    window) fits."""
    def fits(block, id_bits):
        return id_bits + (block - 1).bit_length() + block + m_max + m_max // 2 <= 64

    if fits(whole, 0):
        return whole
    id_bits = (n - 1).bit_length()
    for block in range(min(whole, 64), 0, -1):
        if fits(block, id_bits):
            return block
    raise ResourceLimitError(f"a profile join key of {n} vertices at M={m_max} needs more than 64 bits")


def _join_profile(walk: Walk, n: int, cyclic: bool, m_max: int) -> tuple[int, ...]:
    """Exact D(0..m_max) over all pairs of the first n vertices of a
    simple walk.

    d(v_i, v_j) = |v_i^-1 v_j|, so the pairs at distance d are those with
    v_j = v_i g for g in the sphere S(e, d).  Members with cursor < 0 are
    skipped: g^-1 finds the pairs of g with the ends swapped, and a
    member with cursor 0 is its own inverse.  The distances do not change
    when every vertex is multiplied by one element on the left, so the
    walk is read from its first cursor with no lamp lit: every lamp then
    lies at a cursor.

    Keys.  Cursor offsets c (from the lowest cursor) lie on a grid of
    anchors A = block * a, and a vertex belongs to anchor a = c // block.
    Its key packs, from the top: an exact id of its anchor and its lamps
    outside the anchor's window [A - m_max, A + block - 1 + m_max // 2],
    then c - A, then the lamps inside the window.  The id is the dense
    rank of the lamp rows with the window cleared (_rank_rows), so one key
    scheme serves every walk, however far its lamps spread.  When one
    block holds the whole walk, its window holds every lamp, every id is
    0 and the key is the walk's lamp word (_join_block picks the block).
    The lamps come from the cursors in numpy (_lamp_columns).  The keys
    are sorted, and each vertex is placed in the sorted table by
    searchsorted.

    Translates.  A member g with d(g) <= M and cursor c_g >= 0 has its
    lamps in a hull [lo, hi] around 0 and c_g with 2 (hi - lo) - c_g <= M,
    so v_i g changes only lamps in [t - M, t + M // 2] around its cursor t
    = c_i + c_g, all inside the window of t's anchor A'.  Its key is then
    v_i's outside id and window at A' (ranked once per vertex and anchor,
    for the anchors up to A(c_i + M)), t - A', and the window xor g's lamp
    mask shifted by c_i - A'.  The translates of a chunk of vertices, in
    key order so that a member's probes come nearly sorted, by a chunk of
    members are looked up with one searchsorted.
    """
    b = ball(IDENTITY, m_max)
    g_cur = np.empty(len(b.keys), dtype=np.int8)
    g_dist = np.empty(len(b.keys), dtype=np.int8)
    for lo in range(0, len(b.keys), _REPLAY_ROWS):
        part = b.keys[lo:lo + _REPLAY_ROWS]
        g_cur[lo:lo + len(part)] = (part & _CUR_MASK).astype(np.int64) - m_max
        g_dist[lo:lo + len(part)] = _packed_distance(part, m_max, 0, 0)

    offsets = np.array(walk.cursors[:n], dtype=np.int32)
    offsets -= offsets.min()
    span = int(offsets.max()) + m_max + 1  # every vertex and translate cursor lies in 0..span - 1
    block = _join_block(m_max, n, span)
    width = block + m_max + m_max // 2
    anchor = offsets // block
    reach = int(((offsets + m_max) // block - anchor).max())
    mask = np.uint64((1 << width) - 1)

    # window k * n + i: v_i's window at its own anchor (k = 0, the table)
    # or at the k-th anchor past it, which its translates reach for k <=
    # reach.  Lamp offset p sits at bit p + m_max, so the window of anchor
    # a starts at bit block * a, which also stands for the anchor in the
    # outside rows.
    first = np.concatenate([block * (anchor + k) for k in range(reach + 1)]).astype(np.uint64)
    words = int(first.max()) // 64 + 2  # each window and lamp ends by the word after the top first bit
    windows = np.zeros(len(first), dtype=np.uint64)
    columns = _split_columns(_lamp_columns(offsets, m_max, words),
                             (first >> np.uint64(6)).astype(np.int32),
                             (first & np.uint64(63)).astype(np.uint8), mask, windows)
    ids = _rank_rows(chain([first], columns), n).astype(np.int32).reshape(reach + 1, n)
    windows = windows.reshape(reach + 1, n)
    del first, columns

    id_shift = np.uint64(width + (block - 1).bit_length())
    keys = ids[0].astype(np.uint64)
    keys <<= id_shift
    keys |= (offsets - block * anchor).astype(np.uint64) << np.uint64(width)
    keys |= windows[0]
    table = np.sort(keys)
    order = np.empty(n, dtype=np.int32)
    order[np.searchsorted(table, keys)] = np.arange(n, dtype=np.int32)
    del keys

    best = [0] * (m_max + 1)
    for c_g in range(m_max + 1):
        members = np.flatnonzero(g_cur == c_g)
        masks = {d: b.keys[members[g_dist[members] == d]] >> np.uint64(_CUR_BITS)
                 for d in range(1, m_max + 1)}
        for v_lo in range(0, n, _REPLAY_ROWS):
            src = order[v_lo:v_lo + _REPLAY_ROWS]
            a = (offsets[src] + c_g) // block
            k = a - anchor[src]
            keep = np.flatnonzero(ids[k, src] >= 0)
            src, a, k = src[keep], a[keep], k[keep]
            if not len(src):
                continue
            lift = offsets[src] - block * a  # c_i - A', at least -c_g
            probe = ((ids[k, src].astype(np.uint64) << id_shift) | windows[k, src]
                     | ((lift + c_g).astype(np.uint64) << np.uint64(width)))
            right = np.maximum(-lift, 0).astype(np.uint8)
            left = np.maximum(lift, 0).astype(np.uint8)
            rows_per = max(1, _REPLAY_ROWS // len(src))
            for d, g_masks in masks.items():
                for lo in range(0, len(g_masks), rows_per):
                    probes = ((g_masks[lo:lo + rows_per, None] >> right) << left) ^ probe
                    pos = _find(table, probes.ravel())
                    hit = np.flatnonzero(pos >= 0)
                    if len(hit):
                        gap = np.abs(order[pos[hit]] - src[hit % len(src)])
                        if cyclic:
                            gap = np.minimum(gap, n - gap)
                        best[d] = max(best[d], int(gap.max()))
    return tuple(accumulate(best, max))


def check_m_max(m_max: int) -> None:
    """Reject an m_max whose ball B(e, m_max) cannot be packed."""
    if not 0 <= m_max <= _MAX_RADIUS:
        raise ValueError(f"m_max {m_max} is outside 0..{_MAX_RADIUS} (the ball's packing window)")


def distortion_profile(spec: PathSpec, index_limit: int, m_max: int) -> DistortionProfile:
    """Distortion along a path: D(M) = max index gap at word distance
    <= M, for M = 0..m_max, exact over all vertex pairs.

    Computed by joining the walk with its translates by B(e, m_max), so
    the cost grows as |B(e, m_max)| times the walk length.
    """
    cyclic = spec.kind == "C"
    if index_limit < 2 and not cyclic:
        raise ValueError("index_limit must be at least 2")
    check_m_max(m_max)
    walk = path_walk(spec.kind, spec.n, index_limit)
    # circles are always profiled whole, without the repeated base:
    # truncating a cycle breaks the cyclic gap metric
    n = walk.step_count if cyclic else min(index_limit, walk.step_count) + 1
    return DistortionProfile(
        kind=spec.kind,
        n=spec.n,
        index_limit=walk.step_count if cyclic else index_limit,
        m_max=m_max,
        metric_mode="cyclic" if cyclic else "linear",
        entries=_join_profile(walk, n, cyclic, m_max),
    )


@dataclass(frozen=True)
class CircleFamilyDistortion:
    """Pointwise-max distortion over a family of quasi-circles."""

    n_values: tuple[int, ...]
    m_max: int
    profiles: dict[int, DistortionProfile]
    h: tuple[int, ...]
    attaining: tuple[int, ...]

    def csv_text(self) -> str:
        lines = ["M,D,n_attaining"]
        for m in range(len(self.h)):
            lines.append(f"{m},{self.h[m]},{self.attaining[m]}")
        return "\n".join(lines) + "\n"


def circle_family_distortion(n_values: Iterable[int], m_max: int) -> CircleFamilyDistortion:
    """Cyclic distortion profile of each circle plus the family maximum.

    h[M] is the largest D(M) over the family; attaining[M] is the
    smallest n reaching it.  A family whose h stops changing as larger
    circles join behaves like circles of bounded distortion.
    """
    ns = sorted(set(n_values))
    if not ns:
        raise ValueError("need at least one circle")
    if any(n < 1 or n > 6 for n in ns):
        raise ValueError("circle scales must be within 1..6")
    profiles = {
        n: distortion_profile(PathSpec("C", n), intrinsic_step_count("C", n), m_max)
        for n in ns
    }
    h = tuple(map(max, zip(*(p.entries for p in profiles.values()))))
    attaining = tuple(next(n for n in ns if profiles[n].entries[m] == top)
                      for m, top in enumerate(h))
    return CircleFamilyDistortion(
        n_values=tuple(ns),
        m_max=m_max,
        profiles=profiles,
        h=h,
        attaining=attaining,
    )
