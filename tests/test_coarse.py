"""Coarse layer: packed balls, path membership, components, distortion."""

import ast
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamplighter import (
    EXCEEDS,
    IDENTITY,
    Configuration,
    ProbeInsideObstacleError,
    ProbeOutsideBallError,
    ResourceLimitError,
    ball,
    bfs_ball,
    circle_family_distortion,
    components_after_removal,
    compose,
    distance_to_path,
    distortion_profile,
    half_quasi_line,
    invert,
    neighbors,
    path_in_ball,
    probes,
    quasi_circle,
    quasi_interval,
    quasi_line,
    separation_report,
    stage_config,
    stage_walk,
    word_distance,
)
from lamplighter import coarse
from lamplighter.coarse import PathSpec
from lamplighter.group import sphere_sizes
from lamplighter.walks import Walk, intrinsic_step_count, path_walk, trailing_ones

from conftest import oracle_members, traced_peak

BALL_SIZES = [1, 4, 10, 22, 44, 84, 155, 278, 490]


def all_pairs_profile(vertices, cyclic, m_max):
    """D(0..m_max) by the closed-form distance of every vertex pair."""
    n = len(vertices)
    best = [0] * (m_max + 1)
    for i, j in itertools.combinations(range(n), 2):
        d = word_distance(vertices[i], vertices[j])
        if d <= m_max:
            gap = min(j - i, n - (j - i)) if cyclic else j - i
            best[d] = max(best[d], gap)
    return tuple(itertools.accumulate(best, max))


def _profile(spec, index_limit):
    return lambda m: distortion_profile(spec, index_limit, m).entries


JOIN_CASES = {  # name: (profile at M, the same vertices, cyclic)
    "N300": (_profile(PathSpec("N"), 300), lambda: half_quasi_line(300).vertices, False),
    "R300": (_profile(PathSpec("R"), 300), lambda: quasi_line(75, 150).vertices, False),
    "I1": (_profile(PathSpec("I", 1), 300), lambda: quasi_interval(1).vertices, False),
    "C1": (_profile(PathSpec("C", 1), 300), lambda: quasi_circle(1).vertices[:-1], True),
    "C2": (_profile(PathSpec("C", 2), 300), lambda: quasi_circle(2).vertices[:-1], True),
    "R150": (lambda m: coarse._join_profile(quasi_line(150, 150), 301, False, m),
             lambda: quasi_line(150, 150).vertices[:301], False),
    "N40": (_profile(PathSpec("N"), 40), lambda: half_quasi_line(40).vertices, False),
    "R40": (_profile(PathSpec("R"), 40), lambda: quasi_line(10, 20).vertices, False),
}


def key_distances(b):
    """Each member's distance from the center, by the closed form on its
    key, in key order."""
    return coarse._packed_distance(b.keys, b.radius, 0, 0)


def key_sphere_sizes(b):
    """Member counts per distance 0..radius, by the closed form on the keys."""
    return np.bincount(key_distances(b), minlength=b.radius + 1).tolist()


@pytest.fixture(scope="module")
def shells_by_scan():
    """The stages below 2**23 by origin bound popcount(H) + 2 * bitlen(H)
    + k, for the bounds below 23, by a plain scan: every stage of bound r
    lies below 2**r."""
    found = [[] for _ in range(23)]
    for s in range(1 << 23):
        k = (s ^ (s + 1)).bit_length() - 1
        h = s >> (k + 1)
        r = h.bit_count() + 2 * h.bit_length() + k
        if r < 23:
            found[r].append(s)
    return found


@pytest.fixture(scope="module")
def ball6():
    return ball(IDENTITY, 6)


class TestBall:
    def test_sizes_match_sphere_growth(self):
        for r, want in enumerate(BALL_SIZES):
            assert ball(IDENTITY, r).member_count == want

    @pytest.mark.parametrize("radius", range(10))
    def test_agrees_with_reference_bfs(self, radius):
        # members from the packed BFS, distances from the oracle and from
        # the closed form on the keys, against the dict BFS and its levels
        b = ball(IDENTITY, radius)
        members = dict(oracle_members(b))
        assert members == bfs_ball(IDENTITY, radius)
        assert key_distances(b).tolist() == list(members.values())

    def test_sphere_sizes(self, ball6):
        sizes = key_sphere_sizes(ball6)
        assert list(sizes) == [1, 3, 6, 12, 22, 40, 71]
        assert sum(sizes) == BALL_SIZES[6]

    def test_membership_and_distance(self, ball6):
        v = Configuration([1], 0)
        assert v in ball6
        assert Configuration([], 7) not in ball6

    def test_pack_unpack_round_trip(self, ball6):
        for v, _ in oracle_members(ball6):
            assert ball6.unpack(ball6.pack(v)) == v

    def test_centered_ball_is_translate(self):
        g = Configuration([2, -1], 1)
        b = ball(g, 3)
        assert dict(oracle_members(b)) == {compose(g, v): d for v, d in bfs_ball(IDENTITY, 3).items()}

    @given(st.sets(st.integers(-40, 40), max_size=10), st.integers(-40, 40),
           st.sets(st.integers(-12, 12), max_size=10), st.integers(-12, 12), st.integers(0, 10))
    @example(set(), 0, {-3, 3}, 2, 3)
    def test_pack_is_the_key_of_the_translate(self, c_lamps, c_cursor, h_lamps, h_cursor, r):
        # g = c h for a center c and a configuration h with lamps on both
        # sides of its cursor, some of them outside the radius-r window
        c = Configuration(c_lamps, c_cursor)
        g = compose(c, Configuration(h_lamps, h_cursor))
        empty = np.array([], dtype=np.uint64)
        centered = coarse.Ball(c, r, empty)
        key = centered.pack(g)
        assert key == coarse.Ball(IDENTITY, r, empty).pack(compose(invert(c), g))
        if key is not None:
            assert centered.unpack(key) == g

    def test_radius_window_guard(self):
        with pytest.raises(ValueError, match="packing window"):
            ball(IDENTITY, 29)

    def test_member_cap(self):
        with pytest.raises(ResourceLimitError, match="member cap"):
            ball(IDENTITY, 8, member_cap=100)

    @pytest.mark.parametrize("radius", [12, 20])
    def test_sphere_count_matches_bfs(self, radius):
        assert list(sphere_sizes(radius)) == key_sphere_sizes(ball(IDENTITY, radius))

    def test_member_cap_is_counted_before_any_level(self, monkeypatch):
        assert ball(IDENTITY, 8, member_cap=490).member_count == 490

        def no_level(keys):
            raise AssertionError("a BFS level was built before the cap was checked")

        monkeypatch.setattr(coarse, "_neighbor_keys", no_level)
        with pytest.raises(ResourceLimitError, match=r"ball\(radius=8\) exceeds member cap 489"):
            ball(IDENTITY, 8, member_cap=489)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_bfs_count_is_checked_against_the_closed_form(self, delta, monkeypatch):
        # the levels are written into an array of the closed-form count:
        # a count one off either way raises instead of writing past it
        count = coarse.ball_member_count
        monkeypatch.setattr(coarse, "ball_member_count", lambda r, cap: count(r, cap) + delta)
        with pytest.raises(RuntimeError, match=r"ball\(radius=10\) BFS"):
            ball(IDENTITY, 10)

    def test_closed_form_matches_bfs_at_radius_20(self):
        b = ball(IDENTITY, 20)
        assert b.member_count == 229_735
        dists = key_distances(b)
        assert [(g, d) for (g, want), d in zip(oracle_members(b), dists.tolist()) if want != d] == []
        # the BFS fixes every member's level: the members the closed form
        # puts within r of e are exactly the members of the BFS ball of
        # radius r, moved into the radius-20 window; the closed form on
        # each of those balls' own keys counts the same levels
        small = ball(IDENTITY, 6)
        assert rewindow(small.keys, 6, 20).tolist() == [b.pack(g) for g, _ in oracle_members(small)]
        sizes = key_sphere_sizes(b)
        for r in range(21):
            inner = ball(IDENTITY, r)
            assert np.array_equal(rewindow(inner.keys, r, 20), b.keys[dists <= r])
            assert key_sphere_sizes(inner) == sizes[: r + 1]


def rewindow(keys, r, to):
    """Keys of a radius-r ball around e, repacked as keys of a radius-to
    ball (the same members, in the same order)."""
    shift = np.uint64(to - r)
    return (keys >> np.uint64(coarse._CUR_BITS) << shift << np.uint64(coarse._CUR_BITS)) | (
        (keys & coarse._CUR_MASK) + shift
    )


def packed_stage_replay(stage, off):
    """Packed keys of the vertices of stage_walk(stage), one by one."""
    return [
        (sum(1 << (p + off) for p in v.lamps) << coarse._CUR_BITS) | (v.cursor + off)
        for v in stage_walk(stage).vertices
    ]


def drop_repeats(keys):
    return [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]


class TestPackedKernels:
    OFF = 24  # room for every lamp and cursor of stages below 2**24

    def assert_replays_match(self, stages):
        stages = np.array(stages, dtype=np.uint64)
        ones = np.array([trailing_ones(s) for s in stages.tolist()])
        for k in sorted(set(ones.tolist())):
            group = stages[ones == k]
            rows = coarse._replay_stages(group, k, self.OFF).tolist()
            for stage, row in zip(group.tolist(), rows):
                expected = packed_stage_replay(stage, self.OFF)
                # a gated toggle with its bit clear repeats a vertex
                assert drop_repeats(row) == expected, stage

    def test_packed_distance_matches_word_distance_at_the_window_edge(self):
        r = coarse._MAX_RADIUS
        rng = random.Random(5)
        configs = [
            Configuration(rng.sample(range(-r, r + 1), rng.randint(0, 2 * r + 1)),
                          rng.randint(-r, r))
            for _ in range(300)
        ]
        configs += [IDENTITY, Configuration([-r, r], r), Configuration(range(-r, r + 1), -r)]
        keys = np.array([
            (sum(1 << (p + r) for p in w.lamps) << coarse._CUR_BITS) | (w.cursor + r)
            for w in configs
        ], dtype=np.uint64)
        for v in configs:
            vmask = sum(1 << (p + r) for p in v.lamps)
            got = coarse._packed_distance(keys, r, vmask, v.cursor).tolist()
            assert got == [word_distance(v, w) for w in configs], v

    def test_origin_bound_is_below_every_stage_vertex(self):
        bound = {}  # the first radius whose enumeration holds the stage
        for r in itertools.count():
            for stages in coarse._line_stages(r).values():
                for n in stages[stages < 1 << 12].tolist():
                    bound.setdefault(n, r)
            if len(bound) == 1 << 12:
                break
        nearest = [min(word_distance(IDENTITY, w) for w in stage_walk(n).vertices)
                   for n in range(1 << 12)]
        assert [n for n in range(1 << 12) if bound[n] > nearest[n]] == []
        assert sum(bound[n] == d for n, d in enumerate(nearest)) == 2049  # tight on these

    @pytest.mark.parametrize("r", range(23))
    def test_survivor_enumeration_matches_the_scan(self, r, shells_by_scan):
        got = sorted(s for stages in coarse._line_stages(r).values() for s in stages.tolist())
        assert got == sorted(s for shell in shells_by_scan[:r + 1] for s in shell)

    def test_shell_stages_lie_below_two_to_the_r_with_k_trailing_ones(self):
        for r in range(25):
            line = coarse._line_stages(r)
            assert list(line) == list(range(r + 1))  # 2**k - 1 has bound k
            for k, stages in line.items():
                assert stages.dtype == np.uint64 and len(stages)
                assert int(stages.max()) < 1 << r, (r, k)
                assert all(trailing_ones(s) == k for s in stages.tolist()), (r, k)
                assert len(set(stages.tolist())) == len(stages), (r, k)

    def test_neighbor_table_matches_searchsorted(self, monkeypatch):
        keys = ball(IDENTITY, 12).keys
        want = []
        for nbr in coarse._neighbor_keys(keys):
            pos = np.minimum(np.searchsorted(keys, nbr), len(keys) - 1)
            want.append(np.where(keys[pos] == nbr, pos, -1))
        index = np.arange(len(keys))
        for rows in (7, 1 << 14):  # both columns are built rows keys at a time
            monkeypatch.setattr(coarse, "_REPLAY_ROWS", rows)
            b = coarse.Ball(IDENTITY, 12, keys)
            tog, link = b.toggles, b.links
            assert tog.dtype == np.int32
            assert np.array_equal(tog, want[0])
            assert np.array_equal(np.where(link[1:], index + 1, -1), want[1])
            assert np.array_equal(np.where(link[:-1], index - 1, -1), want[2])

    def test_given_toggles_are_not_searched(self, monkeypatch):
        b = ball(IDENTITY, 10)
        tog, link = b.toggles, b.links

        def no_search(keys):
            raise AssertionError("the toggle column was searched for")

        monkeypatch.setattr(coarse, "_toggle_column", no_search)
        given = coarse.Ball(IDENTITY, 10, b.keys.copy(), tog.copy())
        assert np.array_equal(given.toggles, tog)
        assert np.array_equal(given.links, link)

    @pytest.mark.parametrize("radius", [0, 1, 12, 28])
    def test_member_count_is_the_closed_form(self, radius):
        assert coarse.ball_member_count(radius, 1 << 40) == sum(sphere_sizes(radius))
        with pytest.raises(ResourceLimitError):
            coarse.ball_member_count(radius, sum(sphere_sizes(radius)) - 1)

    def test_vectorised_replay_matches_stage_steps(self):
        self.assert_replays_match(range(4097))

    def test_vectorised_replay_matches_stage_steps_on_random_stages(self):
        rng = random.Random(11)
        stages = rng.sample(range(1 << 24), 400)
        stages += [(1 << j) - 1 for j in range(1, 25)]  # one stage per k
        self.assert_replays_match(stages)

    @given(st.lists(st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1)), max_size=300))
    @example([])
    def test_unique_matches_numpy(self, values):
        arr = np.array(values, dtype=np.uint64)
        got = coarse._unique(arr)
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.unique(arr))

    def test_find_positions_and_absences(self):
        table = np.array([3, 5, 9, 12], dtype=np.uint64)
        values = np.array([3, 12, 7, 13, 0, 9], dtype=np.uint64)
        assert coarse._find(table, values).tolist() == [0, 3, -1, -1, -1, 2]
        empty = np.array([], dtype=np.uint64)
        assert coarse._find(empty, values).tolist() == [-1] * 6
        assert coarse._find(table, empty).tolist() == []

    @pytest.mark.parametrize(
        "kind,radius,count", [("N", 12, 143), ("R", 12, 155), ("N", 16, 465), ("R", 16, 481)]
    )
    def test_frozen_path_key_counts(self, kind, radius, count):
        keys = coarse._path_keys_in_ball(PathSpec(kind), ball(IDENTITY, radius))
        assert len(keys) == count
        assert np.all(keys[1:] > keys[:-1])

    def test_no_hash_unique_or_scipy_in_the_package(self):
        # numpy's hash-based unique is far slower than a sort on packed keys,
        # a ball is its sorted keys with no column to carry through an
        # argsort, and components are labelled by the ball's own flood, not
        # scipy
        for path in Path(coarse.__file__).parent.glob("*.py"):
            text = path.read_text()
            for token in ("np.unique(", "np.union1d(", "np.argsort(", "scipy"):
                assert token not in text, (path.name, token)
        # the coarse layer reads every walk as packed lamp words, never as
        # one Configuration per vertex, and every separation query has a
        # path and a distance column (no None obstacle or dist)
        text = Path(coarse.__file__).read_text()
        for token in (".vertices", "PathSpec | None", "dist is None"):
            assert token not in text, token
        # a walk is its start and its cursors: no module keeps a step view
        # of it (the Step enum, apply_step, generator, replay, Walk.steps)
        # or Ball.distance, by name, import, definition or attribute; the
        # I/C length is one closed form (no per-stage stage_step_count)
        # and every profile comes from distortion_profile (no _profile_walk).
        # A ball is its keys: no cached distance column (_dists), and no
        # Ball.items or Ball.sphere_sizes to rebuild members or levels from
        # one (group.sphere_sizes is the closed-form count).  Its graph is
        # two named columns, toggles and links (no _neighbors tuple), one
        # flood serves _neighborhood (no _ball_bfs_from), and every scan
        # takes _REPLAY_ROWS rows at a time (no _SCAN_CHUNK), the profile
        # join too (no _PAIR_CHUNK).  verify runs each check in its own
        # worker (no _cpus, _fork_share or _share_results).  The line's
        # keys in a ball are enumerated inside _path_keys_in_ball, their
        # only use (no _counter_line_keys_in_ball).  Walk and ball cache
        # entries have one writer, cli._stored, which commits when its
        # with-block ends normally, so no caller commits (no _Store and no
        # commit).  A walk's distinctness is one VisitedVertices, a cursor
        # mask per lamp set, not a stream of (views, cursor) keys (no
        # keyed_vertices)
        for path in Path(coarse.__file__).parent.glob("*.py"):
            nodes = list(ast.walk(ast.parse(path.read_text())))
            defs = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            names = defs | {node.id for node in nodes if isinstance(node, ast.Name)}
            names |= {name for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                      for a in node.names for name in (a.name, a.asname)}
            attrs = defs | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            attrs |= {stmt.target.id for node in nodes if isinstance(node, ast.ClassDef)
                      for stmt in node.body if isinstance(stmt, ast.AnnAssign)}
            assert not (names | attrs) & {
                "Step", "apply_step", "generator", "replay", "stage_step_count", "_profile_walk",
                "_dists", "_lamp_words", "_ball_bfs_from", "_neighbors", "_SCAN_CHUNK",
                "_PAIR_CHUNK", "_cpus", "_fork_share", "_share_results", "_counter_line_keys_in_ball",
                "_Store", "commit", "keyed_vertices",
            }, path.name
            assert not attrs & {"steps", "distance"}, path.name
            ball_defs = {stmt.name for node in nodes if isinstance(node, ast.ClassDef) and node.name == "Ball"
                         for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
            assert not ball_defs & {"items", "sphere_sizes"}, path.name

    @pytest.mark.parametrize("kind,n", [
        *itertools.product("IC", range(1, 7)), ("R", 5), ("R", 14),
    ])
    def test_walk_keys_match_ball_pack_of_every_vertex(self, kind, n, monkeypatch):
        # kind R is the quasi-line's negative ray out to anchor n
        walk = quasi_line(n, 0) if kind == "R" else path_walk(kind, n)
        vertices = walk.vertices
        lamps = [p for v in vertices for p in v.lamps]
        extent = max(abs(p) for p in [*lamps, *walk.cursors])
        for off in (1, 6, extent):
            window = coarse.Ball(IDENTITY, off, np.array([], dtype=np.uint64))
            want = [key for key in map(window.pack, vertices) if key is not None]
            got = coarse._walk_keys(walk, off)
            assert got.dtype == np.uint64
            assert got.tolist() == want, off
            # on an interval or circle some vertex with its cursor in the
            # window is dropped for a lamp outside it that the packer had
            # to track (the ray clears its lamps in cursor order instead)
            dropped = sum(abs(v.cursor) <= off for v in vertices) - len(want)
            assert (dropped > 0) == (off < extent and walk.kind != "R"), off
        assert len(got) == len(vertices)  # the whole walk fits its extent
        # relative to a probe v the keys are those of v^-1 w: v with a lamp
        # below or above the walk, at -+70 or 10**6 (past the lamp columns,
        # which end at the walk's cursors), or a vertex of the walk moved
        # right (whose window can sit in word 1); slices of a few
        # rows put toggles on the slice boundaries
        low, high = min(*lamps, *walk.cursors), max(*lamps, *walk.cursors)
        moved = compose(vertices[len(vertices) // 2], Configuration([], 3))
        for v in (IDENTITY, Configuration([low - 3], 0), Configuration([high + 2, 0], -1),
                  Configuration([-70], 2), Configuration([70, -1], 0), Configuration([10**6], 0),
                  moved):
            for off in (6, extent) if len(vertices) < 3_000 else ():
                window = coarse.Ball(v, off, np.array([], dtype=np.uint64))
                want = [key for key in map(window.pack, vertices) if key is not None]
                for rows in (5, 64, 1 << 14):
                    monkeypatch.setattr(coarse, "_REPLAY_ROWS", rows)
                    assert coarse._walk_keys(walk, off, v).tolist() == want, (v, off, rows)


class TestPathSpec:
    def test_scale_free_kinds_reject_n(self):
        with pytest.raises(ValueError):
            PathSpec("N", 2)
        with pytest.raises(ValueError):
            PathSpec("R", 1)

    def test_scaled_kinds_require_n(self):
        with pytest.raises(ValueError, match="needs n"):
            PathSpec("I")
        with pytest.raises(ValueError):
            PathSpec("C", 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown path kind"):
            PathSpec("Q")


@pytest.mark.parametrize("call,message", [
    (lambda: coarse.ball_member_count(-1), "radius must be nonnegative"),
    (lambda: path_in_ball(PathSpec("N"), ball(Configuration([], 1), 3)),
     "path enumeration requires a ball centered at the identity"),
    (lambda: distance_to_path(IDENTITY, PathSpec("N"), cap=-1), "cap must be nonnegative"),
    (lambda: separation_report(PathSpec("N"), -1, 6, IDENTITY, IDENTITY), "K must be nonnegative"),
    (lambda: separation_report(PathSpec("N"), 0, 6, IDENTITY, IDENTITY, prebuilt_ball=ball(IDENTITY, 5)),
     "prebuilt ball does not match the requested radius"),
], ids=["negative-radius", "centered-ball", "negative-cap", "negative-k", "ball-of-another-radius"])
def test_input_validation_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def brute_members(vertices, b):
    return {v for v in vertices if v in b}


class TestPathInBall:
    def test_half_line_matches_walk_scan(self, ball6):
        got = path_in_ball(PathSpec("N"), ball6)
        assert got == brute_members(half_quasi_line(3000).vertices, ball6)

    def test_line_matches_walk_scan(self, ball6):
        got = path_in_ball(PathSpec("R"), ball6)
        assert got == brute_members(quasi_line(50, 3000).vertices, ball6)

    @pytest.mark.parametrize("n", [1, 2])
    def test_interval_and_circle_match_walk_scan(self, ball6, n):
        for spec, walk in (
            (PathSpec("I", n), quasi_interval(n)),
            (PathSpec("C", n), quasi_circle(n)),
        ):
            assert path_in_ball(spec, ball6) == brute_members(walk.vertices, ball6)

    def test_every_member_is_at_zero_path_distance(self, ball6):
        for v in path_in_ball(PathSpec("N"), ball6):
            for cap in (0, 2):
                assert distance_to_path(v, PathSpec("N"), cap) == 0, (v, cap)


class TestDistanceToPath:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_probe_sits_n_off_the_half_line(self, n):
        p = probes(n)
        assert distance_to_path(p.a_n, PathSpec("N"), 2 * n) == n
        assert distance_to_path(p.b_n, PathSpec("N"), 2 * n) == n

    @pytest.mark.parametrize("n", [2, 3])
    def test_negative_probe_is_closer_to_the_full_line(self, n):
        assert distance_to_path(probes(n).b_n, PathSpec("R"), 2 * n) == n - 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_interval_probes(self, n):
        p = probes(n)
        assert distance_to_path(p.x_n, PathSpec("I", n), 2 * n) == n
        assert distance_to_path(p.y_n, PathSpec("I", n), 2 * n) == n

    def test_circle_probe(self):
        assert distance_to_path(probes(1).x_n, PathSpec("C", 1), 4) == 1

    def test_on_path_vertices_are_at_zero(self):
        assert distance_to_path(stage_config(5), PathSpec("N"), 4) == 0
        assert distance_to_path(IDENTITY, PathSpec("R"), 4) == 0
        # past the packing window: only the seed stage can answer
        assert distance_to_path(stage_config(1 << 40), PathSpec("N"), 4) == 0

    def test_cap_miss_returns_sentinel(self):
        assert distance_to_path(Configuration([], -9), PathSpec("N"), 4) is EXCEEDS

    def test_matches_brute_scan_on_random_configs(self):
        rng = random.Random(7)
        prefix = half_quasi_line(30_000).vertices
        for _ in range(8):
            v = Configuration(
                rng.sample(range(-3, 6), rng.randint(0, 4)), rng.randint(-4, 4)
            )
            brute = min(word_distance(v, u) for u in prefix)
            got = distance_to_path(v, PathSpec("N"), 8)
            assert got == (brute if brute <= 8 else EXCEEDS)
        # the two-sided line against a prefix that holds every vertex
        # within the cap of these probes (stages below 2**11, anchors out
        # to 13), kept where the replay stays in the packing window
        line = quasi_line(50, 30_000).vertices
        checked = 0
        while checked < 8:
            v = Configuration(rng.sample(range(-6, 5), rng.randint(0, 4)), rng.randint(-5, 4))
            for cap in (3, 6):
                if word_distance(IDENTITY, v) + cap > coarse._MAX_RADIUS:
                    continue
                brute = min(word_distance(v, u) for u in line)
                assert distance_to_path(v, PathSpec("R"), cap) == (
                    brute if brute <= cap else EXCEEDS), (v, cap)
                checked += 1
        # intervals and circles, with probe lamps past the walk's extent
        # [-2n, 4n] and caps up to the packing window
        for kind, n in itertools.product("IC", (1, 2, 3)):
            vertices = path_walk(kind, n).vertices
            for _ in range(8):
                v = Configuration(rng.sample(range(-12, 18), rng.randint(0, 5)),
                                  rng.randint(-9, 14))
                brute = min(word_distance(v, u) for u in vertices)
                for cap in (4, 12, 28):
                    got = distance_to_path(v, PathSpec(kind, n), cap)
                    assert got == (brute if brute <= cap else EXCEEDS), (kind, n, v, cap)

    def test_line_distances_match_a_stage_scan(self):
        # a second code path for the N and R distances, by word_distance
        # over stage walks and the negative ray, with neither _line_stages
        # nor _packed_distance.  Every vertex of stage s >= 1 lies at least
        # floor(log2 s) from e, so with b = d(e, v) + cap + 1 the stages
        # from 2**b on lie more than cap from v, and so does any vertex
        # more than d(e, v) + cap from e (anchors of quasi_line(6, 0) past
        # the sixth, at 2i and 2i + 1, included)
        top = 11  # d(e, v) + cap
        line = []  # (stage, vertex, distance from e) within top of e
        for s in range(1 << (top + 1)):
            for w in stage_walk(s).iter_vertices():
                d = word_distance(IDENTITY, w)
                assert d >= s.bit_length() - 1, (s, w)
                if d <= top:
                    line.append((s, w, d))
        ray = [(0, w, word_distance(IDENTITY, w)) for w in quasi_line(top // 2 + 1, 0).iter_vertices()]
        kinds = (("N", line), ("R", line + ray))
        rng = random.Random(11)
        seen = {"N": [0, 0], "R": [0, 0]}  # (within the cap, past it) per kind
        for _ in range(250):
            v = Configuration(rng.sample(range(-3, 6), rng.randint(0, 5)), rng.randint(-4, 5))
            d0 = word_distance(IDENTITY, v)
            for cap in range(top - d0 + 1):
                for kind, found in kinds:
                    brute = min((word_distance(v, w) for s, w, d in found
                                 if s < 1 << (d0 + cap + 1) and d <= d0 + cap), default=cap + 1)
                    got = distance_to_path(v, PathSpec(kind), cap)
                    assert got == (brute if brute <= cap else EXCEEDS), (kind, v, cap)
                    seen[kind][got is EXCEEDS] += 1
        assert min(seen["N"] + seen["R"]) >= 100, seen

    def test_packing_window_guard(self):
        far = Configuration([], 20)
        with pytest.raises(ResourceLimitError, match="packing window"):
            distance_to_path(far, PathSpec("N"), 40)
        # a lamp past the window: no stage within it can reach the probe
        for lamps in ([-3, 40], [-40]):
            with pytest.raises(ResourceLimitError, match="packing window"):
                distance_to_path(Configuration(lamps, 0), PathSpec("N"), 5)

    @pytest.mark.parametrize("spec,gap", [(PathSpec("I", 1), 0), (PathSpec("C", 1), 1)])
    def test_finite_walks_past_the_packing_window(self, spec, gap):
        # the nearest vertex to a bare cursor far left is the walk's base,
        # which on the circle has lamp 0 lit (one more toggle).  A cap past
        # the window is answered when a vertex lies within 28 of the probe
        # and raises, instead of guessing, when none does
        assert distance_to_path(Configuration([], -20), spec, 40) == 20 + gap
        assert distance_to_path(Configuration([], gap - 28), spec, 40) == 28
        far = Configuration([], gap - 29)
        assert distance_to_path(far, spec, 28) is EXCEEDS
        for v in (far, Configuration([70], 0)):
            with pytest.raises(ResourceLimitError, match="packing window"):
                distance_to_path(v, spec, 29)

    @pytest.mark.parametrize("v,want,witness", [
        (Configuration([], -14), 14, IDENTITY),
        (Configuration([13], 13), 13, stage_config(1 << 13)),
    ])
    def test_far_probes_inside_the_window(self, v, want, witness):
        # the stages that could come closer all lie within the packing
        # window, however many stage indices sit below them
        assert word_distance(v, witness) == want
        assert distance_to_path(v, PathSpec("N"), 14) == want

    @pytest.mark.parametrize("spec", [PathSpec("N"), PathSpec("R")])
    def test_window_is_judged_after_the_replay(self, spec):
        # a line vertex 23 from e whose seed stage is 11 away: the seed
        # alone would ask for stages out to 23 + 10 > 28, but the replay
        # within the window finds the vertex itself
        v = Configuration([-5, 1, 2, 3, 4], 0)
        plus = stage_walk(0b11110).vertices
        assert word_distance(IDENTITY, v) == 23
        assert min(word_distance(v, w) for w in plus) == 11
        assert v in stage_walk(31).vertices
        assert distance_to_path(v, spec, 28) == 0

    @pytest.mark.parametrize("spec", [PathSpec("N"), PathSpec("R"), PathSpec("I", 2), PathSpec("C", 2)])
    def test_matches_ball_bfs_within_the_cap(self, spec):
        # with cap = R - d(e, v), a shortest path from v to the nearest
        # path vertex stays inside ball(e, R), so the ball-graph distance
        # from the path's keys is the word distance to the path
        radius = 14
        b = ball(IDENTITY, radius)
        dist = coarse._neighborhood(b, coarse._path_keys_in_ball(spec, b), 0)[1]
        levels = key_distances(b)
        for d0 in range(radius + 1):
            sphere = np.flatnonzero(levels == d0)
            for pos in sphere[:: max(1, len(sphere) // 5)].tolist():
                cap = radius - d0
                want = int(dist[pos]) if dist[pos] <= cap else EXCEEDS
                v = b.unpack(b.keys[pos])
                assert distance_to_path(v, spec, cap) == want, (v, cap)


def reference_components(b, removed):
    """(size, representative, depth) of each component of b minus the
    removed members, in canonical order, by dict BFS over neighbors.

    Canonical order sorts by the lamp pattern as a binary value, then the
    cursor; depth is the largest ball-graph distance to the removed set.
    """
    members = {v for v, _ in oracle_members(b)}
    removed = set(removed)
    depth = dict.fromkeys(removed, 0)
    frontier = list(removed)
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors(v):
                if u in members and u not in depth:
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = nxt
    seen = set(removed)
    comps = []

    def canonical(v):
        return sum(2 ** (p + b.radius) for p in v.lamps), v.cursor

    for start in sorted(members - removed, key=canonical):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:
            for u in neighbors(v):
                if u in members and u not in seen:
                    seen.add(u)
                    comp.append(u)
        comps.append((len(comp), start, max(depth[v] for v in comp) if removed else None))
    return comps


def within(b, sources, k):
    """Members of b within ball-graph distance k of the sources."""
    out = set(sources)
    for _ in range(k):
        out |= {u for v in out for u in neighbors(v) if u in b}
    return out


class TestComponents:
    @pytest.fixture(params=[7, 1 << 14], ids=["rows7", "rows16384"])
    def rows(self, request, monkeypatch):
        # with 7 rows, every level of these balls spans many flood slices
        monkeypatch.setattr(coarse, "_REPLAY_ROWS", request.param)

    @pytest.mark.parametrize(
        "radius,spec,k,count",
        [(12, PathSpec("N"), 0, 31), (12, PathSpec("N"), 1, 49), (9, PathSpec("C", 1), 0, 29)],
    )
    def test_report_matches_reference_labelling(self, radius, spec, k, count, rows):
        b = ball(IDENTITY, radius)
        p = probes(spec.n or 2)
        pa, pb = (p.a_n, p.b_n) if spec.n is None else (p.x_n, p.y_n)
        rep = separation_report(spec, k, radius, pa, pb, prebuilt_ball=b)
        want = reference_components(b, within(b, path_in_ball(spec, b), k))
        assert len(want) == count
        assert [c.id for c in rep.components] == list(range(count))
        got = [(c.size, c.representative, c.max_distance_to_obstacle) for c in rep.components]
        assert got == want
        if k == 0:
            assert list(rep.components) == components_after_removal(b, path_in_ball(spec, b))

    def test_many_components_match_reference_labelling(self, rows):
        b = ball(IDENTITY, 14)
        odd = [v for v, d in oracle_members(b) if d % 2]
        comps = components_after_removal(b, odd)
        assert len(comps) == 7_247
        assert [c.id for c in comps] == list(range(len(comps)))
        got = [(c.size, c.representative, c.max_distance_to_obstacle) for c in comps]
        assert got == reference_components(b, odd)

    def test_removing_the_center_splits_small_ball(self):
        comps = components_after_removal(ball(IDENTITY, 2), [IDENTITY])
        assert [(c.id, c.size) for c in comps] == [(0, 3), (1, 3), (2, 3)]
        assert [c.representative for c in comps] == [
            Configuration([], -2),
            Configuration([], 1),
            Configuration([0], -1),
        ]
        assert [c.max_distance_to_obstacle for c in comps] == [2, 2, 2]

    def test_no_removal_keeps_one_component(self):
        comps = components_after_removal(ball(IDENTITY, 2), [])
        assert len(comps) == 1
        assert comps[0].size == 10
        assert comps[0].max_distance_to_obstacle is None

    def test_removing_everything_leaves_nothing(self):
        b = ball(IDENTITY, 2)
        assert components_after_removal(b, [v for v, _ in oracle_members(b)]) == []

    def test_ignores_vertices_outside_the_ball(self):
        b = ball(IDENTITY, 2)
        same = components_after_removal(b, [Configuration([], 50)])
        assert len(same) == 1 and same[0].size == 10


class TestSeparationReport:
    def test_half_line_separates_block_probes(self):
        p = probes(2)
        rep = separation_report(PathSpec("N"), 0, 12, p.a_n, p.b_n)
        d = rep.to_dict()
        assert d["verdict"] == "separated-in-ball"
        assert d["obstacle"] == {"kind": "N", "n": None, "size_in_ball": 143}
        assert d["ball_size"] == 4167
        assert len(d["components"]) == 31
        pa, pb = d["probes"]
        assert pa["distance_to_obstacle"] == 2
        assert pb["distance_to_obstacle"] == 2
        assert pa["component"] != pb["component"]

    def test_thickened_obstacle_still_separates(self):
        p = probes(2)
        rep = separation_report(PathSpec("N"), 1, 12, p.a_n, p.b_n).to_dict()
        assert rep["obstacle"]["size_in_ball"] == 263
        assert rep["verdict"] == "separated-in-ball"
        assert len(rep["components"]) == 49

    @pytest.mark.parametrize(
        "kind,n,radius,obstacle,ncomp",
        [("I", 1, 9, 79, 30), ("C", 1, 9, 81, 29)],
    )
    def test_interval_and_circle_reports(self, kind, n, radius, obstacle, ncomp):
        p = probes(n)
        rep = separation_report(PathSpec(kind, n), 0, radius, p.x_n, p.y_n).to_dict()
        assert rep["verdict"] == "separated-in-ball"
        assert rep["ball_size"] == 850
        assert rep["obstacle"]["size_in_ball"] == obstacle
        assert len(rep["components"]) == ncomp

    def test_probe_outside_ball_is_rejected(self):
        with pytest.raises(ProbeOutsideBallError):
            separation_report(PathSpec("N"), 0, 4, Configuration([], -9), probes(1).b_n)

    def test_probe_outside_ball_is_rejected_before_the_path(self, monkeypatch):
        def no_path(spec, b):
            raise AssertionError("the path was enumerated before the probes were placed")

        monkeypatch.setattr(coarse, "_path_keys_in_ball", no_path)
        p = probes(8)
        with pytest.raises(ProbeOutsideBallError, match=r"outside ball\(e, 6\)"):
            separation_report(PathSpec("I", 8), 0, 6, p.x_n, p.y_n)

    @pytest.mark.parametrize("spec", [PathSpec("N"), PathSpec("R"), PathSpec("I", 2), PathSpec("C", 2)])
    def test_report_builds_no_distance_column(self, spec):
        # the ball holds only its keys: membership and the report's
        # exactness test go through the closed form on them
        b = ball(IDENTITY, 12)
        p = probes(spec.n or 2)
        pa, pb = (p.a_n, p.b_n) if spec.n is None else (p.x_n, p.y_n)
        rep = separation_report(spec, 0, 12, pa, pb, prebuilt_ball=b)
        assert rep.verdict == "separated-in-ball"
        assert pa in b

    def test_probe_inside_obstacle_is_rejected(self):
        with pytest.raises(ProbeInsideObstacleError):
            separation_report(PathSpec("N"), 0, 6, stage_config(3), probes(1).b_n)

    @pytest.mark.parametrize("spec", [PathSpec("N"), PathSpec("R"), PathSpec("I", 2), PathSpec("C", 2)])
    def test_probe_distances_match_the_sweep(self, spec, monkeypatch):
        # the report reads d_ball, the in-ball distance to the obstacle,
        # when d_ball <= R - d(e, v) + 1 and sweeps otherwise; the grid
        # takes, per (R, K), the kept member with the largest lamp pattern
        # at gap d_ball - (R - d(e, v)) <= 0, == 1 and == 2
        sweep = coarse.distance_to_path
        calls = []

        def counted(v, *args, **kwargs):
            calls.append(v)
            return sweep(v, *args, **kwargs)

        monkeypatch.setattr(coarse, "distance_to_path", counted)
        closed = swept = 0
        for radius in (12, 13, 14):
            b = ball(IDENTITY, radius)
            slack = radius - key_distances(b)
            for k in (0, 1, 2):
                removed, dist = coarse._neighborhood(b, coarse._path_keys_in_ball(spec, b), k)
                gap = dist - slack
                inner, edge, beyond = (
                    b.unpack(b.keys[np.flatnonzero(cls & ~removed)[-1]])
                    for cls in (gap <= 0, gap == 1, gap == 2)
                )
                for pa, pb in ((inner, edge), (beyond, inner)):
                    before = len(calls)
                    rep = separation_report(spec, k, radius, pa, pb, prebuilt_ball=b)
                    assert calls[before:] == ([pa] if pa is beyond else [])
                    swept += len(calls) - before
                    closed += 2 - (len(calls) - before)
                    for probe in rep.probes:
                        want = sweep(probe.config, spec, cap=radius)
                        assert probe.distance_to_obstacle == (None if want is EXCEEDS else want)
        assert (closed, swept) == (27, 9)

    def test_neighborhood_past_the_diameter_removes_every_member(self):
        # distances inside the ball are at most 2R and held as int8; k is
        # only compared with them, so k past the int8 range removes all
        b = ball(IDENTITY, 12)
        line = coarse._path_keys_in_ball(PathSpec("N"), b)
        dist = coarse._neighborhood(b, line, 0)[1]
        assert dist.dtype == np.int8 and 0 <= dist.min() and dist.max() <= 24
        for k in (24, 25, 126, 127, 128, 300):
            assert coarse._neighborhood(b, line, k)[0].all(), k

    def test_report_is_json_serializable(self):
        p = probes(1)
        rep = separation_report(PathSpec("I", 1), 0, 9, p.x_n, p.y_n)
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert json.loads(text)["radius"] == 9


class TestDistortionProfile:
    @pytest.mark.parametrize(
        "spec,entries",
        [
            (PathSpec("N"), (0, 1, 6, 31, 32)),
            (PathSpec("R"), (0, 7, 8, 31, 32)),
            (PathSpec("I", 2), (0, 13, 46, 115, 452)),
            (PathSpec("C", 1), (0, 13, 42, 43, 43)),
            (PathSpec("C", 2), (0, 13, 46, 115, 254)),
            (PathSpec("C", 3), (0, 13, 46, 117, 264)),
        ],
    )
    def test_frozen_profiles(self, spec, entries):
        assert distortion_profile(spec, 2000, 4).entries == entries

    @pytest.mark.parametrize(
        "spec,index_limit,m_max,entries",
        [
            (PathSpec("C", 4), 2000, 4, (0, 13, 46, 117, 266)),
            (PathSpec("C", 5), 2000, 4, (0, 13, 46, 117, 266)),
            (PathSpec("C", 3), 2000, 8, (0, 13, 46, 117, 264, 557, 1144, 1145, 1145)),
            (PathSpec("N"), 4000, 8, (0, 1, 6, 31, 32, 149, 150, 601, 602)),
            (PathSpec("R"), 4000, 8, (0, 7, 8, 31, 32, 147, 148, 597, 598)),
            (PathSpec("I", 2), 2000, 8, (0, 13, 46, 115, 452, 481, 492, 493, 502)),
        ],
        ids=["C4-4", "C5-4", "C3-8", "N4000-8", "R4000-8", "I2-8"],
    )
    def test_frozen_profiles_at_larger_scales(self, spec, index_limit, m_max, entries):
        assert distortion_profile(spec, index_limit, m_max).entries == entries

    def test_zero_step_gap_is_zero_and_entries_grow(self):
        p = distortion_profile(PathSpec("N"), 2000, 6)
        assert p.entries[0] == 0
        assert all(a <= b for a, b in zip(p.entries, p.entries[1:]))

    @pytest.mark.parametrize(
        "case,m_max",
        [*itertools.product(["N300", "R300", "I1", "C1", "C2", "R150"], [4, 6]),
         ("N40", 21), ("R40", 21)],
        ids=lambda v: str(v),
    )
    def test_join_matches_all_pairs(self, case, m_max):
        # R150 is the ray of quasi_line(150, 150): lamps -150..-1, so no
        # window of the join holds them all; N40 and R40 at M = 21 join
        # 41 vertices with the 374,958 members of B(e, 21)
        profile, walk, cyclic = JOIN_CASES[case]
        assert profile(m_max) == all_pairs_profile(walk(), cyclic, m_max)

    def test_join_key_fits_a_word(self):
        for m_max in range(27):
            for n in (2, 41, 10_001, 2_488_608):
                block = coarse._join_block(m_max, n, 10_000)
                key_bits = ((n - 1).bit_length() + (block - 1).bit_length()
                            + block + m_max + m_max // 2)
                assert 1 <= block and key_bits <= 64
        assert coarse._join_block(4, 38_586, 35) == 35  # C5: one block, no outside ids
        with pytest.raises(ResourceLimitError, match="64 bits"):
            coarse._join_block(26, 1 << 25, 10_000)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
    def test_join_is_exact_for_any_block(self, block, monkeypatch):
        # a narrow block sends most translates to an anchor past their own,
        # where a window, an outside id and a shifted member mask must agree
        monkeypatch.setattr(coarse, "_join_block", lambda *args: block)
        for walk, n, cyclic, m_max in (
            (quasi_line(40, 120), 201, False, 5),
            (quasi_interval(1), 84, False, 6),
            (quasi_circle(1), 86, True, 7),
        ):
            expected = all_pairs_profile(walk.vertices[:n], cyclic, m_max)
            assert coarse._join_profile(walk, n, cyclic, m_max) == expected

    def test_join_reads_the_word_past_the_top_window(self, monkeypatch):
        # at block 7 and M = 6 the top window starts at bit 63 and the
        # lamp toggled at the top cursor sits at bit 66, in the next word
        monkeypatch.setattr(coarse, "_join_block", lambda *args: 7)
        walk = Walk(IDENTITY, [*range(61), 60, 59, 59, 58])
        expected = all_pairs_profile(walk.vertices, False, 6)
        assert coarse._join_profile(walk, 65, False, 6) == expected == (0, 1, 2, 3, 4, 5, 6)

    def test_stable_in_index_limit(self):
        assert (
            distortion_profile(PathSpec("N"), 2000, 4).entries
            == distortion_profile(PathSpec("N"), 4000, 4).entries
        )

    def test_circle_uses_intrinsic_length(self):
        a = distortion_profile(PathSpec("C", 2), 2000, 4)
        b = distortion_profile(PathSpec("C", 2), 5000, 4)
        assert a == b
        assert a.metric_mode == "cyclic"
        assert a.index_limit == intrinsic_step_count("C", 2)

    def test_csv_layout(self):
        text = distortion_profile(PathSpec("N"), 2000, 4).csv_text()
        assert text == "M,D\n0,0\n1,1\n2,6\n3,31\n4,32\n"

    @pytest.mark.parametrize("m_max", [-1, 29])
    def test_m_max_is_checked_before_any_walk_is_built(self, m_max, monkeypatch):
        def no_walk(*args):
            raise AssertionError("a walk was built before m_max was checked")

        monkeypatch.setattr(coarse, "path_walk", no_walk)
        with pytest.raises(ValueError, match="m_max"):
            distortion_profile(PathSpec("N"), 2000, m_max)
        with pytest.raises(ValueError, match="m_max"):
            circle_family_distortion([1], m_max)

    def test_rejects_tiny_index_limit(self):
        with pytest.raises(ValueError):
            distortion_profile(PathSpec("N"), 1, 4)

    def test_deterministic(self):
        assert distortion_profile(PathSpec("I", 1), 2000, 4) == distortion_profile(
            PathSpec("I", 1), 2000, 4
        )


class TestCircleFamily:
    def test_envelope_and_attaining_scale(self):
        fam = circle_family_distortion([1, 2, 3], 4)
        assert fam.h == (0, 13, 46, 117, 264)
        assert fam.attaining == (1, 1, 2, 3, 3)
        assert set(fam.profiles) == {1, 2, 3}

    def test_each_profile_is_the_circles_distortion_profile(self):
        fam = circle_family_distortion([1, 2, 3], 4)
        for n in (1, 2, 3):
            assert fam.profiles[n] == distortion_profile(
                PathSpec("C", n), intrinsic_step_count("C", n), 4
            )

    def test_envelope_dominates_each_member(self):
        fam = circle_family_distortion([1, 2], 3)
        for prof in fam.profiles.values():
            assert all(h >= d for h, d in zip(fam.h, prof.entries))

    def test_csv_layout(self):
        fam = circle_family_distortion([1, 2], 3)
        assert fam.csv_text() == "M,D,n_attaining\n0,0,1\n1,13,1\n2,46,2\n3,115,2\n"

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="1..6"):
            circle_family_distortion([7], 3)
        with pytest.raises(ValueError):
            circle_family_distortion([], 3)


class TestWorkingSet:
    """The coarse layer's scratch memory: per ball member at R = 20, and
    per vertex of a packed walk."""

    def test_ball_build(self):
        members = coarse.ball_member_count(20)
        assert traced_peak(lambda: ball(IDENTITY, 20)) <= 26 * members

    def test_separation_report_on_a_prebuilt_ball(self):
        # the report holds one removed mask, the depth flood's own seen
        # buffer, and floods in it.  N at K = 0 also builds the ball's
        # toggles and links columns and reads about 10.3 bytes a member;
        # the other two reuse them and read about 5.3 (12.5 and 7.5 while
        # the seed scan listed every unseen position of a slice)
        b = ball(IDENTITY, 20)
        for spec, k, p, cap in ((PathSpec("N"), 0, probes(2), 11),
                                (PathSpec("N"), 1, probes(4), 6),
                                (PathSpec("I", 2), 0, probes(2), 6)):
            pa, pb = (p.a_n, p.b_n) if spec.n is None else (p.x_n, p.y_n)
            peak = traced_peak(lambda: separation_report(spec, k, 20, pa, pb, prebuilt_ball=b))
            assert peak <= cap * len(b), (spec, k)

    def test_neighborhood_floods_a_slice_at_a_time(self):
        # the depth flood holds the distances, the seen mask and the next
        # level, about 4.6 bytes a member at R = 20; expanding each level
        # whole read about 6.1
        b = ball(IDENTITY, 20)
        b.toggles, b.links  # built before the trace
        keys = coarse._path_keys_in_ball(PathSpec("N"), b)
        assert traced_peak(lambda: coarse._neighborhood(b, keys, 0)) <= 5 * len(b)

    def test_decompose_floods_in_the_mask_it_is_given(self):
        # the floods take about 3.3 bytes a member at R = 20, and a copy
        # of the mask would add one more; a Python list of each slice's
        # unseen positions for the seed scan read about 5.5
        b = ball(IDENTITY, 20)
        removed, dist = coarse._neighborhood(b, coarse._path_keys_in_ball(PathSpec("N"), b), 0)
        peak = traced_peak(lambda: coarse._decompose(b, removed, dist, 0, []))
        assert removed.all()
        assert peak <= 4 * len(b)

    def test_walk_keys(self):
        # the kept keys take 8 B a vertex, and the replay holds one slice
        # of cursors and lamp columns at a time, not the whole walk
        walk = path_walk("C", 6)
        extent = max(map(abs, walk.cursors))  # every lamp is lit under a cursor
        assert traced_peak(lambda: coarse._walk_keys(walk, extent)) <= 24 * len(walk.cursors)
        assert traced_peak(lambda: coarse._walk_keys(walk, 6)) <= 1 << 20
