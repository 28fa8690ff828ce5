"""Walk layer: stage walks, the four explicit paths, probe configurations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamplighter import (
    IDENTITY,
    Configuration,
    dyadic_views,
    half_quasi_line,
    probes,
    quasi_circle,
    quasi_interval,
    quasi_line,
    stage_config,
    stage_walk,
    trailing_ones,
    word_distance,
)
from lamplighter import walks
from lamplighter.walks import Walk, intrinsic_step_count, keyed_vertices, path_walk


class TestStagePrimitives:
    def test_trailing_ones(self):
        assert [trailing_ones(n) for n in range(1, 9)] == [1, 0, 2, 0, 1, 0, 3, 0]

    def test_stage_config_is_binary_expansion(self):
        assert stage_config(0) == IDENTITY
        assert stage_config(1) == Configuration([0], 0)
        assert stage_config(6) == Configuration([1, 2], 0)
        assert stage_config(13) == Configuration([0, 2, 3], 0)

    def test_first_stage_is_single_toggle(self):
        w = stage_walk(0)
        assert w.cursors == [0, 0]
        assert w.start == IDENTITY
        assert w.end == Configuration([0], 0)

    def test_second_stage_exact_sequence(self):
        w = stage_walk(1)
        assert w.cursors == [0, -1, -1, 0, 0, 1, 1, 0, -1, -1, 0]
        expected = [
            Configuration([0], 0),
            Configuration([0], -1),
            Configuration([-1, 0], -1),
            Configuration([-1, 0], 0),
            Configuration([-1], 0),
            Configuration([-1], 1),
            Configuration([-1, 1], 1),
            Configuration([-1, 1], 0),
            Configuration([-1, 1], -1),
            Configuration([1], -1),
            Configuration([1], 0),
        ]
        assert list(w.vertices) == expected

    @given(st.integers(0, 512))
    @settings(deadline=None)
    def test_stage_walk_invariants(self, n):
        w = stage_walk(n)
        k = trailing_ones(n)
        assert w.start == stage_config(n)
        assert w.end == stage_config(n + 1)
        assert w.is_simple()
        assert w.step_count <= 9 * k + 3
        assert_is_walk(w)
        # The cursor, and so every toggled position, stays within k cells
        # of the stage's home column.
        for v in w.vertices:
            assert -k <= v.cursor <= k


def assert_is_walk(w):
    """Adjacent cursors differ by at most one, and adjacent vertices are
    one generator apart by the closed-form metric, so the check does not
    rest on the replay of vertices alone."""
    c = w.cursors
    assert {b - a for a, b in zip(c, c[1:])} <= {-1, 0, 1}
    v = w.vertices
    assert all(word_distance(g, h) == 1 for g, h in zip(v, v[1:]))


@pytest.mark.parametrize("build,args", [
    (half_quasi_line, (3000,)),
    (quasi_line, (50, 2000)),
    *((quasi_interval, (n,)) for n in range(1, 5)),
    *((quasi_circle, (n,)) for n in range(1, 5)),
], ids=lambda x: x.__name__ if callable(x) else "-".join(map(str, x)))
def test_every_walk_moves_one_generator_at_a_time(build, args):
    assert_is_walk(build(*args))


def assert_cursor_format(w):
    """One cursor per vertex, the first the start's, each step moving
    it by at most one."""
    c = w.cursors
    assert c[0] == w.start.cursor
    assert {b - a for a, b in zip(c, c[1:])} <= {-1, 0, 1}
    assert len(c) == w.step_count + 1


class TestClosedFormStepCounts:
    def test_stage_walks_keep_the_cursor_format(self):
        for n in range(4096):
            assert_cursor_format(stage_walk(n))

    @pytest.mark.parametrize("kind", ["I", "C"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_intrinsic_step_count_matches_the_built_walks(self, kind, n):
        w = path_walk(kind, n)
        assert_cursor_format(w)
        assert intrinsic_step_count(kind, n) == w.step_count

    def test_intrinsic_step_count_visits_no_stage(self, monkeypatch):
        # every stage walk reads its trailing ones, so a count that never
        # calls trailing_ones enumerates no stage, and n = 40 (about 4**40
        # steps) answers at once
        def no_stage(n):
            raise AssertionError("a stage was visited")

        monkeypatch.setattr(walks, "trailing_ones", no_stage)
        interval = intrinsic_step_count("I", 40)
        assert intrinsic_step_count("C", 40) == interval + 159

    def test_lines_keep_the_cursor_format(self):
        for w, steps in ((half_quasi_line(5000), 5000), (quasi_line(50, 3000), 2 * 50 + 3000)):
            assert_cursor_format(w)
            assert w.step_count == steps

    def test_open_kinds_have_no_intrinsic_length(self):
        with pytest.raises(ValueError):
            intrinsic_step_count("N", 2)


class TestHalfQuasiLine:
    def test_counter_milestones(self):
        w = half_quasi_line(40)
        assert w.milestones["c0"] == 0
        assert w.milestones["c1"] == 1
        assert w.milestones["c2"] == 11
        assert w.milestones["c3"] == 12
        assert w.vertices[11] == Configuration([1], 0)
        assert w.vertices[12] == Configuration([0, 1], 0)

    def test_kind_and_shape(self):
        w = half_quasi_line(100)
        assert w.kind == "N"
        assert not w.closed
        assert w.start == IDENTITY
        assert w.step_count == 100
        assert len(w.vertices) == 101

    def test_simple_prefix(self):
        w = half_quasi_line(3000)
        assert w.is_simple()

    def test_truncation_is_a_prefix(self):
        long, short = half_quasi_line(500), half_quasi_line(120)
        assert long.cursors[:121] == short.cursors
        assert long.vertices[:121] == short.vertices

    def test_consecutive_counter_values(self):
        w = half_quasi_line(400)
        hits = [int(k[1:]) for k in w.milestones]
        assert hits == list(range(len(hits)))


class TestQuasiLine:
    def test_starts_on_negative_ray(self):
        w = quasi_line(12, 3)
        assert w.kind == "R"
        assert w.start == Configuration(range(-12, 0), -12)
        assert w.milestones["origin"] == 24
        assert w.vertices[24] == IDENTITY

    def test_ray_segment_retracts_two_steps_per_lamp(self):
        w = quasi_line(3, 0)
        got = [(v.sorted_lamps(), v.cursor) for v in w.vertices]
        assert got == [
            ([-3, -2, -1], -3),
            ([-2, -1], -3),
            ([-2, -1], -2),
            ([-1], -2),
            ([-1], -1),
            ([], -1),
            ([], 0),
        ]

    def test_positive_part_matches_half_line(self):
        w = quasi_line(5, 60)
        n = half_quasi_line(60)
        assert w.vertices[10:] == n.vertices
        assert w.milestones["c2"] == 10 + 11

    def test_simple(self):
        assert quasi_line(40, 400).is_simple()

    def test_ray_avoids_half_line(self):
        ray = set(quasi_line(64, 0).vertices[:-1])
        line = set(half_quasi_line(10_000).vertices)
        assert not ray & line


class TestQuasiInterval:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quasi_interval(0)

    @pytest.mark.parametrize(
        "n,end,steps,seg1,seg2",
        [
            (1, Configuration([0, 1, 2], 2), 83, 40, 43),
            (2, Configuration([0, 1, 2, 3, 4], 4), 503, 248, 255),
        ],
    )
    def test_shape(self, n, end, steps, seg1, seg2):
        w = quasi_interval(n)
        assert w.kind == "I" and w.n == n
        assert w.start == IDENTITY
        assert w.end == end
        assert w.step_count == steps
        assert w.milestones == {"I1_end": seg1, "I2_end": seg2}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_simple(self, n):
        assert quasi_interval(n).is_simple()

    def test_end_builds_no_vertex_tuple(self):
        w = quasi_interval(3)
        end = w.end
        assert "vertices" not in w.__dict__
        assert end == Configuration(range(7), 6) == w.vertices[-1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_third_segment_mirrors_first(self, n):
        w = quasi_interval(n)
        i1, i2 = w.milestones["I1_end"], w.milestones["I2_end"]
        # segment one runs from cursor 0 and segment three from 2n with
        # every move reversed and every toggle kept
        assert w.cursors[i2:] == [2 * n - c for c in w.cursors[:i1 + 1]]

    def test_first_segment_is_half_line_prefix(self):
        w = quasi_interval(2)
        i1 = w.milestones["I1_end"]
        n = half_quasi_line(i1)
        assert w.vertices[: i1 + 1] == n.vertices

    @pytest.mark.parametrize("n", [1, 2])
    def test_end_segments_stay_far_apart(self, n):
        w = quasi_interval(n)
        i1, i2 = w.milestones["I1_end"], w.milestones["I2_end"]
        gap = min(
            word_distance(u, v)
            for u in w.vertices[: i1 + 1]
            for v in w.vertices[i2:]
        )
        assert gap > n


class TestQuasiCircle:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quasi_circle(0)

    @pytest.mark.parametrize(
        "n,steps,milestones",
        [
            (1, 86, {"I1_end": 39, "I2_end": 42, "closing_start": 82}),
            (2, 510, {"I1_end": 247, "I2_end": 254, "closing_start": 502}),
        ],
    )
    def test_shape(self, n, steps, milestones):
        w = quasi_circle(n)
        assert w.kind == "C" and w.n == n and w.closed
        assert w.step_count == steps
        assert w.milestones == milestones
        assert w.start == Configuration([0], 0)
        assert w.end == w.start

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_interior_vertices_distinct(self, n):
        w = quasi_circle(n)
        interior = w.vertices[:-1]
        assert len(set(interior)) == len(interior)

    def test_closing_arc_clears_lamps_without_leaving_the_window(self):
        w = quasi_circle(1)
        tail = w.vertices[w.milestones["closing_start"]:]
        got = [(v.sorted_lamps(), v.cursor) for v in tail]
        assert got == [
            ([0, 1, 2], 2),
            ([0, 1], 2),
            ([0, 1], 1),
            ([0], 1),
            ([0], 0),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closing_arc_cursor_stays_nonnegative(self, n):
        w = quasi_circle(n)
        tail = w.vertices[w.milestones["closing_start"]:]
        assert all(v.cursor >= 0 for v in tail)


def tuple_simple(w):
    """Simplicity read off the vertex tuple, by Configuration equality."""
    v = w.vertices
    if w.closed:
        return v[0] == v[-1] and len(set(v[:-1])) == len(v) - 1
    return len(set(v)) == len(v)


class TestSimplicity:
    """Walk.is_simple streams exact keys (dyadic views, cursor)."""

    def test_open_walk_that_revisits_a_vertex(self):
        assert not Walk(IDENTITY, [0, 1, 0]).is_simple()
        assert not Walk(IDENTITY, [0, 0, 0]).is_simple()  # a lamp on and off again

    def test_closed_walk_that_repeats_an_interior_vertex(self):
        assert not Walk(IDENTITY, [0, 1, 2, 1, 0], closed=True).is_simple()
        # the base itself, passed through halfway round
        assert not Walk(IDENTITY, [0, 1, 0, -1, 0], closed=True).is_simple()

    def test_closed_walk_whose_ends_differ(self):
        w = Walk(IDENTITY, [0, 1, 2], closed=True)
        assert not w.is_simple()
        assert Walk(IDENTITY, [0, 1, 2]).is_simple()

    def test_closed_square_is_simple(self):
        w = Walk(IDENTITY, [0, 0, 1, 1, 0, 0, 1, 1, 0], closed=True)
        assert w.end == w.start
        assert w.is_simple()

    def test_lamps_either_side_of_zero_are_distinct(self):
        # {-1} and {0} have dyadic views (0, 1) and (1, 0)
        [(_, a), (_, b)] = keyed_vertices([Configuration([-1], 0), Configuration([0], 0)])
        assert a != b
        w = Walk(Configuration([-1], 0), [0, -1, -1, 0, 0])
        assert w.vertices[0] == Configuration([-1], 0)
        assert w.end == Configuration([0], 0)
        assert w.is_simple()

    def test_keys_share_views_along_a_run_of_moves(self):
        w = half_quasi_line(1000)
        keys = [key for _, key in keyed_vertices(w.iter_vertices())]
        assert keys == [(dyadic_views(v), v.cursor) for v in w.vertices]
        views = {id(k[0]) for k in keys}
        toggles = sum(a == b for a, b in zip(w.cursors, w.cursors[1:]))
        assert len(views) == toggles + 1

    def test_builds_no_vertex_tuple(self, monkeypatch):
        def no_vertices(self):
            raise AssertionError("Walk.vertices was built")

        monkeypatch.setattr(Walk, "vertices", property(no_vertices))
        assert quasi_circle(2).is_simple()
        assert quasi_line(40, 400).is_simple()

    @given(st.lists(st.integers(-3, 3), max_size=4), st.integers(-2, 2),
           st.lists(st.sampled_from([-1, 0, 1]), max_size=24), st.booleans())
    def test_matches_the_vertex_tuple(self, lamps, cursor, moves, closed):
        cursors = [cursor]
        for m in moves:
            cursors.append(cursors[-1] + m)
        w = Walk(Configuration(lamps, cursor), cursors, closed=closed)
        assert w.is_simple() == tuple_simple(w)


class TestProbes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_shapes(self, n):
        p = probes(n)
        assert p.a_n == Configuration(range(2 * n), n)
        assert p.b_n == Configuration([], -n)
        assert p.x_n == Configuration(range(2 * n + 1), n)
        assert p.y_n == Configuration([], -n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_distances_from_identity(self, n):
        p = probes(n)
        assert word_distance(IDENTITY, p.a_n) == 5 * n - 2
        assert word_distance(IDENTITY, p.x_n) == 5 * n + 1
        assert word_distance(IDENTITY, p.b_n) == n


@pytest.mark.parametrize("call,message", [
    (lambda: trailing_ones(-1), "n must be nonnegative"),
    (lambda: stage_config(-1), "n must be nonnegative"),
    (lambda: half_quasi_line(-1), "num_steps must be nonnegative"),
    (lambda: quasi_line(-1, 0), "lengths must be nonnegative"),
    (lambda: probes(0), "n must be at least 1"),
], ids=["trailing_ones", "stage_config", "half_quasi_line", "quasi_line", "probes"])
def test_negative_sizes_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
