"""Walk layer: stage walks, the four explicit paths, probe configurations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamplighter import (
    IDENTITY,
    Configuration,
    Step,
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
from lamplighter.walks import (
    intrinsic_step_count,
    mirror_steps,
    path_walk,
    replay,
    stage_step_count,
)

T, R, L = Step.TOGGLE, Step.RIGHT, Step.LEFT


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
        assert w.steps == (T,)
        assert w.start == IDENTITY
        assert w.end == Configuration([0], 0)

    def test_second_stage_exact_sequence(self):
        w = stage_walk(1)
        assert w.steps == (L, T, R, T, R, T, L, L, T, R)
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
        # Cursor excursion and every toggled position stay within k cells of
        # the stage's home column.
        for v, s in zip(w.vertices, w.steps):
            assert -k <= v.cursor <= k
            if s is T:
                assert -k <= v.cursor <= k


class TestClosedFormStepCounts:
    def test_stage_step_count_matches_the_stage_walks(self):
        assert all(stage_step_count(n) == stage_walk(n).step_count for n in range(4096))

    @pytest.mark.parametrize("kind", ["I", "C"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_intrinsic_step_count_matches_the_built_walks(self, kind, n):
        assert intrinsic_step_count(kind, n) == path_walk(kind, n).step_count

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
        assert long.steps[:120] == short.steps
        assert long.vertices[:121] == short.vertices

    def test_consecutive_counter_values(self):
        w = half_quasi_line(400)
        hits = [int(k[1:]) for k in w.milestones]
        assert hits == list(range(len(hits)))


class TestMirror:
    def test_swaps_left_right(self):
        assert mirror_steps([T, R, L]) == (T, L, R)

    @given(st.lists(st.sampled_from([T, R, L]), max_size=40))
    def test_involution(self, steps):
        assert mirror_steps(mirror_steps(steps)) == tuple(steps)


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_third_segment_mirrors_first(self, n):
        w = quasi_interval(n)
        i1, i2 = w.milestones["I1_end"], w.milestones["I2_end"]
        seg1 = w.steps[:i1]
        seg3 = w.steps[i2:]
        assert seg3 == mirror_steps(seg1)

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

    def test_replay_reproduces_vertices(self):
        w = quasi_circle(2)
        assert replay(w.start, w.steps) == list(w.vertices)


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
