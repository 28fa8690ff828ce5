"""Group layer: composition law, closed-form metric, codec."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamplighter import (
    IDENTITY,
    CodecError,
    Configuration,
    bfs_ball,
    compose,
    decode_config,
    dyadic_views,
    encode_config,
    invert,
    neighbors,
    stage_config,
    word_distance,
)

configs = st.builds(
    Configuration,
    st.frozensets(st.integers(-8, 8), max_size=6),
    st.integers(-8, 8),
)


class TestNeighbors:
    def test_toggle_lights_at_cursor(self):
        toggle, _, _ = neighbors(IDENTITY)
        assert toggle == Configuration([0], 0)

    def test_toggle_is_involution_at_origin(self):
        toggle, _, _ = neighbors(Configuration([0], 0))
        assert toggle == IDENTITY

    def test_right_shifts_cursor(self):
        _, right, _ = neighbors(IDENTITY)
        assert right == Configuration([], 1)

    @given(configs)
    def test_right_left_cancel(self, c):
        _, right, _ = neighbors(c)
        _, _, back = neighbors(right)
        assert back == c

    @given(configs)
    def test_toggle_twice_is_identity(self, c):
        toggle, _, _ = neighbors(c)
        again, _, _ = neighbors(toggle)
        assert again == c

    @given(configs)
    def test_matches_composition_with_generator(self, c):
        # toggle, right, left as group elements
        generators = (Configuration([0], 0), Configuration([], 1), Configuration([], -1))
        assert list(neighbors(c)) == [compose(c, x) for x in generators]


class TestCompose:
    def test_identity_laws(self):
        x = Configuration([2, -1], 3)
        assert compose(x, IDENTITY) == x
        assert compose(IDENTITY, x) == x

    def test_translation_then_toggle(self):
        assert compose(Configuration([], 1), Configuration([0], 0)) == Configuration([1], 1)

    def test_toggle_is_involution(self):
        a = Configuration([0], 0)
        assert compose(a, a) == IDENTITY

    @given(configs, configs, configs)
    def test_associative(self, g, h, k):
        assert compose(compose(g, h), k) == compose(g, compose(h, k))

    @given(configs)
    def test_inverse(self, g):
        assert compose(g, invert(g)) == IDENTITY
        assert compose(invert(g), g) == IDENTITY

    def test_invert_examples(self):
        assert invert(IDENTITY) == IDENTITY
        assert invert(Configuration([], 3)) == Configuration([], -3)
        assert invert(Configuration([1], 1)) == Configuration([0], -1)


class TestDyadicViews:
    def test_mixed_sides(self):
        assert dyadic_views(Configuration([-2, 1, 2], 5)) == (6, 2)

    def test_no_lamps(self):
        assert dyadic_views(Configuration([], 5)) == (0, 0)

    def test_single_low_bit(self):
        assert dyadic_views(Configuration([0], 0)) == (1, 0)

    @given(st.integers(0, 2**16 - 1))
    def test_inverts_binary_expansion(self, n):
        assert dyadic_views(stage_config(n)) == (n, 0)

    @given(st.frozensets(st.integers(-12, 12), max_size=8))
    def test_reconstructs_lamp_set(self, lamps):
        plus, minus = dyadic_views(Configuration(lamps, 0))
        rebuilt = {p for p in range(16) if (plus >> p) & 1}
        rebuilt |= {-p - 1 for p in range(16) if (minus >> p) & 1}
        assert rebuilt == set(lamps)


class TestWordDistance:
    def test_single_generator(self):
        assert word_distance(IDENTITY, Configuration([0], 0)) == 1

    def test_toggle_away_from_cursor(self):
        assert word_distance(IDENTITY, Configuration([1], 0)) == 3

    def test_block_with_return(self):
        assert word_distance(IDENTITY, Configuration([0, 1, 2, 3], 2)) == 8

    @given(configs, configs)
    def test_symmetric(self, g, h):
        assert word_distance(g, h) == word_distance(h, g)

    @given(configs, configs)
    def test_zero_iff_equal(self, g, h):
        assert (word_distance(g, h) == 0) == (g == h)

    @given(configs, configs, configs)
    def test_triangle_inequality(self, g, h, k):
        assert word_distance(g, k) <= word_distance(g, h) + word_distance(h, k)

    @given(configs, configs, configs)
    def test_left_invariant(self, f, g, h):
        assert word_distance(compose(f, g), compose(f, h)) == word_distance(g, h)

    @given(configs)
    def test_one_step_from_every_neighbor(self, g):
        for nb in neighbors(g):
            assert word_distance(g, nb) == 1

    @settings(deadline=None)
    @given(st.integers(0, 5))
    def test_agrees_with_bfs_sphere(self, r):
        for v, d in bfs_ball(IDENTITY, r).items():
            assert word_distance(IDENTITY, v) == d


class TestBfsDistance:
    def test_ball_sizes(self):
        assert [len(bfs_ball(IDENTITY, r)) for r in range(4)] == [1, 4, 10, 22]


class TestCodec:
    def test_identity_form(self):
        assert encode_config(IDENTITY) == '{"cursor":0,"lamps":[]}'
        assert decode_config('{"cursor":0,"lamps":[]}') == IDENTITY

    def test_canonical_sorting(self):
        c = Configuration([2, -2, 1], 0)
        assert encode_config(c) == '{"cursor":0,"lamps":[-2,1,2]}'
        assert decode_config(encode_config(c)) == c

    @given(configs)
    def test_round_trip(self, c):
        assert decode_config(encode_config(c)) == c

    @pytest.mark.parametrize(
        "text",
        [
            '{"cursor":0,"lamps":[1,1]}',       # duplicate lamp
            '{"cursor":0,"lamps":[2,1]}',       # unsorted
            '{"cursor":0.5,"lamps":[]}',        # float cursor
            '{"cursor":true,"lamps":[]}',       # bool is not an int
            '{"cursor":0,"lamps":[true]}',      # bool lamp
            '{"cursor":0,"lamps":[1.0]}',       # float lamp
            '{"cursor":0}',                     # missing lamps
            '{"lamps":[]}',                     # missing cursor
            '{"cursor":0,"lamps":[],"x":1}',    # extra key
            '{"cursor":0,"lamps":{}}',          # lamps not a list
            "[]",                               # not an object
            "{not json",                        # malformed
            "",                                 # empty
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(CodecError):
            decode_config(text)

    def test_error_carries_position(self):
        with pytest.raises(CodecError, match="index 1"):
            decode_config('{"cursor":0,"lamps":[1,1]}')

    def test_encoded_form_is_plain_json(self):
        data = json.loads(encode_config(Configuration([-1, 3], 2)))
        assert data == {"cursor": 2, "lamps": [-1, 3]}


class TestConfiguration:
    def test_lamps_normalized_to_frozenset(self):
        assert Configuration([1, 1, 0], 0).lamps == frozenset({0, 1})

    def test_hashable_value_semantics(self):
        assert {Configuration([1], 0), Configuration([1], 0)} == {Configuration((1,), 0)}

    def test_sorted_lamps(self):
        assert Configuration([3, -1, 2], 0).sorted_lamps() == [-1, 2, 3]
