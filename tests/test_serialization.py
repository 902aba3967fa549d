"""Tests for the canonical byte encoding."""

import enum
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import serialization
from repro.obs import payload_size
from repro.serialization import encode, encode_many, encoded_size


simple_values = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.booleans(),
    st.none(),
)

nested_values = st.recursive(
    simple_values,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)

#: ``nested_values`` widened with every other shape ``encode`` accepts:
#: tuples, int dict keys, non-ASCII text, ``bytearray`` and ints past 2**128.
wide_values = st.recursive(
    st.one_of(
        simple_values,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.sampled_from([10**40, -(10**40), 2**64, -(2**64), 255, 256, -256]),
        st.text(alphabet=st.characters(min_codepoint=0x80), max_size=12),
        st.binary(max_size=40).map(bytearray),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=5),
    ),
    max_leaves=20,
)

#: BGW's wire shape: tuples and lists of ``(gate, share)`` int pairs, with
#: residues past 2**64 (the flat path's widest ints).
residues = st.integers(min_value=0, max_value=2**80)
share_pairs = st.one_of(st.tuples(residues, residues), st.lists(residues, min_size=2, max_size=2))
bgw_payloads = st.one_of(
    st.lists(share_pairs, max_size=8).map(tuple), st.lists(share_pairs, max_size=8)
)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


#: Values that are ints to ``isinstance`` but not to ``type(x) is int``,
#: in the int positions of the flat path's shapes.
int_likes = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70), st.booleans(), st.sampled_from(Level)
)
int_like_payloads = st.one_of(
    int_likes,
    st.lists(int_likes, max_size=6).map(tuple),
    st.lists(st.tuples(int_likes, int_likes), max_size=6),
)


def nested(depth, leaf):
    """``leaf`` wrapped in ``depth`` one-item tuples."""
    value = leaf
    for _ in range(depth):
        value = (value,)
    return value


class TestEncodeBasics:
    def test_none(self):
        assert encode(None) == b"n"

    def test_booleans_distinct_from_ints(self):
        assert encode(True) != encode(1)
        assert encode(False) != encode(0)

    def test_int_sign_encoded(self):
        assert encode(5) != encode(-5)

    def test_zero(self):
        assert encode(0).startswith(b"i")

    def test_str_vs_bytes_distinct(self):
        assert encode("abc") != encode(b"abc")

    def test_bytearray_same_as_bytes(self):
        assert encode(bytearray(b"xy")) == encode(b"xy")

    def test_tuple_and_list_equal(self):
        assert encode((1, 2)) == encode([1, 2])

    def test_dict_key_order_irrelevant(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode(object())

    def test_unsupported_nested_type_raises(self):
        with pytest.raises(TypeError):
            encode([1, {1: object()}])

    def test_encode_many_is_tuple_encoding(self):
        assert encode_many(1, "a") == encode((1, "a"))

    def test_length_prefix_width(self):
        assert serialization._LEN_BYTES == 8


class TestEncodeInjectivity:
    @given(nested_values, nested_values)
    def test_distinct_values_distinct_encodings(self, left, right):
        if left != right:
            assert encode(left) != encode(right)

    @given(nested_values)
    def test_deterministic(self, value):
        assert encode(value) == encode(value)

    def test_concatenation_ambiguity_avoided(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert encode(("ab", "c")) != encode(("a", "bc"))

    def test_nesting_ambiguity_avoided(self):
        assert encode([[1], 2]) != encode([1, [2]])

    def test_empty_containers_distinct(self):
        assert encode([]) != encode({})
        assert encode([]) != encode("")
        assert encode("") != encode(b"")


class TestEncodedSize:
    """``encoded_size`` is byte accounting's exact, allocation-free ``len(encode(x))``."""

    @given(st.one_of(nested_values, wide_values))
    def test_equals_encoded_length(self, value):
        assert encoded_size(value) == len(encode(value))

    @pytest.mark.parametrize(
        "value",
        [
            object(),
            1.5,
            {object(): 1},
            [1, (2, {"k": 0.5})],
            {"k": {3: [None, set()]}},
            ({1: "a", 2: object()},),
        ],
    )
    def test_raises_type_error_where_encode_does(self, value):
        with pytest.raises(TypeError):
            encode(value)
        with pytest.raises(TypeError):
            encoded_size(value)

    @given(bgw_payloads)
    def test_bgw_share_payloads(self, value):
        assert encoded_size(value) == len(encode(value))

    @given(int_like_payloads)
    def test_bool_and_intenum_take_the_general_path(self, value):
        assert encoded_size(value) == len(encode(value))

    @pytest.mark.parametrize(
        "value",
        [((1, 2.5),), [(1, 2), [3, object()]], ((0, 1), (2**70, None, 1.5)), [(1, {2})]],
    )
    def test_unencodable_leaf_in_a_pair_raises_type_error(self, value):
        with pytest.raises(TypeError):
            encode(value)
        with pytest.raises(TypeError):
            encoded_size(value)

    def test_any_depth_is_sized_exactly(self):
        """``encode`` recurses; the size walks an explicit stack."""
        depth = 5 * sys.getrecursionlimit()
        assert encoded_size(nested(depth, "leaf")) == depth * 9 + len(encode("leaf"))
        mapping = {}
        for _ in range(depth):
            mapping = {"k": [mapping]}
        level = len(encode({"k": [{}]})) - len(encode({}))
        assert encoded_size(mapping) == depth * level + len(encode({}))

    def test_deep_unencodable_value_raises_type_error(self):
        # Deep enough that repr's own recursion guard trips on any interpreter.
        value = nested(100_000, 0.5)
        with pytest.raises(TypeError):
            encoded_size(value)
        with pytest.raises(RecursionError):
            repr(value)
        assert payload_size(value) == 0

    def test_shared_substructure_is_not_a_cycle(self):
        leaf = [1, "a", b"b"]
        value = [leaf, (leaf, {"k": leaf})]
        assert encoded_size(value) == len(encode(value))

    def test_cyclic_value_raises_value_error(self):
        loop = []
        loop.append(loop)
        ring = {"next": None}
        ring["next"] = (1, [ring])
        for value in (loop, ring, (0, [loop])):
            with pytest.raises(ValueError, match="cyclic"):
                encoded_size(value)
            assert payload_size(value) == len(repr(value))
