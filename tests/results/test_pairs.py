"""IntPairs: array-backed storage, list semantics, packed wire form."""

import base64
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.results.pairs import IntPairs

ROWS = [[0, 300000], [1500, 960000], [9000, 652800]]

INT64 = st.integers(-(2**63), 2**63 - 1)
#: Values within a few units of +-2**63/2: their deltas reach the int64 edges.
NEAR_HALF = st.sampled_from([2**62, -(2**62)]).flatmap(
    lambda centre: st.integers(centre - 4, centre + 4)
)


def test_reads_like_a_list_of_tuples():
    pairs = IntPairs([(0, 1), (2, 3)])
    assert len(pairs) == 2
    assert list(pairs) == [(0, 1), (2, 3)]
    assert pairs[1] == (2, 3)
    assert list(pairs.firsts()) == [0, 2]
    assert list(pairs.seconds()) == [1, 3]
    assert IntPairs([(0, 1), (2, 3)]) == pairs


def test_json_rows_decode_eagerly():
    pairs = IntPairs([list(row) for row in ROWS])
    assert list(pairs.firsts()) == [row[0] for row in ROWS]
    assert list(pairs.seconds()) == [row[1] for row in ROWS]
    assert pairs.to_lists() == ROWS
    assert list(pairs) == [tuple(row) for row in ROWS]


def test_list_and_tuple_rows_build_equal_pairs():
    from_lists = IntPairs([list(row) for row in ROWS])
    from_tuples = IntPairs(tuple(row) for row in ROWS)
    assert from_lists == from_tuples
    assert from_lists.to_lists() == from_tuples.to_lists()


def test_copy_constructor_does_not_alias():
    source = IntPairs([(1, 2)])
    copied = IntPairs(source)
    assert copied == source
    assert copied.firsts() is not source.firsts()


def test_malformed_rows_raise_at_construction():
    with pytest.raises(ValueError):
        IntPairs([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntPairs([[1, 2], [3, "x"]])


def test_from_arrays_round_trip():
    source = IntPairs([(5, 6), (7, 8)])
    rebuilt = IntPairs.from_arrays(source.firsts(), source.seconds())
    assert rebuilt == source
    assert rebuilt.to_lists() == [[5, 6], [7, 8]]


@given(st.lists(st.tuples(INT64, INT64), max_size=40))
def test_pack_round_trips_any_int64_pairs(rows):
    pairs = IntPairs(rows)
    packed = pairs.pack()
    assert packed.isascii()
    assert IntPairs.unpack(packed) == pairs


@given(
    st.lists(
        st.tuples(NEAR_HALF | INT64, NEAR_HALF | INT64), min_size=0, max_size=6
    )
)
def test_pack_round_trips_non_monotone_and_edge_values(rows):
    assert IntPairs.unpack(IntPairs(rows).pack()) == IntPairs(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(7, -3)],
        [(9, 1), (2, 5), (-4, -8)],  # non-monotone, negative deltas
        [(2**62, -(2**62)), (-(2**62), 2**62)],  # deltas of +-2**63
        [(2**63 - 1, -(2**63)), (-(2**63), 2**63 - 1)],  # wrapping deltas
    ],
)
def test_pack_round_trips_edge_cases(rows):
    assert IntPairs.unpack(IntPairs(rows).pack()).tolist() == rows


def _packed(raw: bytes) -> str:
    return base64.b64encode(zlib.compress(raw, 1)).decode("ascii")


@pytest.mark.parametrize(
    "text",
    [
        "not base64!",
        base64.b64encode(b"not a zlib stream").decode("ascii"),
        _packed(b"\0" * 7),  # not whole int64 values
        _packed(b"\0" * 24),  # an odd number of int64 values
    ],
)
def test_unpack_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        IntPairs.unpack(text)
