"""The JSON writer and the writing of integers past Python's digit limit."""

import json
import sys

import pytest
from hypothesis import given, strategies as st

from milnorcalc.charclasses import canonical_json
from milnorcalc.chow import AmbientSpace, ChowClass
from milnorcalc.chow import decimal_text

INT64 = range(-(2**63), 2**63)

# Text with non-ASCII characters, quotes, backslashes and control characters.
texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\n\t\x00\x1f\x7f'))
scalars = (
    texts
    | st.integers(-(2**70), 2**70)
    | st.integers(-(2**63), 2**63 - 1)
    | st.booleans()
    | st.none()
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20,
)


def oracle(data):
    """``data`` with every int outside 64 bits replaced by its decimal string."""
    if type(data) is int and data not in INT64:
        return str(data)
    if type(data) is list:
        return [oracle(v) for v in data]
    if type(data) is dict:
        return {k: oracle(v) for k, v in data.items()}
    return data


@given(documents)
def test_writer_matches_json_dumps(data):
    assert canonical_json(data) == json.dumps(oracle(data), sort_keys=True, indent=2)


def test_64_bit_boundary():
    # Inside 64 bits a number, outside it a string, alone and in an all-int dict.
    inside, outside = [-(2**63), 2**63 - 1], [-(2**63) - 1, 2**63]
    assert canonical_json(inside) == json.dumps(inside, indent=2)
    assert canonical_json(outside) == json.dumps([str(v) for v in outside], indent=2)
    keyed = {"a": -(2**63) - 1, "b": -(2**63), "c": 2**63 - 1, "d": 2**63}
    written = {"a": str(-(2**63) - 1), "b": -(2**63), "c": 2**63 - 1, "d": str(2**63)}
    assert canonical_json(keyed) == json.dumps(written, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "data",
    [{}, [], {"a": {}}, [[]], {"a": [{}, []]}, {"k": {"2,1": -3, "0,0": 1}}, {"a": 1, "b": [2]}, {"a": 1, "b": True}],
)
def test_writer_matches_json_dumps_on_empty_and_class_maps(data):
    assert canonical_json(data) == json.dumps(data, sort_keys=True, indent=2)


class Count(int):
    pass


class Label(str):
    pass


@pytest.mark.parametrize(
    "data",
    [
        1.5, {"x": 0.0}, [float("nan")], {"x": (1, 2)}, {1: 2}, {"a": 1, None: 2},
        [Count(3)], {"a": Label("b")}, {Label("a"): 1}, {"a": Count(3)},
    ],
)
def test_writer_refuses_floats_other_types_and_non_str_keys(data):
    # json.dumps writes most of these; the writer takes exact types only.
    with pytest.raises(TypeError):
        canonical_json(data)


# Python refuses to write an int of more than sys.get_int_max_str_digits()
# digits in words of its own; each entry point names the digit count.
LONG = 10**5000


def long_message():
    return f"an integer of 5001 digits, over the {sys.get_int_max_str_digits()}-digit limit for writing it"


def test_writer_names_the_digit_count():
    with pytest.raises(ValueError) as err:
        canonical_json(LONG)
    assert str(err.value) == long_message()


def test_canonical_json_names_the_digit_count():
    with pytest.raises(ValueError) as err:
        canonical_json({"x": [LONG]})
    assert str(err.value) == long_message()
    with pytest.raises(ValueError) as err:
        canonical_json({"x": {"0": -LONG}})
    assert str(err.value) == long_message()


def test_class_text_names_the_digit_count():
    with pytest.raises(ValueError) as err:
        str(ChowClass(AmbientSpace((2,)), {(1,): LONG}))
    assert str(err.value) == long_message()


@pytest.mark.parametrize("digits", [1, 9, 10, 4300, 4301, 4302, 9999, 10000])
def test_digit_count_at_powers_of_ten(digits):
    # Both sides of each power of ten: 10^(k-1) and 10^k - 1 have k digits.
    for value in (10 ** (digits - 1), 10**digits - 1):
        if digits <= sys.get_int_max_str_digits():
            assert len(decimal_text(-value)) == digits + 1
        else:
            with pytest.raises(ValueError, match=f"an integer of {digits} digits"):
                decimal_text(-value)
