"""`network.json_text`, the one writer of crnkit's JSON text, against `json.dumps`."""

import json
import math
import random
import warnings
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crnkit import parse_network
from crnkit.network import json_text

from .support import network_dsl_text, random_network


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _refusal(write, value) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        write(value)
    return type(info.value), str(info.value)


# every kind of character json quotes differently: ASCII, the short escapes,
# other control characters, non-ASCII, astral characters and lone surrogates
CHARACTERS = 'aZ09 "\\/\b\f\n\r\t\x00\x1f\x7f\x80é€\ud800\udfff\U0001f600\U0010ffff'
FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e308, 1.7976931348623157e308, 1e16, 0.1, 1e-7,
          math.nan, math.inf, -math.inf)


def _text(rng: random.Random) -> str:
    return "".join(
        rng.choice(CHARACTERS) if rng.random() < 0.7 else chr(rng.randrange(0x110000))
        for _ in range(rng.choice((0, 1, 3, 8)))
    )


def _scalar(rng: random.Random):
    draw = rng.randrange(6)
    if draw == 0:
        return rng.choice((None, True, False))
    if draw == 1:
        return rng.randint(-(10**30), 10**30) if rng.random() < 0.5 else rng.randint(-9, 9)
    if draw == 2:
        if rng.random() < 0.5:
            return rng.choice(FLOATS)
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-300, 300)
    return _text(rng)


def _value(rng: random.Random, depth: int = 0):
    """A random JSON value: nested dicts, lists and tuples, empty ones too, over every scalar."""
    draw = rng.random()
    if depth >= 4 or draw < 0.4:
        return _scalar(rng)
    items = [_value(rng, depth + 1) for _ in range(rng.choice((0, 1, 2, 4)))]
    if draw < 0.6:
        return items
    if draw < 0.7:
        return tuple(items)
    return {_text(rng): item for item in items}


# hypothesis draws only a seed: a plain generator builds the values many times
# faster than drawing each choice through hypothesis would
@settings(max_examples=2_000, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_json_text_is_json_dumps_with_indent_2_and_sorted_keys(seed):
    value = _value(random.Random(seed))
    assert json_text(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {}, [], (), "", {"a": {}}, {"a": []}, [[]], [{}], [(), [[]]],
        math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 10**30, -(10**1000),
        True, False, None, "\ud800", " ", "é\x00",
        {"b": 1, "a": [1.5, None, True], "c": {"z": "x", "y": (1, 2)}},
        # subclasses are written as their base types are
        OrderedDict([("b", 1), ("a", 2)]),
        namedtuple("Pair", "x y")(1, "a"),
    ],
    ids=repr,
)
def test_edge_values_match_json_dumps(value):
    assert json_text(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [1j, {1, 2}, Fraction(1, 2), b"x", object(), [1, {"a": frozenset()}], {"a": {"b": Fraction(3)}}],
    # object()'s repr holds its address, which differs from run to run
    ids=lambda value: "object()" if type(value) is object else repr(value),
)
def test_an_unsupported_type_raises_json_dumps_type_error(value):
    assert _refusal(json_text, value) == _refusal(dumps, value)
    assert _refusal(json_text, value)[0] is TypeError


@pytest.mark.parametrize(
    "value",
    [{1: "a"}, {1.5: 0}, {True: 0}, {None: 1}, {"a": [{2: 3}]}, {(1, 2): 0}, {"a": 0, 1: 0}],
    ids=repr,
)
def test_a_key_that_is_not_a_str_raises_type_error(value):
    # no crnkit payload has one; json.dumps would convert the first five
    with pytest.raises(TypeError):
        json_text(value)


def test_to_json_is_json_dumps_of_to_dict_on_random_networks():
    rng = random.Random(33)
    for _ in range(150):
        net = random_network(rng, conserving=rng.random() < 0.5)
        assert net.to_json() == dumps(net.to_dict())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # merged duplicate steps warn
        for _ in range(150):
            try:
                net = parse_network(network_dsl_text(rng))
            except ValueError:  # a merged rate can outgrow LITERAL_BOUND
                continue
            assert net.to_json() == dumps(net.to_dict())
