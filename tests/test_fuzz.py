"""Property tests: a malformed field in a JSON input fails as a ValueError.

Each property takes a valid device profile, Ising problem or measurement
pattern, replaces one field (at any depth) with a generated JSON value and
parses the result. Parsing must return or raise ValueError; nothing is
executed, so no register is allocated.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from aqmkit import IsingProblem, ProfileError, parse_device_profile, parse_pattern
from aqmkit.devices import builtin_profile
from aqmkit.profiles import profile_to_dict

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.sampled_from([10 ** 400, -10 ** 400, 2 ** 63]) | st.floats()
           | st.text(max_size=8))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=4)

PROFILE = profile_to_dict(builtin_profile("superconducting-transmon"))
PROBLEM = {"n": 2, "h": [0.5, -1.0], "J": [[0, 1, 1.0]]}
PATTERN = {"nodes": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "inputs": [0],
           "order": [0, 1, 2, 3], "angles": [0.0, -0.4, -0.9, -1.4],
           "adaptivity": [None, "(-1)^s[0] * theta", "(-1)^s[1] * theta",
                          "(-1)^(s[0]+s[2]) * theta"],
           "outputs": [4],
           "byproducts": [{"type": "X", "qubit": 4, "deps": [1, 3]},
                          {"type": "Z", "qubit": 4, "deps": [0, 2]}]}


def _paths(value, prefix=()):
    """The path of every value inside `value`, the root included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutants(valid):
    """JSON text of `valid` with the value at one path replaced."""
    @st.composite
    def mutant(draw):
        path = draw(st.sampled_from(list(_paths(valid))))
        value = draw(JSON_VALUES)
        if not path:
            return json.dumps(value)
        data = copy.deepcopy(valid)
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(data)
    return mutant()


@settings(max_examples=200, deadline=None)
@given(_mutants(PROFILE))
def test_profile_parser_raises_only_profile_error(text):
    try:
        parse_device_profile(text)
    except ProfileError:
        pass


@settings(max_examples=200, deadline=None)
@given(_mutants(PROBLEM))
def test_ising_parser_raises_only_value_error(text):
    try:
        IsingProblem.from_json(text)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(_mutants(PATTERN))
def test_pattern_parser_raises_only_value_error(text):
    try:
        parse_pattern(text)
    except ValueError:
        pass
