"""Fuzzing load_config: random values at random key paths of a full config.

A config either fails with ConfigError, whose message names a config key,
or loads and converts to a run plan.  No other exception may escape: a
value that slipped past the loader would fail later, in every event run or
as a traceback.
"""

import copy

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nanoflow.benchmark import SimPlan  # noqa: E402
from nanoflow.config import DEFAULT_CONFIG, load_config  # noqa: E402
from nanoflow.errors import ConfigError  # noqa: E402


def _paths(node, path=()):
    """Every key path below node; list entries are entered by index."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = list(_paths(DEFAULT_CONFIG))
KEY_NAMES = sorted({p[-1] for p in PATHS if isinstance(p[-1], str)})
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
          | st.sampled_from([0, 1, 2, -1, 64.0, 2.5, 1e300, 10 ** 400]))
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEY_NAMES) | st.text(max_size=4),
                                     inner, max_size=3)),
    max_leaves=8)


def _container(cfg, path):
    """The dict or list that holds path's last key, or None once a mutation
    has changed the shape above it."""
    node = cfg
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return None
    last = path[-1]
    if isinstance(node, dict) and isinstance(last, str) and last in node:
        return node
    if isinstance(node, list) and isinstance(last, int) and last < len(node):
        return node
    return None


@st.composite
def configs(draw):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        node = _container(cfg, path)
        if node is None:
            continue
        action = draw(st.sampled_from(["set", "set", "delete", "extra"]))
        if action == "set":
            node[path[-1]] = draw(VALUES)
        elif action == "delete":   # a missing key, or a list one entry short
            del node[path[-1]]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(KEY_NAMES) | st.text(max_size=4))] = draw(VALUES)
        else:
            node.append(draw(VALUES))
    return cfg


@settings(max_examples=300, deadline=None)
@given(configs())
def test_load_config_raises_only_config_error(cfg):
    try:
        loaded = load_config(None, overrides=cfg)
    except ConfigError as exc:
        assert "config key" in str(exc)
        return
    assert isinstance(loaded.plan(), SimPlan)
