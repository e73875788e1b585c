"""The engine tests of test_simcore.py, test_scan_reference.py and
test_engine_properties.py, and the mobility tests of test_vasculature.py,
again on the Python paths.

run_simulation scans and simulate_mobility walks in the compiled library
(_scan.c) wherever a C compiler builds it, and in Python where none does.
Here the loader is patched to find no library, so every test below runs
the Python loops that those modules' own runs take only without a
compiler."""

import pytest

from nanoflow import simcore
from test_engine_properties import *  # noqa: F401,F403
from test_scan_reference import *  # noqa: F401,F403
from test_simcore import *  # noqa: F401,F403
from test_vasculature import (  # noqa: F401
    test_cycle_cap_leaves_the_graph_usable, test_heart_entries_uses_schedule,
    test_mobility_deterministic, test_mobility_positions_are_point_at_bit_for_bit,
    test_mobility_positions_lie_on_graph, test_mobility_sampling_grid,
    test_mobility_step_length_bounded, test_tables_equal_the_lazy_tables_bit_for_bit,
    test_visit_schedule_consistent_with_samples)


@pytest.fixture(autouse=True)
def python_scan(monkeypatch):
    monkeypatch.setattr(simcore, "_scan_kernel", lambda: None)
