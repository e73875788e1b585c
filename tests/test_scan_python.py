"""The engine tests of test_simcore.py, test_scan_reference.py and
test_engine_properties.py, and the mobility and upsampling tests of
test_vasculature.py, again on the Python paths.

run_simulation scans, simulate_mobility walks and upsample_traces upsamples
in the compiled library (_scan.c) wherever a C compiler builds it, and in
Python and numpy where none does.  Here the loader is patched to find no
library, so every test below runs the Python loops and numpy passes that
those modules' own runs take only without a compiler: the scan as nf_scan's
loop in Python, on the inputs nf_scan reads."""

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
    test_upsample_carries_visit_schedule, test_upsample_deterministic_per_seed,
    test_upsample_jitter_statistics, test_upsample_matches_the_strided_loop_bit_for_bit,
    test_upsample_preserves_originals_bit_exact, test_upsample_rejects_empty_trace,
    test_upsample_traces_is_the_strided_loop_per_trace,
    test_upsample_traces_refuses_mismatched_inputs,
    test_upsample_zero_sigma_is_exact_interpolation, test_upsampled_traces_own_their_arrays,
    test_visit_schedule_consistent_with_samples)


@pytest.fixture(autouse=True)
def python_scan(monkeypatch):
    monkeypatch.setattr(simcore, "_scan_kernel", lambda: None)
