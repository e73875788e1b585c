"""Flow-guided nanodevice localization: simulation and benchmarking."""

__version__ = "0.1.0"

from .benchmark import (MetricsReport, RegionEstimate, TargetEvent,
                        baseline_localize, convergence_curve, dense_locations,
                        point_error, region_accuracy, reliability,
                        run_benchmark, run_events, sample_locations)
from .channel import ChannelConfig, Layer, Reception, link_sample, path_loss_db
from .config import RunConfig, load_config
from .energy import (EnergyConfig, EnergyState, capacitance, cycle_index,
                     energy_at_cycle, turn_on_latency_cycles)
from .errors import NanoflowError
from .simcore import (RECORD, Anchor, ProtocolParams, SimPlan, SimResult,
                      decode_beacons, run_simulation)
from .vasculature import (MobilityTrace, Vessel, VesselGraph,
                          build_reference_vasculature, load_graph, locate_vessel,
                          save_graph, simulate_mobility, upsample_trace, upsample_traces)

__all__ = [
    "__version__", "RECORD",
    "Anchor", "ChannelConfig", "EnergyConfig", "EnergyState", "Layer",
    "MetricsReport", "MobilityTrace", "NanoflowError", "ProtocolParams",
    "Reception", "RegionEstimate", "RunConfig", "SimPlan",
    "SimResult", "TargetEvent", "Vessel", "VesselGraph",
    "baseline_localize", "build_reference_vasculature",
    "capacitance", "convergence_curve", "cycle_index", "decode_beacons", "dense_locations",
    "energy_at_cycle", "link_sample", "load_config", "load_graph",
    "locate_vessel", "path_loss_db", "point_error", "region_accuracy",
    "reliability", "run_benchmark", "run_events", "run_simulation",
    "sample_locations", "save_graph", "simulate_mobility",
    "turn_on_latency_cycles", "upsample_trace", "upsample_traces",
]
