"""Exception types shared across the simulator and benchmark layers."""


class NanoflowError(Exception):
    """Base class for all package-specific errors."""


class InvalidGraph(NanoflowError):
    """Vessel graph failed structural validation."""


class EmptyTrace(NanoflowError):
    """A mobility trace with no samples was passed where samples are required."""


class EnergyOutOfRange(NanoflowError):
    """Energy value outside [0, E_max) where the harvesting model is defined."""


class ConfigError(NanoflowError):
    """Bad or inconsistent run configuration; message names the offending key."""


class EventRunsFailed(NanoflowError):
    """Every event run of a benchmark failed, so there is nothing to score."""


class ConfigMismatch(NanoflowError, ValueError):
    """Simulation inputs out of range or disagreeing (e.g. trace shorter than run)."""


def require(ok: bool, field: str, reason: str) -> None:
    """A run-plan field's range check: raise ConfigMismatch("<field> <reason>") unless ok."""
    if not ok:
        raise ConfigMismatch(f"{field} {reason}")


class MismatchedSets(NanoflowError):
    """Estimate set does not line up with the ground-truth event set."""


class NoEstimate(NanoflowError):
    """Point error requested for an estimate that carries neither region nor point."""


class SampleTooLarge(NanoflowError):
    """Requested sample size exceeds the candidate set."""


class ExternalDataError(NanoflowError):
    """External estimates file is malformed."""
