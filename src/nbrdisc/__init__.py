"""Duty-cycled wake-up schedules and deterministic asynchronous neighbor
discovery: five protocol schedule generators (disco, uconnect, searchlight,
hedis, todis) over a shared slotted model, a congruence-solving core,
duty-cycle granularity analysis, and a pairwise discovery simulator.

The package exports the names of the README's library example; everything
else is imported from its submodule (``nbrdisc.protocols``,
``nbrdisc.simulator``, ``nbrdisc.granularity``, ``nbrdisc.numtheory``,
``nbrdisc.schedule``)."""

__version__ = "0.1.0"

from .protocols import select_params
from .simulator import cdf, latency_trials, verify_all_drifts

__all__ = ["__version__", "select_params", "latency_trials", "verify_all_drifts", "cdf"]
