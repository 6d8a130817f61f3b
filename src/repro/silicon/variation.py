"""Die-to-die variation sampling.

The manufacturing lottery: each die's threshold voltage lands some distance
from nominal.  :class:`VariationSampler` draws those outcomes from a seeded,
named random stream so a given (model, serial) pair always yields the same
silicon — the simulator's analogue of "the phone you actually bought".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.rng import DEFAULT_ROOT_SEED, derive_stream
from repro.silicon.process import ProcessNode
from repro.silicon.transistor import SiliconProfile

#: Clamp sampled V_th shifts to this many sigmas; dies beyond it fail test
#: and never ship (the paper's bin-4 Nexus 5 chip died during the study).
MAX_SIGMA = 3.0


@dataclass(frozen=True)
class VariationSampler:
    """Samples :class:`SiliconProfile` instances for a process node.

    Attributes
    ----------
    process:
        The process node whose ``vth_sigma`` sets the spread.
    root_seed:
        Root seed for stream derivation; distinct seeds are distinct fabs.
    """

    process: ProcessNode
    root_seed: int = DEFAULT_ROOT_SEED

    def sample(self, *stream_keys: str) -> SiliconProfile:
        """Sample the die identified by ``stream_keys`` (e.g. model, serial)."""
        if not stream_keys:
            raise ConfigurationError("at least one stream key is required")
        rng = derive_stream(self.root_seed, self.process.name, *stream_keys)
        sigma = self.process.vth_sigma
        delta = float(rng.normal(0.0, sigma))
        delta = max(-MAX_SIGMA * sigma, min(MAX_SIGMA * sigma, delta))
        return SiliconProfile.from_vth_delta(self.process, delta)

    def from_percentile(self, percentile: float) -> SiliconProfile:
        """Return the die at a given V_th percentile (0 = slowest, 100 = fastest).

        Useful for constructing fleets with known corner placement, e.g.
        "a bin-0-ish chip" without sampling.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ConfigurationError("percentile must be within [0, 100]")
        # Map percentile to sigma via the probit function approximation.
        from statistics import NormalDist

        z = NormalDist().inv_cdf(min(max(percentile / 100.0, 1e-9), 1.0 - 1e-9))
        z = max(-MAX_SIGMA, min(MAX_SIGMA, z))
        # High percentile == fast == negative vth_delta.
        return SiliconProfile.from_vth_delta(self.process, -z * self.process.vth_sigma)
