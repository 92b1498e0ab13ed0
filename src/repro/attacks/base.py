"""Common attacker scaffolding for the threat model of §III and §V.

Every attack targets the same scenario: the legitimate user (carrying the
vouching device) has walked away; an attacker with physical access to the
authenticating device tries to get PIANO to grant.  Attacks differ only in
the acoustic content the attacker injects during the ranging session, so
each attack class is an :data:`~repro.sim.pipeline.InterferenceProvider`
factory plus a success criterion (``granted``).

The attacker's knowledge, per §V: the candidate frequency set F_R and the
construction algorithm are public; the *sampled subsets* of a session are
secret (they cross the Bluetooth secure channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.mixer import PlaybackEvent
from repro.core.config import AuthConfig, ProtocolConfig
from repro.core.decisions import AuthResult
from repro.devices.device import Device
from repro.sim.world import AcousticWorld

__all__ = ["AttackOutcome", "Attack", "attacker_device"]


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack trial."""

    granted: bool
    auth_result: AuthResult

    @property
    def denied(self) -> bool:
        return not self.granted


def attacker_device(world: AcousticWorld, name: str, position) -> Device:
    """Register the attacker's own playback hardware in the world.

    The attacker device never pairs with anyone; it exists only as an
    acoustic source.
    """
    return world.add_device(name, position)


@dataclass
class Attack:
    """Base class: runs one authentication attempt under attack.

    Attributes
    ----------
    world:
        The scene (devices must already exist and be paired).
    auth_name, vouch_name:
        The victim pair.
    attacker:
        The attacker's playback device.
    auth_config:
        The victim's authentication configuration.
    """

    world: AcousticWorld
    auth_name: str
    vouch_name: str
    attacker: Device
    auth_config: AuthConfig = field(default_factory=AuthConfig)

    @property
    def config(self) -> ProtocolConfig:
        return self.world.config

    def playbacks(
        self, window_start: float, window_end: float, rng: np.random.Generator
    ) -> list[PlaybackEvent]:
        """The acoustic content this attack injects (override)."""
        raise NotImplementedError

    def run(self) -> AttackOutcome:
        """Execute one attacked authentication attempt."""
        result = self.world.authenticate(
            self.auth_name,
            self.vouch_name,
            self.auth_config,
            interference=[self.playbacks],
        )
        return AttackOutcome(granted=result.granted, auth_result=result)
