"""Step VI — translating detected locations into a distance (§IV-D).

The paper derives three estimators:

* Eq. 1: ``d_A = s·(t_VA − t_AA)`` — needs synchronized clocks;
* Eq. 2: ``d_V = s·(t_AV − t_VV)`` — needs synchronized clocks;
* Eq. 3: ``d_AV = ½·s·( (l_AV − l_AA)/f_A − (l_VV − l_VA)/f_V )`` — the
  BeepBeep-style average of Eq. 1 and Eq. 2 in which the unknown clock
  offsets cancel, leaving only *local* sample-index differences.

Each device reduces its two detected locations to a local time difference;
the vouching device ships its difference over the secure channel (Step V)
and the authenticating device evaluates Eq. 3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.core.detection import DetectionResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import numpy as np

    from repro.core.config import ProtocolConfig

__all__ = [
    "DeviceObservation",
    "RangingEngine",
    "RangingStatus",
    "RangingOutcome",
    "estimate_distance",
    "distance_one_way",
]


class RangingEngine(Protocol):
    """Structural interface of a ranging engine.

    :class:`repro.core.action.ActionRanging` is the canonical
    implementation; :class:`repro.baselines.cc_detector.ActionCCRanging`
    swaps the detector.  A :class:`repro.sim.pipeline.Session` drives any
    object with this shape, and the evaluation engine ships
    instances to worker processes — so implementations must be picklable.
    """

    config: "ProtocolConfig"

    def construct_signals(self, rng: "np.random.Generator"): ...

    def observe(
        self,
        recording: "np.ndarray",
        own,
        remote,
        sample_rate: float,
    ) -> DeviceObservation: ...

    def finalize(
        self,
        auth_observation: DeviceObservation,
        vouch_ok: bool,
        vouch_delta_seconds: float,
    ) -> "RangingOutcome": ...


class RangingStatus(enum.Enum):
    """Terminal states of one ACTION ranging round."""

    OK = "ok"
    #: One of the four detections returned ⊥ (Algorithm 1, line 13).
    SIGNAL_NOT_PRESENT = "signal_not_present"
    #: The Bluetooth link failed before or during the exchange.
    BLUETOOTH_UNAVAILABLE = "bluetooth_unavailable"
    #: A secure-channel message failed authentication.
    CHANNEL_TAMPERED = "channel_tampered"


@dataclass(frozen=True)
class DeviceObservation:
    """One device's detected locations for the two reference signals.

    Attributes
    ----------
    own:
        Detection of the signal this device itself played (l_AA on the
        authenticating device, l_VV on the vouching device).
    remote:
        Detection of the signal played by the peer device (l_AV on the
        authenticating device, l_VA on the vouching device).
    sample_rate:
        This device's nominal microphone sampling frequency (f_A or f_V).
    """

    own: DetectionResult
    remote: DetectionResult
    sample_rate: float

    @property
    def complete(self) -> bool:
        """Whether both signals were found in this device's recording."""
        return self.own.present and self.remote.present

    @property
    def local_delta_seconds(self) -> float:
        """The device's local time difference (remote − own), in seconds.

        For the authenticating device this is ``(l_AV − l_AA)/f_A``; for the
        vouching device, ``(l_VA − l_VV)/f_V = t_VA − t_VV`` — exactly the
        quantity Step V transmits.  Note the roles of own/remote flip the
        sign convention between the two devices; callers use
        :func:`estimate_distance` which handles it.
        """
        if not self.complete:
            raise ValueError("cannot compute a time delta from a ⊥ detection")
        assert self.remote.location is not None and self.own.location is not None
        return (self.remote.location - self.own.location) / self.sample_rate


def estimate_distance(
    auth_observation: DeviceObservation,
    vouch_observation: DeviceObservation,
    speed_of_sound: float,
) -> float:
    """Equation 3: the synchronization-free two-way distance estimate.

    ``d_AV = ½·s·( (l_AV − l_AA)/f_A + (l_VA − l_VV)/f_V )``

    (the paper writes the second term as ``−(l_VV − l_VA)/f_V``; both are
    the vouching device's ``remote − own`` delta, i.e. its
    ``local_delta_seconds``).
    """
    delta_auth = auth_observation.local_delta_seconds
    delta_vouch = vouch_observation.local_delta_seconds
    return 0.5 * speed_of_sound * (delta_auth + delta_vouch)


def distance_one_way(
    t_received: float, t_played: float, speed_of_sound: float
) -> float:
    """Equations 1/2: the naive one-way estimate from absolute timestamps.

    Only correct when both timestamps share a time coordinate.  Provided so
    the tests and examples can demonstrate the paper's point that a 10 ms
    synchronization error already costs > 3 m of distance error.
    """
    return speed_of_sound * (t_received - t_played)


@dataclass(frozen=True)
class RangingOutcome:
    """Result of one full ACTION round, as seen by the authenticating device.

    Attributes
    ----------
    status:
        Terminal state; ``distance_m`` is only meaningful for ``OK``.
    distance_m:
        The Eq. 3 estimate, or ``None``.
    auth_observation, vouch_observation:
        Per-device diagnostics (``None`` when the round aborted before the
        exchange completed).
    elapsed_s:
        Modeled wall-clock duration of the round (see §VI-D reproduction).
    energy_j:
        Modeled energy drawn from the authenticating device's battery.
    """

    status: RangingStatus
    distance_m: float | None = None
    auth_observation: DeviceObservation | None = None
    vouch_observation: DeviceObservation | None = None
    elapsed_s: float = 0.0
    energy_j: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is RangingStatus.OK

    def require_distance(self) -> float:
        """The estimated distance, raising if the round did not complete."""
        if self.distance_m is None:
            raise ValueError(f"ranging round ended with status {self.status}")
        return self.distance_m
