"""Echo and Echo-Secure — the sound-based distance-bounding baseline (§VI-B3).

Echo [Sastry, Shankar, Wagner; WiSec 2003] bounds distance with a
challenge–response round trip: the verifier sends a nonce over RF (here:
Bluetooth), the prover *immediately* replays it over sound, and the
verifier converts the elapsed time into a distance after subtracting a
pre-calibrated processing delay.

The paper hardens Echo into **Echo-Secure** — randomized reference signals
plus the frequency-based detector — and shows it is still inaccurate on
commodity devices because the audio-path processing delay is large and
unpredictable.  The substrate models exactly that delay
(:class:`repro.devices.device.OsAudioPath`), so the baseline fails here for
the same physical reason it fails on phones.

Calibration follows the paper: run trials with the devices touching
(distance ≈ 0) and treat the mean elapsed time as the processing delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.environment import Environment
from repro.acoustics.mixer import AcousticMixer, PlaybackEvent, RecordingRequest
from repro.acoustics.propagation import PropagationModel
from repro.comms.bluetooth import BluetoothLink
from repro.comms.messages import RangingInit
from repro.core.config import ProtocolConfig
from repro.core.detection import FrequencyDetector
from repro.core.exceptions import PairingError
from repro.core.ranging import RangingOutcome, RangingStatus
from repro.core.signal_construction import construct_reference_signal
from repro.devices.device import Device
from repro.sim.geometry import Room
from repro.sim.pipeline import radiated_reference_waveform

__all__ = ["EchoSecureProtocol", "EchoRoundResult"]


@dataclass(frozen=True)
class EchoRoundResult:
    """One Echo round: the raw elapsed time and the derived distance."""

    status: RangingStatus
    elapsed_s: float | None = None
    distance_m: float | None = None

    @property
    def ok(self) -> bool:
        return self.status is RangingStatus.OK


class EchoSecureProtocol:
    """Echo with randomized references and frequency-based detection.

    Parameters
    ----------
    config:
        Protocol configuration (shared with ACTION for a fair comparison).
    record_span_s:
        How long the verifier records after sending the challenge.
    calibrated_delay_s:
        Mean processing delay subtracted from the elapsed time; ``None``
        until :meth:`calibrate` (or a caller) sets it.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        record_span_s: float = 1.2,
        calibrated_delay_s: float | None = None,
    ) -> None:
        self.config = config
        self.record_span_s = record_span_s
        self.calibrated_delay_s = calibrated_delay_s
        self.detector = FrequencyDetector(config)

    # ------------------------------------------------------------------

    def run_round(
        self,
        link: BluetoothLink,
        verifier: Device,
        prover: Device,
        environment: Environment,
        room: Room,
        propagation: PropagationModel,
        rng: np.random.Generator,
    ) -> EchoRoundResult:
        """One challenge–response round, verifier-side timing.

        The verifier's elapsed time spans: Bluetooth transfer, the prover's
        unpredictable audio-path latency, acoustic propagation, and the
        verifier's own record-start latency — only the propagation part
        carries distance information, which is why the subtraction of a
        *mean* delay leaves meters of error.
        """
        reference = construct_reference_signal(self.config, rng)
        message = RangingInit(
            session_id=0,
            signal_auth_indices=tuple(int(i) for i in reference.candidate_indices),
            signal_vouch_indices=(),
            record_span_s=self.record_span_s,
            vouch_play_offset_s=0.0,
        )
        try:
            _, bt_latency = link.transfer(message, rng)
        except PairingError:
            return EchoRoundResult(status=RangingStatus.BLUETOOTH_UNAVAILABLE)

        send_world = 0.0
        record_latency = verifier.os_audio.draw_record_latency(rng)
        record_start_world = send_world + record_latency
        # The prover plays "immediately" — i.e., after its unpredictable
        # audio-path latency.  This is the delay Echo cannot observe.
        prover_play_world = (
            send_world + bt_latency + prover.os_audio.draw_playback_latency(rng)
        )

        playback = PlaybackEvent(
            device=prover,
            waveform=radiated_reference_waveform(prover, reference),
            world_start=prover_play_world,
            label="echo-response",
        )
        mixer = AcousticMixer(
            environment=environment, room=room, propagation=propagation, rng=rng
        )
        n_samples = int(round(self.record_span_s * self.config.sample_rate))
        recording = mixer.render(
            RecordingRequest(verifier, record_start_world, n_samples), [playback]
        )

        result = self.detector.detect_single(recording, reference, label="echo")
        if not result.present:
            return EchoRoundResult(status=RangingStatus.SIGNAL_NOT_PRESENT)
        assert result.location is not None
        arrival_local = result.location / verifier.sample_rate
        # Verifier-side elapsed time from challenge send to acoustic
        # arrival, as measurable on its own clock.
        elapsed = record_latency + arrival_local - send_world
        distance = None
        if self.calibrated_delay_s is not None:
            distance = self.config.speed_of_sound * (
                elapsed - self.calibrated_delay_s
            )
        return EchoRoundResult(
            status=RangingStatus.OK, elapsed_s=elapsed, distance_m=distance
        )

    # ------------------------------------------------------------------

    def calibrate(
        self,
        link: BluetoothLink,
        verifier: Device,
        prover: Device,
        environment: Environment,
        room: Room,
        propagation: PropagationModel,
        rng: np.random.Generator,
        n_trials: int = 10,
    ) -> float:
        """§VI-B3 calibration: devices together, mean elapsed = delay.

        Temporarily moves the prover next to the verifier, measures the
        mean elapsed time over ``n_trials`` rounds, restores the prover's
        position, stores and returns the calibrated delay.
        """
        original_position = prover.position
        prover.move_to(verifier.position.translated(0.02, 0.0))
        elapsed: list[float] = []
        try:
            for _ in range(n_trials):
                round_result = self.run_round(
                    link, verifier, prover, environment, room, propagation, rng
                )
                if round_result.ok and round_result.elapsed_s is not None:
                    elapsed.append(round_result.elapsed_s)
        finally:
            prover.move_to(original_position)
        if not elapsed:
            raise RuntimeError("Echo calibration failed: no round completed")
        self.calibrated_delay_s = float(np.mean(elapsed))
        return self.calibrated_delay_s

    def to_outcome(self, round_result: EchoRoundResult) -> RangingOutcome:
        """Adapt an Echo round to the common :class:`RangingOutcome` shape."""
        return RangingOutcome(
            status=round_result.status,
            distance_m=round_result.distance_m,
        )
