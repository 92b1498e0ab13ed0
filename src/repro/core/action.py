"""ACTION — the paper's distance-estimation protocol (§IV), substrate-free.

This module holds the *protocol logic* of ACTION's six steps — signal
construction (I), detection (IV), and distance computation (VI) — as pure
functions over sample buffers.  The acoustic I/O (III) and the Bluetooth
exchange (II, V) are supplied by an orchestrator: in this repository that is
the round driver of :mod:`repro.sim.pipeline`, which drives real(istic)
devices in the simulated world; the same logic would drive actual hardware.

Separating logic from I/O keeps the paper's algorithms directly testable:
the unit tests feed synthetic recordings straight into :meth:`observe` and
:meth:`finalize` without standing up a world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.detection import (
    DetectionResult,
    FrequencyDetector,
    SignalHypothesis,
)
from repro.core.frequencies import build_frequency_plan
from repro.core.ranging import (
    DeviceObservation,
    RangingOutcome,
    RangingStatus,
)
from repro.core.signal_construction import (
    ReferenceSignal,
    construct_reference_signal,
)

__all__ = ["SignalPair", "ActionRanging"]


@dataclass(frozen=True)
class SignalPair:
    """The two reference signals of one ranging round (Step I output)."""

    auth: ReferenceSignal  # S_A — played by the authenticating device
    vouch: ReferenceSignal  # S_V — played by the vouching device


class ActionRanging:
    """Protocol-logic engine for one configuration."""

    def __init__(self, config: ProtocolConfig) -> None:
        self.config = config
        self.plan = build_frequency_plan(config)
        self.detector = FrequencyDetector(config, self.plan)

    # ------------------------------------------------------------------
    # Step I — construct the randomized reference signals
    # ------------------------------------------------------------------

    def construct_signals(self, rng: np.random.Generator) -> SignalPair:
        """Draw fresh randomized S_A and S_V (independent subsets)."""
        return SignalPair(
            auth=construct_reference_signal(self.config, rng),
            vouch=construct_reference_signal(self.config, rng),
        )

    # ------------------------------------------------------------------
    # Step IV — detect both signals in one device's recording
    # ------------------------------------------------------------------

    def observe(
        self,
        recording: np.ndarray,
        own: ReferenceSignal,
        remote: ReferenceSignal,
        sample_rate: float,
    ) -> DeviceObservation:
        """One device's detections: its own signal and the peer's.

        The own signal is located first (it is by far the loudest content
        in the buffer).  The remote scan then masks the own-signal
        neighbourhood: the playback schedule separates the two signals by
        several signal-lengths plus the worst-case propagation delay, so a
        remote signal can never legitimately sit there, while the loud own
        signal could otherwise capture the scan whenever the two random
        frequency subsets overlap heavily.
        """
        own_result = self.detector.detect(recording, [own], ["own"])[0]
        zones = self._own_exclusion_zones(own_result)
        remote_result = self.detector.detect(
            recording, [remote], ["remote"], exclusion_zones=[zones]
        )[0]
        return DeviceObservation(
            own=own_result, remote=remote_result, sample_rate=sample_rate
        )

    def _own_exclusion_zones(
        self, own_result: DetectionResult
    ) -> list[tuple[int, int]]:
        """The own-signal neighbourhood masked from the remote scan."""
        if not own_result.present:
            return []
        assert own_result.location is not None
        guard = self.config.signal_length + 512
        return [(own_result.location - guard, own_result.location + guard)]

    def observe_batch(
        self,
        recordings: np.ndarray,
        scans: Sequence[tuple[ReferenceSignal, ReferenceSignal, float]],
    ) -> list[DeviceObservation]:
        """Step IV for many recordings in stacked FFT passes.

        Parameters
        ----------
        recordings:
            ``(M, n_samples)`` stack of equal-length capture buffers —
            typically the 2·B recordings of one
            :class:`~repro.sim.pipeline.BatchedSessionRunner` batch.
        scans:
            ``(own, remote, sample_rate)`` per recording, mirroring the
            arguments of :meth:`observe`.

        Returns
        -------
        list[DeviceObservation]
            Bit-identical to calling :meth:`observe` per recording: the
            scan phases (:meth:`~repro.core.detection.FrequencyDetector
            .plan_fine_scan` / ``resolve_fine_scan``) are the same code,
            the per-window FFT/power arithmetic is row-wise independent,
            and the serial path's second coarse pass over the same
            recording (for the remote scan) recomputes exactly the matrix
            reused here.  Instead of 2·M coarse and 2·M fine FFT batches,
            the whole step runs in one stacked coarse pass and two stacked
            fine passes (own scans, then remote scans, whose planning
            depends on the own results).
        """
        recordings = np.asarray(recordings, dtype=np.float64)
        if recordings.ndim != 2:
            raise ValueError(
                f"expected a 2-D recording stack, got shape {recordings.shape}"
            )
        if recordings.shape[0] != len(scans):
            raise ValueError(
                f"{recordings.shape[0]} recordings but {len(scans)} scans"
            )
        detector = self.detector
        n_samples = recordings.shape[1]
        count = len(scans)
        coarse_starts = detector.coarse_starts(n_samples)

        own_hyps = [
            SignalHypothesis.from_reference(own, self.plan, "own")
            for own, _remote, _rate in scans
        ]
        remote_hyps = [
            SignalHypothesis.from_reference(remote, self.plan, "remote")
            for _own, remote, _rate in scans
        ]
        if coarse_starts.size == 0:
            return [
                DeviceObservation(
                    own=detector.empty_result(own_hyp),
                    remote=detector.empty_result(remote_hyp),
                    sample_rate=scan[2],
                )
                for own_hyp, remote_hyp, scan in zip(
                    own_hyps, remote_hyps, scans
                )
            ]

        # One stacked coarse pass covers every recording; the serial path
        # computes this matrix once per detect() call (twice per
        # recording), always with identical values.
        coarse_powers = detector.candidate_powers_stacked(
            recordings, [(i, coarse_starts) for i in range(count)]
        )

        # Own scans: plan every fine pass, stack their FFT work.
        own_fine_starts = [
            detector.plan_fine_scan(
                coarse_starts, coarse_powers[i], own_hyps[i], [], n_samples
            )
            for i in range(count)
        ]
        own_fine_powers = detector.candidate_powers_stacked(
            recordings, list(enumerate(own_fine_starts))
        )
        own_results = [
            detector.resolve_fine_scan(
                own_fine_starts[i],
                own_fine_powers[i],
                own_hyps[i],
                [],
                windows_scanned=int(
                    coarse_starts.size + own_fine_starts[i].size
                ),
            )
            for i in range(count)
        ]

        # Remote scans: masking depends on each own result, so the
        # planning happens now — but the FFT work still stacks.
        zones = [self._own_exclusion_zones(result) for result in own_results]
        remote_fine_starts = [
            detector.plan_fine_scan(
                coarse_starts,
                coarse_powers[i],
                remote_hyps[i],
                zones[i],
                n_samples,
            )
            for i in range(count)
        ]
        remote_fine_powers = detector.candidate_powers_stacked(
            recordings, list(enumerate(remote_fine_starts))
        )
        remote_results = [
            detector.resolve_fine_scan(
                remote_fine_starts[i],
                remote_fine_powers[i],
                remote_hyps[i],
                zones[i],
                windows_scanned=int(
                    coarse_starts.size + remote_fine_starts[i].size
                ),
            )
            for i in range(count)
        ]
        return [
            DeviceObservation(
                own=own_results[i],
                remote=remote_results[i],
                sample_rate=scans[i][2],
            )
            for i in range(count)
        ]

    # ------------------------------------------------------------------
    # Step VI — combine the two observations into a distance
    # ------------------------------------------------------------------

    def finalize(
        self,
        auth_observation: DeviceObservation,
        vouch_ok: bool,
        vouch_delta_seconds: float,
    ) -> RangingOutcome:
        """Equation 3 from the authenticating device's viewpoint.

        Parameters
        ----------
        auth_observation:
            The authenticating device's local detections.
        vouch_ok:
            Whether the vouching device found both signals (Step V reports
            failure otherwise, and PIANO denies).
        vouch_delta_seconds:
            The vouching device's reported ``t_VA − t_VV``.
        """
        if not vouch_ok or not auth_observation.complete:
            return RangingOutcome(
                status=RangingStatus.SIGNAL_NOT_PRESENT,
                auth_observation=auth_observation,
            )
        delta_auth = auth_observation.local_delta_seconds
        distance = (
            0.5 * self.config.speed_of_sound * (delta_auth + vouch_delta_seconds)
        )
        return RangingOutcome(
            status=RangingStatus.OK,
            distance_m=distance,
            auth_observation=auth_observation,
        )

    def finalize_with_observations(
        self,
        auth_observation: DeviceObservation,
        vouch_observation: DeviceObservation,
    ) -> RangingOutcome:
        """Convenience finalize when both observations are locally available.

        Tests and baselines use this; the real message flow goes through
        :meth:`finalize` with the vouching device's transmitted delta.
        """
        vouch_ok = vouch_observation.complete
        delta = vouch_observation.local_delta_seconds if vouch_ok else 0.0
        outcome = self.finalize(auth_observation, vouch_ok, delta)
        if outcome.status is RangingStatus.OK:
            return RangingOutcome(
                status=RangingStatus.OK,
                distance_m=outcome.distance_m,
                auth_observation=auth_observation,
                vouch_observation=vouch_observation,
            )
        return RangingOutcome(
            status=outcome.status,
            auth_observation=auth_observation,
            vouch_observation=vouch_observation,
        )
