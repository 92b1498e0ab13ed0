"""The arrival mixer: renders what each microphone records.

Given a set of playback events (who radiated which waveform, starting at
which world time) and a recording request (which device listens, from when,
for how many samples), the mixer assembles the device's capture buffer:

1. background environment noise plus microphone self-noise,
2. every playback's arrival — delayed by propagation, scaled by spreading ×
   wall loss × transducer gains, convolved with the random per-pair channel
   filter (frequency smoothing), warped by the relative clock skew of the
   source/sink pair, and placed at the sample index the sink's own clock
   assigns to the arrival time,
3. 16-bit quantization, exactly like an Android capture buffer.

Sample placement is rounded to the sink's sample grid; one sample at
44.1 kHz is 7.8 mm of acoustic travel, an order of magnitude below the
paper's reported errors (DESIGN.md §3).

Two-phase rendering
-------------------
A capture renders in two phases with a data boundary between them:

* :meth:`AcousticMixer.plan_capture` — the **RNG phase**: noise synthesis,
  microphone self-noise, and lazy channel-filter draws, consuming the
  session RNG in exactly the order the one-shot ``render`` loop always
  drew (noise → self-noise → per-playback channel draws, skipping pairs
  whose end-to-end amplitude is negligible);
* :func:`render_capture_jobs` — the **arrival phase**: pure deterministic
  math (convolve × amplitude → clock-skew warp → placement → quantize)
  over the planned arrivals, routed through the active
  :mod:`repro.dsp.backend` kernels.

Because the arrival phase is RNG-free and per-arrival independent, the
batched pipeline hands the capture jobs of *all* sessions of a batch to
one :func:`render_capture_jobs` call, which stacks equal-shape
(waveform, taps) pairs into batched convolutions.  ``render`` itself is
the two phases composed for a single capture — so the serial, staged, and
batched paths run the very same kernel calls per arrival and produce
bit-identical buffers by construction (accumulation into the capture
buffer always happens in playback order, per capture).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.environment import Environment
from repro.acoustics.noise import NoiseDraw
from repro.acoustics.propagation import PropagationModel
from repro.devices.device import Device
from repro.dsp.backend import get_backend
from repro.dsp.quantize import quantize_pcm16
from repro.dsp.resample import apply_clock_skew
from repro.sim.geometry import Room

__all__ = [
    "PlaybackEvent",
    "RecordingRequest",
    "PlannedArrival",
    "CaptureJob",
    "AcousticMixer",
    "render_capture_jobs",
]


@dataclass(frozen=True)
class PlaybackEvent:
    """One radiated waveform.

    Attributes
    ----------
    device:
        The radiating device (position and hardware are read from it).
    waveform:
        The radiated waveform — *after* the speaker model
        (:meth:`repro.devices.audio.SpeakerSpec.radiate`) — at the source's
        nominal sample rate.
    world_start:
        World time at which the first sample leaves the speaker.
    label:
        Diagnostic tag ("S_A", "S_V", "interferer-1", "spoof", …).
    """

    device: Device
    waveform: np.ndarray
    world_start: float
    label: str = ""

    def __post_init__(self) -> None:
        waveform = np.asarray(self.waveform, dtype=np.float64)
        if waveform.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {waveform.shape}")
        waveform.setflags(write=False)
        object.__setattr__(self, "waveform", waveform)


@dataclass(frozen=True)
class RecordingRequest:
    """One device's capture: ``n_samples`` starting at ``world_start``."""

    device: Device
    world_start: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")


@dataclass(frozen=True)
class PlannedArrival:
    """One playback's contribution to one capture, ready for DSP.

    Everything random (the channel taps) is already realized; turning a
    planned arrival into samples is pure arithmetic.
    """

    waveform: np.ndarray
    taps: np.ndarray
    amplitude: float
    start_index: int
    relative_ppm: float


@dataclass
class CaptureJob:
    """RNG-phase output for one capture: raw noise draws + planned arrivals.

    Everything random is already drawn (environment-noise buffers,
    microphone self-noise, channel taps inside the arrivals); the noise
    *shaping* — the Butterworth coloring of the white draw — is deferred
    to the arrival phase so a batch can run it as one stacked filter pass
    over every capture.
    """

    n_samples: int
    noise: NoiseDraw
    self_noise: np.ndarray
    arrivals: list[PlannedArrival] = field(default_factory=list)


@dataclass
class AcousticMixer:
    """Renders microphone captures for one session.

    Channel filters are realized lazily per (source, sink) device pair and
    cached for the lifetime of the mixer, so the two directions of one
    ranging session each see a single consistent channel — but a new mixer
    (new session) draws fresh channels, reproducing the per-session
    variability of real hardware and air.
    """

    environment: Environment
    room: Room = field(default_factory=Room.open_space)
    propagation: PropagationModel = field(default_factory=PropagationModel)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    _channels: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )

    def _channel_taps(self, source: Device, sink: Device) -> np.ndarray:
        key = (source.name, sink.name)
        taps = self._channels.get(key)
        if taps is None:
            if source.name == sink.name:
                profile = self.environment.reverb.self_path()
            else:
                profile = self.environment.reverb
            taps = profile.draw_channel(self.rng).taps
            self._channels[key] = taps
        return taps

    def _pair_amplitude(self, source: Device, sink: Device) -> float:
        """End-to-end amplitude factor excluding the speaker gain.

        The speaker gain is already baked into the radiated waveform; this
        factor covers spreading, walls, and the microphone gain.
        """
        if source.name == sink.name:
            spreading = self.propagation.spreading_factor(source.speaker.self_gap_m)
            wall_factor = 1.0
        else:
            spreading = self.propagation.spreading_factor(source.distance_to(sink))
            wall_factor = self.room.path_amplitude_factor(
                source.position, sink.position
            )
        return spreading * wall_factor * sink.microphone.gain

    def _arrival_distance(self, source: Device, sink: Device) -> float:
        if source.name == sink.name:
            return source.speaker.self_gap_m
        return source.distance_to(sink)

    def plan_capture(
        self, request: RecordingRequest, playbacks: list[PlaybackEvent]
    ) -> CaptureJob:
        """The RNG phase: draw the noise bed and realize every channel.

        Consumes the mixer RNG in exactly the order the one-shot render
        loop always drew: environment noise, microphone self-noise, then
        one channel draw per *new* audible (source, sink) pair in playback
        order — pairs whose end-to-end amplitude is negligible are skipped
        before any draw, matching the historical control flow.
        """
        sink = request.device
        noise = self.environment.noise.draw(
            request.n_samples, sink.sample_rate, self.rng
        )
        self_noise = sink.microphone.self_noise(request.n_samples, self.rng)

        arrivals: list[PlannedArrival] = []
        for playback in playbacks:
            source = playback.device
            amplitude = self._pair_amplitude(source, sink)
            if amplitude <= 1e-9:
                continue
            distance = self._arrival_distance(source, sink)
            arrival_world = playback.world_start + self.propagation.delay_s(distance)
            start_index = int(
                round(sink.clock.sample_index(arrival_world, request.world_start))
            )
            arrivals.append(
                PlannedArrival(
                    waveform=playback.waveform,
                    taps=self._channel_taps(source, sink),
                    amplitude=amplitude,
                    start_index=start_index,
                    relative_ppm=sink.clock.skew_ppm - source.clock.skew_ppm,
                )
            )
        return CaptureJob(
            n_samples=request.n_samples,
            noise=noise,
            self_noise=self_noise,
            arrivals=arrivals,
        )

    def render(self, request: RecordingRequest, playbacks: list[PlaybackEvent]) -> np.ndarray:
        """Render the capture buffer for ``request``.

        Returns ``n_samples`` of quantized 16-bit-valued float samples in
        the sink device's own clock/sample grid.  Equivalent to the RNG
        phase plus a one-job arrival phase — the same kernels the batched
        pipeline runs, at B = 1.
        """
        return render_capture_jobs([self.plan_capture(request, playbacks)])[0]

    @staticmethod
    def _add_at(buffer: np.ndarray, signal: np.ndarray, start: int) -> None:
        """Add ``signal`` into ``buffer`` at ``start``, clipping the overlap."""
        n = buffer.shape[0]
        lo = max(start, 0)
        hi = min(start + signal.shape[0], n)
        if hi <= lo:
            return
        buffer[lo:hi] += signal[lo - start : hi - start]


def _realized_arrival_signals(
    jobs: list[CaptureJob],
) -> dict[tuple[int, int], np.ndarray]:
    """Convolved (pre-skew) arrival signals for every job, batched.

    Equal-shape (waveform, taps) pairs across *all* jobs are stacked into
    one batched-convolution kernel call; remaining singletons use the
    scalar kernel.  Keyed by ``(job_index, arrival_index)``.  The
    batched kernel is row-wise ``np.convolve``, so grouping is
    purely a dispatch decision and never changes a value.
    """
    backend = get_backend()
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for job_index, job in enumerate(jobs):
        for arrival_index, arrival in enumerate(job.arrivals):
            shape = (arrival.waveform.shape[0], arrival.taps.shape[0])
            groups.setdefault(shape, []).append((job_index, arrival_index))

    signals: dict[tuple[int, int], np.ndarray] = {}
    for members in groups.values():
        if len(members) == 1:
            job_index, arrival_index = members[0]
            arrival = jobs[job_index].arrivals[arrival_index]
            signals[members[0]] = backend.convolve(
                arrival.waveform, arrival.taps
            )
            continue
        stacked_waveforms = np.stack(
            [jobs[j].arrivals[a].waveform for j, a in members]
        )
        stacked_taps = np.stack([jobs[j].arrivals[a].taps for j, a in members])
        convolved = backend.convolve_batch(stacked_waveforms, stacked_taps)
        for row, key in enumerate(members):
            signals[key] = convolved[row]
    return signals


def _shaped_noise_buffers(jobs: list[CaptureJob]) -> list[np.ndarray]:
    """Noise beds for every job, with the coloring filter batched.

    White draws that share a filter design and length are stacked into
    one :meth:`~repro.dsp.backend.DSPBackend.sosfilt` call (the filter
    state is per row, so a stacked pass filters each row exactly as a
    solo pass would); singletons filter alone, which is literally the
    historical call.  Scaling/mixing then runs per job in the historical
    order (colored → broadband → self-noise).
    """
    backend = get_backend()
    groups: dict[tuple, list[int]] = {}
    for index, job in enumerate(jobs):
        if job.noise.white is not None:
            model = job.noise.model
            key = (
                model.filter_order,
                model.low_freq_cutoff_hz,
                job.noise.sample_rate,
                job.noise.n_samples,
            )
            groups.setdefault(key, []).append(index)

    colored: dict[int, np.ndarray] = {}
    for members in groups.values():
        sos = jobs[members[0]].noise.model.sos(jobs[members[0]].noise.sample_rate)
        if len(members) == 1:
            index = members[0]
            colored[index] = backend.sosfilt(sos, jobs[index].noise.white)
        else:
            stacked = backend.sosfilt(
                sos, np.stack([jobs[i].noise.white for i in members])
            )
            for row, index in enumerate(members):
                colored[index] = stacked[row]

    buffers: list[np.ndarray] = []
    for index, job in enumerate(jobs):
        buffer = job.noise.model.shape(job.noise, colored.get(index))
        buffer += job.self_noise
        buffers.append(buffer)
    return buffers


def render_capture_jobs(jobs: list[CaptureJob]) -> list[np.ndarray]:
    """The arrival phase: finalize planned captures into sample buffers.

    Deterministic given the jobs (no RNG): noise shaping (filter passes
    stacked across jobs), convolution (stacked across jobs where shapes
    agree), amplitude scaling, clock-skew warping, and placement — the
    latter strictly in each job's arrival (= playback) order, so the
    floating-point accumulation into every capture buffer matches the
    serial loop bit for bit.
    """
    buffers = _shaped_noise_buffers(jobs)
    signals = _realized_arrival_signals(jobs)
    recordings: list[np.ndarray] = []
    for job_index, (job, buffer) in enumerate(zip(jobs, buffers)):
        for arrival_index, arrival in enumerate(job.arrivals):
            received = signals[(job_index, arrival_index)] * arrival.amplitude
            if arrival.relative_ppm:
                received = apply_clock_skew(received, arrival.relative_ppm)
            AcousticMixer._add_at(buffer, received, arrival.start_index)
        recordings.append(quantize_pcm16(buffer))
    return recordings
