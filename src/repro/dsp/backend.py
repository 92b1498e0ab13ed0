"""The DSP kernels of the ranging hot paths.

Every spectral hot path — the detector's batched ``rfft``/window-power
passes, the mixer's arrival convolutions, the noise-shaping ``sosfilt``
— calls its kernel through the process-wide :class:`DSPBackend` that
:func:`get_backend` returns, instead of calling numpy/scipy directly.
There is one kernel set, the numpy reference: ``np.fft.rfft``, the
``(2·|X|/N)²``-and-sum power formula, per-row ``np.convolve`` and
``scipy.signal.sosfilt``, so its results define what "correct bits"
means for the whole repo.

The instance stays a seam for two callers: tests install a substitute
or wrapped instance with :func:`use_backend`, and ``perfbench`` wraps
the kernels of the live instance to time them as spans.  Kernels are
stateless and row-wise independent, so batching rows across sessions
or chunking the windows of one scan never changes an output bit — what
makes cross-session batching and the service's shared DSP executor
safe.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
from scipy import signal as sp_signal

__all__ = [
    "DEFAULT_FFT_CHUNK_WINDOWS",
    "DSPBackend",
    "get_backend",
    "set_backend",
    "use_backend",
]

#: Default windows per FFT dispatch of the detector
#: (:attr:`repro.core.detection.FrequencyDetector.MAX_FFT_WINDOWS`).  It
#: bounds the FFT kernel's transient, the (n_windows, n_bins) spectrum
#: block: 64 × 4096-point windows is about 2 MB, so the render/detect
#: fan-out's threads hold little spectrum at once and peak memory stays
#: flat as they are added.  Smaller dispatches cost no speed, although
#: they split the 241-window fine pass into four: on a 2-core x86 host
#: one unfanned process ran the Fig. 1 grid (batch 16) at a median 23.5
#: trials/s with 64-window chunks against 22.8 with 512, over six
#: interleaved runs each.  Chunking is row-independent, so any value is
#: bit-identical.
DEFAULT_FFT_CHUNK_WINDOWS = 64


class DSPBackend:
    """The numpy reference kernels; stateless and safe to share."""

    name = "numpy"

    def rfft(self, batch: np.ndarray, axis: int = -1) -> np.ndarray:
        """Batched real FFT along ``axis``.

        ``batch`` may be strided (e.g. a sliding-window view sliced at
        the scan step); it is transformed without a contiguous copy
        first.
        """
        return np.fft.rfft(batch, axis=axis)

    def window_powers(
        self, windows: np.ndarray, rfft_bins: np.ndarray, length: int
    ) -> np.ndarray:
        """Aggregated per-candidate powers for a window batch.

        Parameters
        ----------
        windows:
            ``(n_windows, length)`` real batch — possibly a strided view.
        rfft_bins:
            ``(n_candidates, n_agg)`` integer matrix of rfft bin indices
            (the paper's ±θ aggregation bins folded onto the half
            spectrum).
        length:
            FFT length (``windows.shape[1]``), the ``N`` of the
            ``(2·|X[k]|/N)²`` normalization.

        Returns
        -------
        numpy.ndarray
            ``(n_windows, n_candidates)`` float64 matrix.  The FFT goes
            through :meth:`rfft`, so a wrapped ``rfft`` sees these calls.
        """
        spectra = self.rfft(windows, axis=1)
        gathered = spectra[:, rfft_bins]
        return np.square(2.0 * np.abs(gathered) / length).sum(axis=2)

    def convolve(self, signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
        """Full 1-D convolution (``np.convolve`` semantics)."""
        return np.convolve(signal, taps)

    def convolve_batch(
        self, signals: np.ndarray, taps: np.ndarray
    ) -> np.ndarray:
        """Row-wise full convolution of equal-shape (signal, taps) pairs.

        Parameters
        ----------
        signals:
            ``(batch, n)`` stack of signals.
        taps:
            ``(batch, m)`` stack of filter taps.

        Returns
        -------
        numpy.ndarray
            ``(batch, n + m - 1)`` stack; row ``b`` equals
            ``self.convolve(signals[b], taps[b])``.
        """
        signals = np.asarray(signals)
        taps = np.asarray(taps)
        if signals.ndim != 2 or taps.ndim != 2:
            raise ValueError(
                "convolve_batch expects 2-D stacks, got shapes "
                f"{signals.shape} and {taps.shape}"
            )
        if signals.shape[0] != taps.shape[0]:
            raise ValueError(
                f"{signals.shape[0]} signals but {taps.shape[0]} tap rows"
            )
        out = np.empty(
            (signals.shape[0], signals.shape[1] + taps.shape[1] - 1),
            dtype=np.result_type(signals.dtype, taps.dtype, np.float64),
        )
        for row in range(signals.shape[0]):
            out[row] = self.convolve(signals[row], taps[row])
        return out

    def sosfilt(self, sos: np.ndarray, signal: np.ndarray) -> np.ndarray:
        """Second-order-section IIR filtering along the last axis.

        scipy's ``sosfilt`` requires a writable coefficient array, so
        frozen cached designs (:func:`repro.acoustics.noise._lowpass_sos`)
        are copied here rather than forcing every caller to.
        """
        sos = np.asarray(sos)
        if not sos.flags.writeable:
            sos = sos.copy()
        return sp_signal.sosfilt(sos, signal)


_current: DSPBackend | None = None


def get_backend() -> DSPBackend:
    """The process-wide kernel instance, created on first use."""
    global _current
    if _current is None:
        _current = DSPBackend()
    return _current


def set_backend(backend: DSPBackend | str | None) -> DSPBackend | None:
    """Install ``backend``: an instance, the name ``"numpy"``, or None.

    ``None`` resets to a fresh instance on the next :func:`get_backend`.
    Returns the previously installed instance (None if none was created
    yet), so callers can restore it.
    """
    global _current
    if isinstance(backend, str):
        if backend != DSPBackend.name:
            raise ValueError(
                f"unknown DSP backend {backend!r}; available: "
                f"{DSPBackend.name}"
            )
        backend = DSPBackend()
    previous = _current
    _current = backend
    return previous


@contextmanager
def use_backend(backend: DSPBackend | str) -> Iterator[DSPBackend]:
    """Temporarily install a kernel instance (tests, benchmarks)."""
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
