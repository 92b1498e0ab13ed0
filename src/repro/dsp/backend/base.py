"""Kernel contract of the pluggable DSP backend layer.

Every spectral hot path of the reproduction — the detector's window-batch
power evaluation (:meth:`repro.core.detection.FrequencyDetector
.candidate_powers` / ``candidate_powers_stacked``), the acoustic mixer's
channel convolutions, and the background-noise shaping filter — routes
through one of the kernels below instead of calling numpy/scipy directly.
A backend is a stateless provider of those kernels; swapping backends can
change *how fast* the kernels run and (for non-default backends) their
floating-point rounding, but never their shapes or semantics.

The contract that keeps the pipeline's determinism guarantees intact:

* :class:`~repro.dsp.backend.numpy_backend.NumpyBackend` is the
  **bit-compatible reference**: its kernels perform exactly the arithmetic
  the pre-backend code performed (``np.fft.rfft``, the
  ``(2·|X|/N)²``-and-sum power formula, per-row ``np.convolve``,
  ``scipy.signal.sosfilt``), so results are byte-identical to the
  pre-backend implementation on every host.
* Alternate backends (scipy-with-workers, pyFFTW, mkl_fft) may substitute
  faster kernels whose outputs agree within documented float tolerance
  (see ``docs/pipeline.md``).  The auto-selector only promotes an
  alternate backend to *default* after verifying, on the running host,
  that its FFT kernel is bit-identical to numpy's on the probe suite —
  otherwise the alternate stays opt-in via ``--dsp-backend``/the env var.
* Kernel results are row-wise independent, so chunking (the calibrated
  ``fft_chunk_windows``) never changes an output bit.

``window_powers`` is deliberately defined on the base class in terms of
``self.rfft`` plus the exact reference power arithmetic: an FFT-only
backend (the common case) inherits correct, bit-stable power evaluation
for free, and only backends that want to fuse or re-associate the power
reduction override it.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["DSPBackend", "CHUNK_ENV_VAR", "DEFAULT_FFT_CHUNK_WINDOWS"]

#: Environment override for the FFT dispatch ceiling (an int; the number
#: of windows per FFT kernel call).
CHUNK_ENV_VAR = "REPRO_DSP_CHUNK"

#: Default windows-per-dispatch ceiling.  It bounds the FFT kernel's
#: transient, the (n_windows, n_bins) spectrum block: 64 × 4096-point
#: windows is about 2 MB, so the render/detect fan-out's threads hold
#: little spectrum at once and peak memory stays flat as they are added.
#: Smaller dispatches cost no speed, although they split the 241-window
#: fine pass into four: on a 2-core x86 host one unfanned process ran
#: the Fig. 1 grid (batch 16) at a median 23.5 trials/s with 64-window
#: chunks against 22.8 with 512, over six interleaved runs each.
#: Chunking is row-independent, so any value is bit-identical.
DEFAULT_FFT_CHUNK_WINDOWS = 64


class DSPBackend:
    """Base class for DSP kernel providers.

    Subclasses override :meth:`rfft` (and optionally the other kernels)
    and set :attr:`name`.  Instances are cheap, stateless, and safe to
    share across threads; the only mutable state is the lazily calibrated
    FFT chunk size.
    """

    #: Registry key and ``--dsp-backend`` spelling.
    name: str = "base"

    #: Whether the backend's kernels are bit-compatible with the numpy
    #: reference *by construction* (true only for NumpyBackend).  Other
    #: backends may still measure bit-identical on a given host — the
    #: auto-selector probes for that — but make no standing promise.
    bit_compatible: bool = False

    def __init__(self, fft_chunk_windows: int | None = None) -> None:
        env_chunk = os.environ.get(CHUNK_ENV_VAR)
        if fft_chunk_windows is None and env_chunk:
            fft_chunk_windows = int(env_chunk)
        if fft_chunk_windows is not None and fft_chunk_windows < 1:
            raise ValueError(
                f"fft_chunk_windows must be >= 1, got {fft_chunk_windows}"
            )
        self._fft_chunk_windows = fft_chunk_windows

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<{type(self).__name__} name={self.name!r}>"

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def rfft(self, batch: np.ndarray, axis: int = -1) -> np.ndarray:
        """Batched real FFT along ``axis``.

        ``batch`` may be strided (e.g. a sliding-window view sliced at the
        scan step): backends must accept it without requiring the caller
        to materialize a contiguous copy first.
        """
        raise NotImplementedError

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
            ``(n_windows, n_candidates)`` float64 matrix.  The base
            implementation performs the exact reference arithmetic; only
            the FFT kernel varies per backend.
        """
        spectra = self.rfft(windows, axis=1)
        gathered = spectra[:, rfft_bins]
        return np.square(2.0 * np.abs(gathered) / length).sum(axis=2)

    def convolve(self, signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
        """Full 1-D convolution (``np.convolve`` semantics)."""
        raise NotImplementedError

    @staticmethod
    def _validate_convolve_batch(
        signals: np.ndarray, taps: np.ndarray, dtype=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared shape validation/coercion for ``convolve_batch``."""
        signals = np.asarray(signals, dtype=dtype)
        taps = np.asarray(taps, dtype=dtype)
        if signals.ndim != 2 or taps.ndim != 2:
            raise ValueError(
                "convolve_batch expects 2-D stacks, got shapes "
                f"{signals.shape} and {taps.shape}"
            )
        if signals.shape[0] != taps.shape[0]:
            raise ValueError(
                f"{signals.shape[0]} signals but {taps.shape[0]} tap rows"
            )
        return signals, taps

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
            ``self.convolve(signals[b], taps[b])`` for the numpy
            reference backend (other backends: within tolerance).
        """
        signals, taps = self._validate_convolve_batch(signals, taps)
        out = np.empty(
            (signals.shape[0], signals.shape[1] + taps.shape[1] - 1),
            dtype=np.result_type(signals.dtype, taps.dtype, np.float64),
        )
        for row in range(signals.shape[0]):
            out[row] = self.convolve(signals[row], taps[row])
        return out

    def sosfilt(self, sos: np.ndarray, signal: np.ndarray) -> np.ndarray:
        """Second-order-section IIR filtering along the last axis.

        scipy's implementation is the reference (and currently only)
        kernel; it requires a writable coefficient array, so frozen
        cached designs (:func:`repro.acoustics.noise._lowpass_sos`) are
        copied here rather than forcing every caller to.
        """
        from scipy import signal as sp_signal

        sos = np.asarray(sos)
        if not sos.flags.writeable:
            sos = sos.copy()
        return sp_signal.sosfilt(sos, signal)

    @property
    def fft_chunk_windows(self) -> int:
        """Windows per FFT dispatch (see :data:`DEFAULT_FFT_CHUNK_WINDOWS`).

        Chunking is purely a scheduling decision (rows are independent),
        so any value yields bit-identical results; the ``REPRO_DSP_CHUNK``
        environment variable pins it for memory-constrained or
        experimental setups.
        """
        if self._fft_chunk_windows is None:
            self._fft_chunk_windows = DEFAULT_FFT_CHUNK_WINDOWS
        return self._fft_chunk_windows
