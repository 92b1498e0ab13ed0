"""Tests for the DSP kernels of the ranging hot paths (`repro.dsp.backend`).

The contract under test:

* every kernel is **bit-compatible** with the inline expressions the hot
  paths used before the kernels were factored out (FFT, window powers,
  convolution, sosfilt) — on contiguous *and* strided inputs;
* the process-wide instance can be substituted and restored
  (:func:`use_backend`, :func:`set_backend`), and ``"numpy"`` is the only
  name :func:`set_backend` accepts.
"""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.backend import DSPBackend, get_backend, set_backend, use_backend


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture()
def window_batch(rng):
    return rng.normal(size=(17, 1024))


@pytest.fixture()
def agg_bins(rng):
    return rng.integers(0, 513, size=(6, 5))


def _reference_window_powers(windows, bins, length):
    """The pre-backend inline arithmetic, verbatim."""
    spectra = np.fft.rfft(windows, axis=1)
    gathered = spectra[:, bins]
    return np.square(2.0 * np.abs(gathered) / length).sum(axis=2)


# ----------------------------------------------------------------------
# The process-wide instance
# ----------------------------------------------------------------------


def test_set_backend_unknown_name_lists_choices():
    installed = get_backend()
    with pytest.raises(ValueError, match="numpy"):
        set_backend("cuda-quantum")
    assert get_backend() is installed


def test_use_backend_restores_previous():
    baseline = get_backend()
    substitute = DSPBackend()
    with use_backend(substitute) as backend:
        assert backend is substitute
        assert get_backend() is substitute
    assert get_backend() is baseline


def test_set_backend_accepts_instance_and_name():
    substitute = DSPBackend()
    previous = set_backend(substitute)
    try:
        assert get_backend() is substitute
        set_backend("numpy")
        assert get_backend() is not substitute
        assert get_backend().name == "numpy"
    finally:
        set_backend(previous)


# ----------------------------------------------------------------------
# Kernels: bit-compatibility with the pre-seam expressions
# ----------------------------------------------------------------------


def test_numpy_rfft_is_np_fft_rfft(window_batch):
    assert np.array_equal(
        DSPBackend().rfft(window_batch, axis=1),
        np.fft.rfft(window_batch, axis=1),
    )


def test_numpy_window_powers_bit_identical(window_batch, agg_bins):
    assert np.array_equal(
        DSPBackend().window_powers(window_batch, agg_bins, 1024),
        _reference_window_powers(window_batch, agg_bins, 1024),
    )


def test_numpy_window_powers_strided_slab_bit_identical(rng, agg_bins):
    """A zero-copy strided slab equals the gathered contiguous batch.

    This is the equivalence the detector's scan path rests on: feeding
    the sliding-window view sliced at the scan step straight to the FFT
    kernel reproduces the gathered windows' powers bit for bit.
    """
    flat = rng.normal(size=6_000)
    view = np.lib.stride_tricks.sliding_window_view(flat, 1024)
    slab = view[100:3100:10]
    gathered = np.ascontiguousarray(slab)
    backend = DSPBackend()
    assert np.array_equal(
        backend.window_powers(slab, agg_bins, 1024),
        backend.window_powers(gathered, agg_bins, 1024),
    )


def test_numpy_convolve_batch_rows_equal_np_convolve(rng):
    signals = rng.normal(size=(5, 300))
    taps = rng.normal(size=(5, 41))
    out = DSPBackend().convolve_batch(signals, taps)
    assert out.shape == (5, 340)
    for row in range(5):
        assert np.array_equal(out[row], np.convolve(signals[row], taps[row]))


def test_convolve_batch_validates_shapes(rng):
    backend = DSPBackend()
    with pytest.raises(ValueError):
        backend.convolve_batch(rng.normal(size=300), rng.normal(size=(1, 3)))
    with pytest.raises(ValueError):
        backend.convolve_batch(
            rng.normal(size=(2, 300)), rng.normal(size=(3, 5))
        )


def test_sosfilt_accepts_frozen_designs(rng):
    sos = sp_signal.butter(4, 3000.0, btype="low", fs=44_100.0, output="sos")
    frozen = sos.copy()
    frozen.setflags(write=False)
    x = rng.normal(size=2_000)
    assert np.array_equal(
        DSPBackend().sosfilt(frozen, x), sp_signal.sosfilt(sos, x)
    )


def test_sosfilt_stacked_rows_equal_solo_rows(rng):
    """Row-stacked filtering (the batched noise pass) is bit-exact."""
    sos = sp_signal.butter(4, 3000.0, btype="low", fs=44_100.0, output="sos")
    stack = rng.normal(size=(4, 2_000))
    batched = DSPBackend().sosfilt(sos, stack)
    for row in range(4):
        assert np.array_equal(batched[row], sp_signal.sosfilt(sos, stack[row]))
