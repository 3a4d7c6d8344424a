"""Guess-pulse generation and field analysis (spectrum, time-frequency map)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .propagation import PulseGrid

__all__ = [
    "half_cycle_pulse",
    "SpectrumData",
    "spectrum",
    "HusimiMap",
    "husimi",
]

#: Field samples per block of the Husimi quadrature, and frequency columns
#: per piece of a block's kernel: `husimi` holds one block's windows and one
#: samples x columns piece of its kernel at a time, so beyond the map it
#: returns its memory is a few centers x block arrays, whatever the field's
#: length.
HUSIMI_BLOCK_SAMPLES = 2048
HUSIMI_BLOCK_COLUMNS = 32


def half_cycle_pulse(
    peak: float,
    width: float,
    t_peak: float,
    t0: float,
    dt: float,
    n_samples: int,
) -> PulseGrid:
    """Unipolar sin^2 lobe: peak amplitude at t_peak, support width `width`.

    E(t) = peak * sin^2(pi (t - t_peak + width/2) / width) inside the
    support |t - t_peak| <= width/2 and zero outside.  Any smooth single
    lobe works as a guess field; the optimization reshapes it anyway.
    """
    if width <= 0:
        raise InvalidSpecError("half-cycle pulse width must be positive")
    t = t0 + dt * np.arange(n_samples)
    phase = np.pi * (t - t_peak + width / 2.0) / width
    samples = peak * np.sin(phase) ** 2
    samples[np.abs(t - t_peak) > width / 2.0] = 0.0
    return PulseGrid(t0=t0, dt=dt, samples=samples)


@dataclass(frozen=True)
class SpectrumData:
    """One-sided magnitude spectrum of a sampled field.

    `magnitudes[m]` is dt * |DFT| of the zero-padded samples at angular
    frequency `frequencies[m]` = 2 pi m / (n_fft dt).  With this
    normalization Parseval's identity reads

        sum_j |E_j|^2 dt = sum_m w_m |magnitudes[m]|^2 / (n_fft dt)

    where w_m doubles every bin except DC and (for even n_fft) Nyquist.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray
    dt: float
    n_fft: int

    def fluence(self) -> float:
        """Time-domain fluence sum |E|^2 dt reconstructed from the spectrum."""
        w = np.full(len(self.magnitudes), 2.0)
        w[0] = 1.0
        if self.n_fft % 2 == 0:
            w[-1] = 1.0
        return float(np.sum(w * self.magnitudes**2) / (self.n_fft * self.dt))


def spectrum(pulse: PulseGrid, pad_factor: int = 4) -> SpectrumData:
    """Magnitude of the DFT of the zero-padded field at nonnegative frequencies."""
    if pad_factor < 1:
        raise InvalidSpecError("pad_factor must be >= 1")
    n_fft = pad_factor * len(pulse.samples)
    transform = np.fft.rfft(pulse.samples, n=n_fft)
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n_fft, d=pulse.dt)
    return SpectrumData(
        frequencies=freqs,
        magnitudes=pulse.dt * np.abs(transform),
        dt=pulse.dt,
        n_fft=n_fft,
    )


@dataclass(frozen=True)
class HusimiMap:
    """Gaussian-windowed time-frequency intensity of a field (arbitrary units)."""

    times: np.ndarray
    frequencies: np.ndarray
    intensity: np.ndarray  # shape (len(frequencies), len(times))
    sigma: float


def husimi(
    pulse: PulseGrid,
    sigma: float,
    time_stride: int = 8,
    frequencies: np.ndarray | None = None,
) -> HusimiMap:
    """Q(t, w) = |integral E(t') g(t' - t) exp(-i w t') dt'|^2, Gaussian window g.

    Computed by direct quadrature on the pulse grid.  `time_stride` thins the
    window centers; `frequencies` defaults to 256 points up to the grid
    Nyquist angular frequency.  The quadrature runs over blocks of
    `HUSIMI_BLOCK_SAMPLES` samples.  A block's windows, cast to complex
    once, multiply its kernel `HUSIMI_BLOCK_COLUMNS` frequencies at a time,
    and each product is added to its columns of the amplitudes.  Every
    amplitude is thus one BLAS sum over each block's samples, as in one
    product of a block's windows and its whole kernel.  On one BLAS thread a
    field of one block gives that product's bytes (on more, OpenBLAS may
    split a small product between threads, and so its sums); a longer field
    changes only the order in which the blocks' sums are added.
    """
    if sigma <= 0:
        raise InvalidSpecError("husimi window width must be positive")
    if time_stride < 1:
        raise InvalidSpecError("time_stride must be >= 1")
    t = pulse.times()
    centers = t[::time_stride]
    if frequencies is None:
        frequencies = np.linspace(0.0, np.pi / pulse.dt, 256)
    # Pieces of HUSIMI_BLOCK_COLUMNS frequencies, the last one a column wider
    # rather than one column alone, which numpy would take through gemv.
    n_freq = len(frequencies)
    edges = [0, *range(HUSIMI_BLOCK_COLUMNS, n_freq - 1, HUSIMI_BLOCK_COLUMNS), n_freq]
    amplitude = np.zeros((len(centers), n_freq), dtype=complex)
    for start in range(0, len(t), HUSIMI_BLOCK_SAMPLES):
        block = slice(start, start + HUSIMI_BLOCK_SAMPLES)
        # windows[i, j] = E(t_j) g(t_j - tau_i) over the block's samples j
        windows = pulse.samples[None, block] * np.exp(
            -((t[None, block] - centers[:, None]) ** 2) / (2.0 * sigma**2)
        )
        windows = windows.astype(complex)
        for first, stop in zip(edges, edges[1:]):
            kernel = np.exp(-1j * np.outer(t[block], frequencies[first:stop]))
            amplitude[:, first:stop] += windows @ kernel
    amplitude *= pulse.dt
    return HusimiMap(
        times=centers,
        frequencies=np.asarray(frequencies, dtype=float),
        intensity=np.abs(amplitude.T) ** 2,
        sigma=sigma,
    )
