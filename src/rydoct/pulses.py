"""Guess-pulse generation and field analysis (spectrum, time-frequency map)."""

from __future__ import annotations

import numpy as np

from ._record import record
from .errors import InvalidSpecError
from .propagation import PulseGrid

__all__ = [
    "half_cycle_pulse",
    "SpectrumData",
    "spectrum",
    "HusimiMap",
    "husimi",
]

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


@record(frozen=True)
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


@record(frozen=True)
class HusimiMap:
    """Gaussian-windowed time-frequency intensity of a field (arbitrary units)."""

    times: np.ndarray
    frequencies: np.ndarray
    intensity: np.ndarray  # shape (len(frequencies), len(times))
    sigma: float


def husimi(pulse: PulseGrid, sigma: float, time_stride: int = 8) -> HusimiMap:
    """Q(t, w) = |integral E(t') g(t' - t) exp(-i w t') dt'|^2, Gaussian window g.

    Sums the quadrature on the pulse grid at 256 frequencies from 0 to the
    grid Nyquist angular frequency pi / dt; `time_stride` thins the window
    centers.  These frequencies are the bins k = 0..255 of a 510-point DFT:
    w_k t_j = w_k t0 + 2 pi k j / 510, and the modulus drops the t0 phase.
    So each center's windowed field g(t_j - tau) E_j is folded modulo 510
    samples, one 510-sample period at a time, and the map is
    dt^2 |rfft(folded)|^2.  The window is exp(-((t - tau) / sigma)^2 / 2),
    which neither overflows for a wide sigma nor divides by zero for a
    narrow one.  Numpy's FFT calls no BLAS routine, so the map does not
    depend on the BLAS thread count.
    """
    if sigma <= 0:
        raise InvalidSpecError("husimi window width must be positive")
    if time_stride < 1:
        raise InvalidSpecError("time_stride must be >= 1")
    t = pulse.times()
    centers = t[::time_stride]
    frequencies = np.linspace(0.0, np.pi / pulse.dt, 256)
    period = 2 * (len(frequencies) - 1)
    folded = np.zeros((len(centers), period))
    # A narrow window's scaled offsets overflow to inf, and its tails to exactly 0.
    with np.errstate(over="ignore"):
        for start in range(0, len(t), period):
            span = slice(start, start + period)
            windowed = np.exp(-0.5 * ((t[span] - centers[:, None]) / sigma) ** 2)
            windowed *= pulse.samples[span]
            folded[:, : windowed.shape[1]] += windowed
    amplitude = np.fft.rfft(folded, axis=1)
    return HusimiMap(
        times=centers,
        frequencies=frequencies,
        intensity=(pulse.dt * np.abs(amplitude.T)) ** 2,
        sigma=sigma,
    )
