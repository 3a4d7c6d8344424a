import tracemalloc

import numpy as np
import pytest

from rydoct import InvalidSpecError, PulseGrid, half_cycle_pulse, husimi, spectrum
from rydoct.units import parse_quantity


class TestHalfCyclePulse:
    def test_peak_value_at_peak_time(self):
        pulse = half_cycle_pulse(peak=2.5, width=10.0, t_peak=20.0, t0=0.0, dt=0.5, n_samples=101)
        times = pulse.times()
        k = np.argmin(np.abs(times - 20.0))
        assert pulse.samples[k] == pytest.approx(2.5, abs=1e-12)

    def test_zero_outside_support(self):
        pulse = half_cycle_pulse(peak=1.0, width=10.0, t_peak=20.0, t0=0.0, dt=0.5, n_samples=101)
        times = pulse.times()
        outside = np.abs(times - 20.0) > 5.0
        assert np.all(pulse.samples[outside] == 0.0)

    def test_unipolar_positive_area(self):
        pulse = half_cycle_pulse(peak=1.0, width=8.0, t_peak=10.0, t0=0.0, dt=0.1, n_samples=201)
        assert np.all(pulse.samples >= 0.0)
        assert np.trapezoid(pulse.samples, pulse.times()) > 0.0

    def test_lab_scale_construction(self):
        # 1 ps wide lobe peaking at 0.5 ps, sampled every 10 fs.
        dt = parse_quantity("10 fs", "time")
        width = parse_quantity("1 ps", "time")
        t_peak = parse_quantity("0.5 ps", "time")
        pulse = half_cycle_pulse(peak=1.0, width=width, t_peak=t_peak, t0=0.0, dt=dt, n_samples=801)
        assert pulse.samples[50] == pytest.approx(1.0, abs=1e-12)
        assert pulse.samples[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(pulse.samples[101:] == 0.0)

    def test_invalid_width(self):
        with pytest.raises(InvalidSpecError):
            half_cycle_pulse(peak=1.0, width=0.0, t_peak=0.0, t0=0.0, dt=0.1, n_samples=10)


class TestSpectrum:
    def test_constant_field_all_in_dc(self):
        pulse = PulseGrid(0.0, 0.1, np.full(256, 0.7))
        spec = spectrum(pulse)
        assert np.argmax(spec.magnitudes) == 0

    def test_sinusoid_peak_within_one_bin(self):
        dt = 0.05
        n = 2048
        omega0 = 1.3
        t = dt * np.arange(n)
        pulse = PulseGrid(0.0, dt, np.sin(omega0 * t))
        spec = spectrum(pulse)
        peak = spec.frequencies[np.argmax(spec.magnitudes)]
        bin_width = spec.frequencies[1] - spec.frequencies[0]
        assert abs(peak - omega0) <= bin_width

    def test_two_sinusoids_amplitude_ratio(self):
        # Bin-aligned frequencies keep leakage out of the ratio.
        dt = 0.1
        n = 2048
        t = dt * np.arange(n)
        w1 = 2.0 * np.pi * 32 / (n * dt)
        w2 = 2.0 * np.pi * 57 / (n * dt)
        a1, a2 = 1.0, 0.4
        pulse = PulseGrid(0.0, dt, a1 * np.sin(w1 * t) + a2 * np.sin(w2 * t))
        spec = spectrum(pulse, pad_factor=1)
        m1 = spec.magnitudes[np.argmin(np.abs(spec.frequencies - w1))]
        m2 = spec.magnitudes[np.argmin(np.abs(spec.frequencies - w2))]
        assert m2 / m1 == pytest.approx(a2 / a1, rel=0.05)

    @pytest.mark.parametrize("pad_factor", [1, 4])
    def test_parseval_identity(self, pad_factor):
        rng = np.random.default_rng(17)
        pulse = PulseGrid(0.0, 0.2, rng.normal(size=1000))
        spec = spectrum(pulse, pad_factor=pad_factor)
        direct = float(np.sum(pulse.samples**2) * pulse.dt)
        assert abs(spec.fluence() - direct) / direct <= 1e-10

    def test_frequencies_nonnegative_increasing(self):
        pulse = PulseGrid(0.0, 0.1, np.sin(np.arange(128)))
        spec = spectrum(pulse)
        assert spec.frequencies[0] == 0.0
        assert np.all(np.diff(spec.frequencies) > 0)


def _exact_phase_husimi(pulse, sigma, time_stride):
    """The map as one direct quadrature whose phases w_k t_j - w_k t0 are
    reduced exactly in integers, pi (k j mod 510) / 255, at the 256
    frequencies linspace(0, pi / dt, 256)."""
    t = pulse.times()
    centers = t[::time_stride]
    offsets = (t[None, :] - centers[:, None]) / sigma
    windows = pulse.samples[None, :] * np.exp(-0.5 * offsets**2)
    j, k = np.arange(len(t)), np.arange(256)
    kernel = np.exp(-1j * np.pi * (np.outer(j, k) % 510) / 255)
    return (pulse.dt * np.abs((windows @ kernel).T)) ** 2


class TestHusimi:
    @pytest.mark.parametrize("t0", [0.0, 1.0e5])
    @pytest.mark.parametrize(
        "n_samples, sigma, stride", [(801, 6.0, 8), (2048, 6.0, 8), (2 * 2048 + 777, 40.0, 41)]
    )
    def test_matches_the_exact_phase_quadrature(self, n_samples, sigma, stride, t0):
        # Fields of one, four and more than nine 510-sample periods, the last
        # ones cut short, at a start of 0 and of 1e5 a.u.
        rng = np.random.default_rng(n_samples)
        pulse = PulseGrid(t0, 0.1, rng.normal(size=n_samples))
        hm = husimi(pulse, sigma=sigma, time_stride=stride)
        expected = _exact_phase_husimi(pulse, sigma, stride)
        assert hm.intensity.shape == expected.shape
        assert np.array_equal(hm.times, pulse.times()[::stride])
        assert np.array_equal(hm.frequencies, np.linspace(0.0, np.pi / 0.1, 256))
        assert np.max(np.abs(hm.intensity - expected)) <= 1e-14 * np.max(expected)

    def test_memory_stays_near_the_map(self):
        # The 801-sample field at stride 8: one 101 x 510 fold and one
        # period's windows beside the 101 x 256 amplitudes and map.  The
        # whole 801 x 256 complex kernel alone took 3.1 MiB.
        pulse = PulseGrid(0.0, 0.1, np.random.default_rng(2).normal(size=801))
        tracemalloc.start()
        try:
            husimi(pulse, sigma=6.0, time_stride=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_zero_field_identically_zero(self):
        pulse = PulseGrid.zeros(0.0, 0.1, 512)
        hm = husimi(pulse, sigma=5.0)
        assert np.all(hm.intensity == 0.0)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=512)
        a = husimi(PulseGrid(0.0, 0.1, samples), sigma=3.0)
        b = husimi(PulseGrid(0.0, 0.1, -samples), sigma=3.0)
        assert np.array_equal(a.intensity, b.intensity)

    def test_sinusoid_ridge(self):
        dt = 0.1
        n = 2048
        omega0 = 1.1
        t = dt * np.arange(n)
        pulse = PulseGrid(0.0, dt, np.sin(omega0 * t))
        hm = husimi(pulse, sigma=20.0, time_stride=64)
        interior = slice(4, len(hm.times) - 4)
        ridge = hm.frequencies[np.argmax(hm.intensity[:, interior], axis=0)]
        assert np.all(np.abs(ridge - omega0) < 0.05)

    def test_time_shift_covariance(self):
        rng = np.random.default_rng(9)
        base = np.zeros(1024)
        base[200:400] = rng.normal(size=200)
        shift = 128
        shifted = np.roll(base, shift)
        stride = 32
        a = husimi(PulseGrid(0.0, 0.1, base), sigma=4.0, time_stride=stride)
        b = husimi(PulseGrid(0.0, 0.1, shifted), sigma=4.0, time_stride=stride)
        cols = shift // stride
        # Interior columns of the shifted map reproduce the original map.
        left, right = 8, a.intensity.shape[1] - cols - 2
        assert np.allclose(
            b.intensity[:, left + cols : right + cols],
            a.intensity[:, left:right],
            rtol=1e-8,
            atol=1e-12,
        )

    def test_chirp_ridge_slope(self):
        dt = 0.1
        n = 4096
        t = dt * np.arange(n)
        omega0, beta = 0.5, 0.004
        pulse = PulseGrid(0.0, dt, np.sin(omega0 * t + 0.5 * beta * t**2))
        hm = husimi(pulse, sigma=15.0, time_stride=64)
        interior = slice(6, len(hm.times) - 6)
        centers = hm.times[interior]
        ridge = hm.frequencies[np.argmax(hm.intensity[:, interior], axis=0)]
        slope = np.polyfit(centers, ridge, 1)[0]
        assert slope == pytest.approx(beta, rel=0.10)

    def test_parameter_validation(self):
        pulse = PulseGrid.zeros(0.0, 0.1, 64)
        with pytest.raises(InvalidSpecError):
            husimi(pulse, sigma=0.0)
        with pytest.raises(InvalidSpecError):
            husimi(pulse, sigma=1.0, time_stride=0)
