import numpy as np
import pytest

from bubblescreen import PointSource, SourcePulse, incident_eval, pulse_eval
from bubblescreen.errors import EvaluationPointError

from oracles import (fd_derivative, incident_second_derivative,
                     pulse_second_derivative, wave_residual)

PULSE = SourcePulse(omega0=0.75, t_rise=1.0, amplitude=1.3)
# lambda from the package, lambda'' from its closed form in the oracles
PULSE_DERIVATIVES = {0: pulse_eval, 2: pulse_second_derivative}


class TestPulse:
    @pytest.mark.parametrize("order", [0, 2])
    def test_causal_before_zero(self, order):
        t = np.array([-2.0, -0.1, 0.0])
        assert np.all(PULSE_DERIVATIVES[order](PULSE, t) == 0.0)

    def test_ramp_done_region_is_pure_sinusoid(self):
        t = np.array([2.0 * PULSE.t_rise])
        expected = -PULSE.amplitude * PULSE.omega0**2 * np.sin(PULSE.omega0 * t)
        assert pulse_second_derivative(PULSE, t) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("order", [2])
    def test_derivatives_match_finite_differences(self, order):
        t = np.linspace(0.12 * PULSE.t_rise, 2.5 * PULSE.t_rise, 211)
        fd = fd_derivative(lambda x: pulse_eval(PULSE, x), t, order, h=1e-4)
        an = PULSE_DERIVATIVES[order](PULSE, t)
        scale = np.abs(fd).max()
        assert np.abs(an - fd).max() < 1e-6 * scale


class TestIncident:
    def setup_method(self):
        self.src = PointSource(np.array([0.0, 0.0, 2.0]), PULSE, rho_c=1.2, c0=1.0)

    def at(self, x, t):
        """u_in at one point (3,) and one time."""
        return incident_eval(self.src, np.asarray(x)[None, :], t)[0]

    def test_causality_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x = rng.uniform(-1, 1, 3)
            r = np.linalg.norm(x - self.src.x0)
            t = rng.uniform(0.0, r)  # strictly before arrival
            assert self.at(x, t) == 0.0

    def test_inverse_distance_decay(self):
        x1 = np.array([0.0, 0.0, 1.0])   # r = 1
        x2 = np.array([0.0, 0.0, 0.0])   # r = 2
        t0 = 1.7
        v1 = self.at(x1, 1.0 + t0)
        v2 = self.at(x2, 2.0 + t0)
        assert v2 == pytest.approx(0.5 * v1, rel=1e-13)

    def test_free_wave_equation(self):
        # |d2/dt2 u_in| at the first point: rho_c lambda''(t - r/c0) / r, r = 1.5
        scale = abs(incident_second_derivative(self.src, np.array([[0.0, 0.0, 0.5]]), 3.1)[0])
        for x, t in [(np.array([0.0, 0.0, 0.5]), 3.1),
                     (np.array([0.3, 0.1, 0.2]), 4.0),
                     (np.array([-0.2, 0.4, -0.1]), 4.6)]:
            res = wave_residual(self.at, x, t, c0=1.0)
            assert abs(res) < 1e-3 * scale

    def test_second_time_derivative_vs_fd(self):
        x = np.array([0.3, -0.2, 0.4])
        for t in (2.2, 2.9, 4.1):
            fd = fd_derivative(lambda s: self.at(x, s), t, 2, h=1e-4)
            an = incident_second_derivative(self.src, x[None, :], t)[0]
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_source_point_rejected(self):
        with pytest.raises(EvaluationPointError):
            incident_eval(self.src, self.src.x0[None, :], np.array([1.0]))

    def test_vectorized_shapes(self):
        xs = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        ts = np.linspace(0, 5, 7)
        out = incident_eval(self.src, xs, ts[:, None])
        assert out.shape == (7, 2)
        single = incident_eval(self.src, xs[1:], ts[:, None])
        assert np.array_equal(single, out[:, 1:])
        assert np.array_equal(incident_eval(self.src, xs, ts[3]), out[3])
