import numpy as np
import pytest

from dipolarqb import battery, dynamics, thermal
from dipolarqb import (
    ModelParams,
    antipassive_state,
    build_hamiltonian,
    capacity,
    charging_hamiltonian,
    charge_trajectory,
    charging_orbit_arrays,
    charging_unitary,
    closed_form_spectrum,
    ergotropy,
    ergotropy_closed_form,
    gibbs_closed_form,
    gibbs_numeric,
    hermitian_eigen,
    instantaneous_power,
    l1_coherence,
    orbit_peaks,
    passive_state,
    work_and_power,
)
from dipolarqb.oracles import (
    capacity_closed_form,
    ergotropy_closed_form_literal,
    ergotropy_double_sum,
    instantaneous_power_fd,
)
from conftest import random_density, random_hermitian, random_params


def charged_state(p, t, zeta=None):
    if zeta is None:
        zeta = gibbs_numeric(p)
    u = charging_unitary(p, t)
    return u @ zeta @ u.conj().T


class TestPassiveStates:
    def test_gibbs_is_passive(self, rng):
        for _ in range(30):
            p = random_params(rng)
            zeta = gibbs_numeric(p)
            sigma = passive_state(zeta, build_hamiltonian(p))
            assert np.max(np.abs(sigma - zeta)) < 1e-10

    def test_top_eigenstate_maps_to_ground(self):
        p = ModelParams(delta=1.0, epsilon=0.3, dm=0.2, ksea=0.1, field=0.7)
        h = build_hamiltonian(p)
        _, vecs = hermitian_eigen(h, order="ascending")
        top = np.outer(vecs[:, 3], vecs[:, 3].conj())
        ground = np.outer(vecs[:, 0], vecs[:, 0].conj())
        assert np.max(np.abs(passive_state(top, h) - ground)) < 1e-12

    def test_degenerate_hamiltonian_energy_unique(self, rng):
        # delta-only spectrum has a doubly degenerate top level; the
        # passive energy must still be the unique descending/ascending sum
        p = ModelParams(delta=1.0)
        h = build_hamiltonian(p)
        nu = np.sort(closed_form_spectrum(p).nu)
        for _ in range(30):
            rho = random_density(rng)
            pops = np.sort(hermitian_eigen(rho)[0])[::-1]
            expected = float(np.dot(pops, nu))
            got = float(np.trace(build_hamiltonian(p) @ passive_state(rho, h)).real)
            assert abs(got - expected) < 1e-10

    def test_antipassive_reverses_pairing(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            h = random_hermitian(rng)
            lo = float(np.trace(h @ passive_state(rho, h)).real)
            hi = float(np.trace(h @ antipassive_state(rho, h)).real)
            mid = float(np.trace(h @ rho).real)
            assert lo - 1e-12 <= mid <= hi + 1e-12

    def test_spectrum_preserved(self, rng):
        rho = random_density(rng)
        h = random_hermitian(rng)
        for f in (passive_state, antipassive_state):
            got = np.sort(np.linalg.eigvalsh(f(rho, h)))
            assert np.max(np.abs(got - np.sort(np.linalg.eigvalsh(rho)))) < 1e-12


class TestErgotropy:
    def test_gibbs_gives_zero(self, rng):
        for _ in range(30):
            p = random_params(rng)
            val = ergotropy(gibbs_numeric(p), build_hamiltonian(p))
            assert 0.0 <= val < 1e-10

    def test_full_inversion(self):
        p = ModelParams(delta=1.0, epsilon=0.3, dm=0.2, ksea=0.1, field=0.7)
        h = build_hamiltonian(p)
        values, vecs = hermitian_eigen(h, order="ascending")
        top = np.outer(vecs[:, 3], vecs[:, 3].conj())
        assert abs(ergotropy(top, h) - (values[3] - values[0])) < 1e-12

    def test_nonnegative(self, rng):
        for _ in range(100):
            assert ergotropy(random_density(rng), random_hermitian(rng)) >= 0.0

    def test_double_sum_route_agrees(self, rng):
        worst = 0.0
        for _ in range(300):
            rho = random_density(rng)
            h = random_hermitian(rng, scale=3.0)
            worst = max(worst, abs(ergotropy(rho, h) - ergotropy_double_sum(rho, h)))
        assert worst < 1e-9

    def test_charged_example_matches_closed_form(self):
        p = ModelParams(delta=1.0, epsilon=0.1, field=0.5, temperature=0.5)
        t = (np.pi / 4.0) / p.omega
        rho = charged_state(p, t)
        numeric = ergotropy(rho, build_hamiltonian(p))
        assert abs(numeric - ergotropy_closed_form(p, t)) < 1e-10


class TestClosedFormErgotropy:
    def test_matches_orbit_numerics(self, rng):
        for _ in range(60):
            p = random_params(rng, box=3.0, t_lo=0.3, t_hi=4.0)
            zeta = gibbs_numeric(p)
            h = build_hamiltonian(p)
            e0 = float(np.trace(zeta @ h).real)
            t = rng.uniform(0.0, np.pi / p.omega)
            rho = charged_state(p, t, zeta)
            xi = float(np.trace(rho @ h).real) - e0
            assert abs(ergotropy_closed_form(p, t) - xi) < 1e-8

    def test_vectorized_over_time(self):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.3, temperature=0.7)
        ts = np.linspace(0.0, 3.0, 7)
        vec = ergotropy_closed_form(p, ts)
        assert vec.shape == (7,)
        for t, v in zip(ts, vec):
            assert abs(ergotropy_closed_form(p, float(t)) - v) < 1e-14

    def test_zero_at_t0_and_nonnegative(self, rng):
        for _ in range(40):
            p = random_params(rng, box=3.0, t_lo=0.3, t_hi=4.0)
            assert abs(ergotropy_closed_form(p, 0.0)) < 1e-12
            s = np.linspace(0.0, np.pi, 101) / p.omega
            assert np.all(ergotropy_closed_form(p, s) > -1e-10)

    def test_literal_variant_at_dm_zero(self, rng):
        # the collapsed variant is real and equals the manifestly real
        # form only with the flipped epsilon sign convention, and only
        # when the dipolar coupling vanishes
        for _ in range(40):
            gen = rng
            p = ModelParams(
                delta=gen.uniform(-3, 3), epsilon=gen.uniform(-3, 3),
                ksea=gen.uniform(-2, 2), field=gen.uniform(-2, 2),
                temperature=gen.uniform(0.3, 4.0),
            )
            t = gen.uniform(0.0, np.pi / p.omega)
            lit = ergotropy_closed_form_literal(p, t, flip_epsilon=True)
            assert abs(lit.imag) < 1e-10
            assert abs(lit.real - ergotropy_closed_form(p, t)) < 1e-10

    def test_literal_unflipped_is_epsilon_mirror(self):
        p = ModelParams(delta=1.0, epsilon=0.4, field=0.6, temperature=0.8)
        q = ModelParams(delta=1.0, epsilon=-0.4, field=0.6, temperature=0.8)
        t = 0.37
        lit = ergotropy_closed_form_literal(p, t, flip_epsilon=False)
        assert abs(lit - ergotropy_closed_form(q, t)) < 1e-10


class TestWorkAndPower:
    def run(self, p, t1=2.0, n_samples=41):
        zeta = gibbs_numeric(p)
        times, traj = charge_trajectory(p, zeta, 0.0, t1, n_samples=n_samples)
        return times, work_and_power(list(traj), times, p)

    def test_start_sample_conventions(self):
        p = ModelParams(delta=1.0, epsilon=0.5, field=0.3, temperature=0.8)
        _, series = self.run(p)
        assert series.columns["ergotropy"][0] == 0.0
        assert series.columns["work"][0] == 0.0
        assert series.columns["power_avg"][0] == 0.0
        assert series.columns["efficiency"][0] == 1.0
        assert np.isfinite(series.columns["power_instant"][0])

    def test_work_equals_ergotropy_and_unit_efficiency(self):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.4, ksea=0.2, field=0.3)
        _, series = self.run(p)
        c = series.columns
        assert np.max(np.abs(c["work"] - c["ergotropy"])) == 0.0
        assert np.max(np.abs(c["efficiency"] - 1.0)) < 1e-9

    def test_average_power_definition(self):
        p = ModelParams(delta=1.0, epsilon=0.5, field=0.3)
        times, series = self.run(p)
        c = series.columns
        mask = times > 0
        assert np.max(np.abs(c["power_avg"][mask] - c["work"][mask] / times[mask])) < 1e-12

    def test_finite_difference_power_oracle(self):
        p = ModelParams(delta=1.0, epsilon=0.3, dm=0.2, ksea=0.1, field=0.4, temperature=0.8)
        zeta = gibbs_numeric(p)
        for t in (0.0, 0.1, 0.45, 1.1):
            analytic = instantaneous_power(charged_state(p, t, zeta), p)
            assert abs(analytic - instantaneous_power_fd(p, t, dt=1e-4)) < 1e-6

    def test_power_kernel_is_the_commutator_definition(self, rng):
        for _ in range(20):
            p = random_params(rng).replace(omega=rng.uniform(-3.0, 3.0))
            h = build_hamiltonian(p)
            h_ch = charging_hamiltonian(p)
            stack = np.array([random_density(rng) for _ in range(10)])
            got = instantaneous_power(stack, p)
            assert got.shape == (10,)
            for rho, val in zip(stack, got):
                ref = np.trace(-1j * (h_ch @ rho - rho @ h_ch) @ h).real
                assert abs(val - ref) < 1e-12
                assert instantaneous_power(rho, p) == val

    def test_stacked_metrics_match_single_samples(self):
        p = ModelParams(delta=1.0, epsilon=0.4, dm=0.3, ksea=0.2, field=0.6, temperature=0.9)
        times, states = charge_trajectory(p, gibbs_numeric(p), 0.0, 2.0, n_samples=7)
        stacked = work_and_power(states, times, p)
        for i in range(len(times)):
            single = work_and_power(states[i:i + 1], times[i:i + 1], p)
            for name, value in single.columns.items():
                assert abs(stacked[name][i] - value[0]) < 1e-12

    def test_rejects_nonmonotone_times(self):
        p = ModelParams(delta=1.0)
        zeta = gibbs_numeric(p)
        traj = [zeta, zeta, zeta]
        with pytest.raises(ValueError, match="increasing"):
            work_and_power(traj, np.array([0.0, 0.5, 0.4]), p)

    def test_rejects_length_mismatch(self):
        p = ModelParams(delta=1.0)
        zeta = gibbs_numeric(p)
        with pytest.raises(ValueError, match="samples"):
            work_and_power([zeta] * 4, np.array([0.0, 0.5, 1.0]), p)

    def test_metrics_validation(self):
        # H's ground state lies below zeta's energy, so its xi is negative
        p = ModelParams(delta=1.0, epsilon=0.3, field=0.7)
        _, vecs = hermitian_eigen(build_hamiltonian(p))
        ground = np.outer(vecs[:, 0], vecs[:, 0].conj())
        with pytest.raises(ValueError, match="ergotropy"):
            work_and_power([ground], np.array([0.0]), p)


class TestCapacity:
    def test_basis_gap_is_field_only(self, rng):
        for _ in range(30):
            p = random_params(rng)
            assert abs(capacity(p).capacity_basis - (-4.0 * p.field)) < 1e-12

    def test_unitary_vanishes_at_infinite_temperature(self):
        p = ModelParams(delta=1.0, epsilon=0.1, field=1.0, temperature=1e6)
        assert abs(capacity(p).capacity_unitary) < 1e-5

    def test_closed_form_is_basis_minus_thermal_energy(self, rng):
        for _ in range(40):
            p = random_params(rng, box=3.0, t_lo=0.3, t_hi=4.0)
            h = build_hamiltonian(p)
            zeta = gibbs_numeric(p)
            expected = float(h[0, 0].real) - float(np.trace(h @ zeta).real)
            assert abs(capacity_closed_form(p) - expected) < 1e-10

    def test_reference_point_comparison_is_stable(self):
        # at the documented comparison point the thermal closed form does
        # NOT reproduce the passive/anti-passive gap; pin the non-match
        p = ModelParams(delta=1.0, epsilon=0.1, field=1.0, temperature=0.5)
        rep = capacity(p)
        assert abs(capacity_closed_form(p) - rep.capacity_unitary) > 1e-6
        assert abs(capacity_closed_form(p) - rep.capacity_basis) > 1e-6

    def test_unitary_constant_along_orbit(self):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.3, field=0.4, temperature=0.8)
        h = build_hamiltonian(p)
        zeta = gibbs_numeric(p)
        ref = capacity(p).capacity_unitary
        for t in (0.2, 0.7, 1.3):
            rho = charged_state(p, t, zeta)
            gap = float(np.trace(h @ (antipassive_state(rho, h) - passive_state(rho, h))).real)
            assert abs(gap - ref) < 1e-10

    def test_ergotropy_bounded_by_unitary_capacity(self, rng):
        for _ in range(25):
            p = random_params(rng, box=3.0, t_lo=0.3, t_hi=4.0)
            cap = capacity(p).capacity_unitary
            _, xi, _, _ = charging_orbit_arrays(p, n_grid=401)
            assert xi.max() <= cap + 1e-9


class TestChargedCoherence:
    def test_diagonal_gibbs_starts_at_zero(self):
        # the 01/10 entry carries a delta*sinh factor, so delta must
        # vanish along with G, eps, D for a truly diagonal Gibbs state
        p = ModelParams(field=0.5, temperature=0.7)
        zeta = gibbs_numeric(p)
        assert abs(l1_coherence(zeta)) < 1e-14

    def test_initial_value_from_closed_entries(self):
        p = ModelParams(delta=1.0, epsilon=0.4, dm=0.3, ksea=0.2, field=0.5)
        z = gibbs_closed_form(p)
        expected = 2.0 * (abs(z[0, 3]) + abs(z[1, 2]))
        zeta = gibbs_numeric(p)
        assert abs(l1_coherence(zeta) - expected) < 1e-12

    def test_periodicity(self):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.2, field=0.3)
        zeta = gibbs_numeric(p)
        period = np.pi / p.omega
        for t in (0.13, 0.61, 1.07):
            pair = [charged_state(p, t, zeta), charged_state(p, t + period, zeta)]
            vals = l1_coherence(np.array(pair))
            assert abs(vals[1] - vals[0]) < 1e-9


class TestOrbitPeaks:
    def test_peak_location_quarter_pi(self):
        # with B = G = D = 0 the orbit has a pure sin^2(2 Omega t) profile
        p = ModelParams(delta=1.0, epsilon=0.5)
        peaks = orbit_peaks(p)
        assert abs(peaks.ergotropy_peak_at - np.pi / 4.0) < 1e-6
        assert abs(peaks.ergotropy_max - ergotropy_closed_form(p, (np.pi / 4) / p.omega)) < 1e-10
        # dxi/dt of A sin^2(2s) peaks at s = pi/8 with value 2 Omega A
        assert abs(peaks.power_max - 2.0 * p.omega * peaks.ergotropy_max) < 1e-8

    def test_refinement_beats_grid(self, rng):
        for _ in range(10):
            p = random_params(rng, box=2.0, t_lo=0.3, t_hi=4.0)
            s, xi, power, coh = charging_orbit_arrays(p, n_grid=501)
            peaks = orbit_peaks(p, n_grid=501)
            assert peaks.ergotropy_max >= xi.max() - 1e-12
            assert peaks.power_max >= power.max() - 1e-12
            assert peaks.coherence_max >= coh.max() - 1e-12
            assert peaks.ergotropy_max <= peaks.capacity + 1e-9

    def test_omega_zero_has_no_orbit(self):
        p = ModelParams(delta=1.0, epsilon=0.5, omega=0.0)
        for scan in (orbit_peaks, charging_orbit_arrays):
            with pytest.raises(ValueError, match="omega"):
                scan(p)

    def test_capacity_field_matches_report(self):
        p = ModelParams(delta=1.0, epsilon=0.1, field=0.5, temperature=0.8)
        assert orbit_peaks(p).capacity == capacity(p).capacity_unitary


class TestOrbitArrays:
    def test_against_metric_samples(self):
        p = ModelParams(delta=1.0, epsilon=0.4, dm=0.3, ksea=0.2, field=0.6, temperature=0.9)
        s, xi, power, coh = charging_orbit_arrays(p, n_grid=9)
        zeta = gibbs_numeric(p)
        t = s / p.omega
        series = work_and_power([charged_state(p, tk, zeta) for tk in t], t, p)
        for k in range(9):
            assert abs(xi[k] - series["ergotropy"][k]) < 1e-12
            assert abs(power[k] - series["power_instant"][k]) < 1e-12
            assert abs(coh[k] - series["coherence"][k]) < 1e-12


def _trace_route(p):
    """xi(s), P(s) and l1(s) of the Gibbs orbit by conjugation and traces, s = Omega t."""
    h, h_ch, zeta = build_hamiltonian(p), charging_hamiltonian(p), gibbs_numeric(p)

    def states(s):
        u = charging_unitary(p, np.asarray(s, dtype=float) / p.omega)
        return u @ zeta @ np.swapaxes(u.conj(), -1, -2)

    def xi(s):
        return np.einsum("...ij,ji->...", states(s) - zeta, h).real

    def power(s):
        rho = states(s)
        return np.einsum("...ij,ji->...", -1j * (h_ch @ rho - rho @ h_ch), h).real

    return xi, power, lambda s: l1_coherence(states(s))


def _scan_and_refine(f, n=2001):
    """(dense-scan maximum over [0, pi], that maximum refined by bounded Brent)."""
    from scipy.optimize import minimize_scalar

    s = np.linspace(0.0, np.pi, n)
    vals = f(s)
    k = int(np.argmax(vals))
    res = minimize_scalar(lambda x: -float(f(x)), bounds=(s[max(k - 1, 0)], s[min(k + 1, n - 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return float(vals[k]), max(float(vals[k]), -float(res.fun))


# the corners of the two-term law: beta = 0 with a field only or with
# delta = -epsilon, alpha = 0 without D, G and B, a negative Omega, and H = 0
ORBIT_CORNERS = [
    ModelParams(field=0.7, temperature=0.6),
    ModelParams(delta=1.0, epsilon=-1.0, dm=0.3, ksea=0.4, field=0.5, temperature=0.9),
    ModelParams(delta=2.0, epsilon=0.5, temperature=0.7),
    ModelParams(delta=1.0, epsilon=0.4, dm=-0.3, ksea=0.2, field=0.6, omega=-1.7),
    ModelParams(temperature=0.8),
]


class TestOrbitKernel:
    def test_fourier_form_matches_conjugation(self, rng):
        for _ in range(50):
            p = random_params(rng, box=5.0, t_lo=0.1, t_hi=5.0).replace(
                omega=rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
            zeta = gibbs_numeric(p)
            s = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 40)
            orbit = battery._orbit_kernel(p, zeta)
            assert np.max(np.abs(orbit(s) - dynamics.charged_state(p, zeta, s / p.omega))) <= 1e-14
            assert np.max(np.abs(orbit(s[0]) - dynamics.charged_state(p, zeta, s[0] / p.omega))) <= 1e-14

    def test_closed_form_peaks_against_dense_trace_scan(self, rng):
        for _ in range(200):
            p = random_params(rng, box=3.0, t_lo=0.3, t_hi=4.0).replace(
                omega=rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
            peaks = orbit_peaks(p)
            for value, f in zip((peaks.ergotropy_max, peaks.power_max), _trace_route(p)):
                scan, refined = _scan_and_refine(f)
                assert value >= scan - 1e-12
                assert abs(value - refined) <= 1e-9 * max(1.0, abs(value))

    def test_coherence_peak_is_refined(self, rng):
        # a 2000-point scan alone lies up to about 1e-6 below the peak
        for _ in range(40):
            p = random_params(rng, box=3.0, t_lo=0.3, t_hi=4.0)
            value = orbit_peaks(p).coherence_max
            scan, refined = _scan_and_refine(_trace_route(p)[2], n=2003)
            assert value >= scan - 1e-12
            assert abs(value - refined) <= 1e-9

    @pytest.mark.parametrize("p", ORBIT_CORNERS)
    def test_corners_match_refined_trace_scan(self, p):
        peaks = orbit_peaks(p)
        for value, f in zip((peaks.ergotropy_max, peaks.power_max), _trace_route(p)):
            scan, refined = _scan_and_refine(f)
            assert value >= scan - 1e-12
            assert abs(value - refined) <= 1e-12 * max(1.0, abs(value))
        assert 0.0 <= peaks.ergotropy_peak_at <= np.pi / 2

    def test_exact_corners_of_the_law(self):
        assert battery._ergotropy_peak(1.5, 0.0) == (np.pi / 2, 1.5)
        s, xi = battery._ergotropy_peak(0.0, 0.75)
        assert abs(s - np.pi / 4) <= 1e-15 and xi == 0.75
        assert battery._ergotropy_peak(0.0, 0.0) == (0.0, 0.0)
        assert battery._power_peak(-2.0, 1.5, 0.0) == 3.0
        assert abs(battery._power_peak(-2.0, 0.0, 0.75) - 2.0 * 2.0 * 0.75) <= 1e-15
        assert battery._power_peak(1.0, 0.0, 0.0) == 0.0
        zero = orbit_peaks(ORBIT_CORNERS[-1])
        assert (zero.ergotropy_max, zero.power_max, zero.ergotropy_peak_at) == (0.0, 0.0, 0.0)

    def test_peak_location_on_the_closed_form_oracle(self, rng):
        for p in ORBIT_CORNERS + [random_params(rng, box=3.0, t_lo=0.3, t_hi=4.0)
                                  for _ in range(30)]:
            peaks = orbit_peaks(p)
            assert 0.0 <= peaks.ergotropy_peak_at <= np.pi / 2
            at = ergotropy_closed_form(p, peaks.ergotropy_peak_at / p.omega)
            assert abs(at - peaks.ergotropy_max) <= 1e-12

    def test_peaks_never_call_the_oracles(self, rng, monkeypatch):
        calls = []

        def spy(name):
            return lambda *args, **kw: calls.append(name)

        monkeypatch.setattr(battery, "ergotropy_closed_form", spy("ergotropy_closed_form"))
        monkeypatch.setattr(battery, "_thermal_terms", spy("battery._thermal_terms"))
        monkeypatch.setattr(thermal, "_thermal_terms", spy("thermal._thermal_terms"))
        for p in ORBIT_CORNERS + [random_params(rng) for _ in range(5)]:
            orbit_peaks(p)
        assert calls == []
