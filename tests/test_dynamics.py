import math

import numpy as np
import pytest
from scipy.linalg import expm

from dipolarqb import (
    IntegrationAccuracyError,
    ModelParams,
    TimeGrid,
    TimeSeries,
    build_hamiltonian,
    charge_trajectory,
    charging_unitary,
    collapse_operators,
    concurrence,
    evolve_lindblad,
    gibbs_numeric,
    hermitian_eigen,
    l1_coherence,
    lindblad_superoperator,
)
from dipolarqb.oracles import is_valid_state, lindblad_rhs, matrix_exp
from conftest import bell_state, ket00, random_density


# n = 10 steps of 0.1 over [0.5, 1.5], for samples - 1 that divides n, does
# not divide it, exceeds it, and for the two endpoints alone
SAMPLE_CASES = [6, 4, 21, 2]


def assert_uniform_samples(times, n_samples, t0=0.5, t1=1.5):
    assert len(times) == n_samples
    assert abs(times[0] - t0) <= 1e-12 and abs(times[-1] - t1) <= 1e-12
    assert np.max(np.abs(np.diff(times) - (t1 - t0) / (n_samples - 1))) <= 1e-12


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 1e-3)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, -1e-3)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1e6, 1e-3)  # more than 1e7 steps

    def test_n_steps(self):
        assert TimeGrid(0.0, 1.0, 1e-3).n_steps() == 1000

    def test_last_step_lands_on_t1(self):
        grid = TimeGrid(0.0, np.pi, 1e-3)
        assert grid.n_steps() == 3142
        assert abs(grid.t0 + grid.n_steps() * grid.dt - np.pi) < 1e-15
        # a dt that already divides the span is kept as given
        grid = TimeGrid(0.0, 10.0, 1e-3)
        assert grid.n_steps() == 10000 and grid.dt == 1e-3
        # a dt longer than the span shrinks to a single step
        grid = TimeGrid(0.0, 1.0, 5.0)
        assert grid.n_steps() == 1 and grid.dt == 1.0

    def test_rejects_non_finite(self):
        for bad in ((0.0, np.inf, 1e-3), (np.nan, 1.0, 1e-3), (0.0, 1.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(*bad)

    @pytest.mark.parametrize("n_samples", SAMPLE_CASES)
    def test_sampled_grid_puts_every_sample_on_a_step(self, n_samples):
        grid, stride = TimeGrid(0.5, 1.5, 0.1).sampled(n_samples)
        assert stride == math.ceil(10 / (n_samples - 1))
        assert grid.n_steps() == stride * (n_samples - 1)
        assert grid.dt <= 0.1 and abs(grid.dt * grid.n_steps() - 1.0) < 1e-15

    def test_sampled_grid_keeps_the_step_cap(self):
        grid = TimeGrid(0.0, 1e4, 1e4 / 9999999)  # just under the cap
        assert grid.n_steps() == 9999999
        with pytest.raises(ValueError, match="1e7 steps"):
            grid.sampled(8)  # rounds up to 7 x 1428572 steps


class TestTimeSeries:
    def test_lookup(self):
        ts = TimeSeries([0.0, 1.0], {"a": [1.0, 2.0]})
        assert list(ts["a"]) == [1.0, 2.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], {"a": [1.0]})

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 0.0], {"a": [1.0, 2.0]})


class TestLindbladRhs:
    def test_eigenstate_is_stationary_without_dissipation(self):
        p = ModelParams(delta=1.0, epsilon=0.5, field=0.3)
        values, vectors = hermitian_eigen(build_hamiltonian(p))
        proj = np.outer(vectors[:, 0], vectors[:, 0].conj())
        assert np.max(np.abs(lindblad_rhs(p, proj))) < 1e-14

    def test_maximally_mixed_fixed_point(self):
        p = ModelParams(gamma=1.0)
        assert np.max(np.abs(lindblad_rhs(p, np.eye(4, dtype=complex) / 4))) < 1e-15

    def test_pure_dephasing_structure(self):
        p = ModelParams(gamma=1.0)
        rhs = lindblad_rhs(p, ket00())
        assert abs(np.trace(rhs)) < 1e-14
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-14
        # sigma-x dissipators move |00> weight into |01> and |10>
        assert abs(rhs[0, 0] + 2.0) < 1e-14
        assert abs(rhs[1, 1] - 1.0) < 1e-14
        assert abs(rhs[2, 2] - 1.0) < 1e-14
        assert abs(rhs[3, 3]) < 1e-14

    def test_hermitian_traceless_generally(self, rng):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.2, ksea=0.1, field=0.4, gamma=0.3)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            rhs = lindblad_rhs(p, rho)
            assert abs(np.trace(rhs)) < 1e-12
            assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12

    def test_superoperator_matches_rhs(self, rng):
        for _ in range(20):
            p = ModelParams(*rng.uniform(-3.0, 3.0, 5), gamma=rng.uniform(0.0, 1.0))
            sup = lindblad_superoperator(p)
            for rho in (random_density(rng), rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))):
                lhs = sup @ rho.flatten(order="F")
                assert np.max(np.abs(lhs - lindblad_rhs(p, rho).flatten(order="F"))) < 1e-12

    def test_collapse_operators(self):
        c1, c2 = collapse_operators(ModelParams(gamma=0.25))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.max(np.abs(c1 - 0.5 * np.kron(sx, np.eye(2)))) < 1e-15
        assert np.max(np.abs(c2 - 0.5 * np.kron(np.eye(2), sx))) < 1e-15


class TestEvolveLindblad:
    def test_unitary_limit(self):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.3, field=0.7)
        h = build_hamiltonian(p)
        grid = TimeGrid(0.0, 3.0, 1e-3)
        times, states = evolve_lindblad(p, ket00(), grid, n_samples=7)
        worst = 0.0
        for t, rho in zip(times, states):
            u = matrix_exp(-1j * h * t)
            worst = max(worst, np.max(np.abs(rho - u @ ket00() @ u.conj().T)))
        assert worst < 1e-8

    def test_bell_concurrence_decays(self):
        p = ModelParams(gamma=0.2)
        grid = TimeGrid(0.0, 10.0, 1e-3)
        times, states = evolve_lindblad(p, bell_state(), grid, n_samples=5)
        assert concurrence(states[0]) > 0.999
        assert concurrence(states[-1]) < 0.05
        # matrix-exponential superoperator oracle at the endpoint
        prop = expm(lindblad_superoperator(p) * times[-1])
        ref = (prop @ bell_state().flatten(order="F")).reshape(4, 4, order="F")
        assert np.max(np.abs(states[-1] - ref)) < 1e-7

    def test_maximally_mixed_constant(self):
        p = ModelParams(gamma=0.5)
        grid = TimeGrid(0.0, 4.0, 1e-3)
        _, states = evolve_lindblad(p, np.eye(4, dtype=complex) / 4, grid, n_samples=5)
        for rho in states:
            assert np.max(np.abs(rho - np.eye(4) / 4)) < 1e-12

    def test_trace_and_hermiticity_preserved(self):
        p = ModelParams(delta=1.0, epsilon=0.5, field=1.0, gamma=0.2)
        grid = TimeGrid(0.0, 10.0, 1e-3)
        _, states = evolve_lindblad(p, ket00(), grid, n_samples=11)
        for rho in states:
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
            assert is_valid_state(rho)

    def test_rk4_convergence_order(self):
        p = ModelParams(delta=1.0, epsilon=0.5, field=0.8, gamma=0.3)
        grid_coarse = TimeGrid(0.0, 1.0, 2e-3)
        grid_half = TimeGrid(0.0, 1.0, 1e-3)
        grid_ref = TimeGrid(0.0, 1.0, 2e-3 / 16)
        end = {}
        for key, grid in (("c", grid_coarse), ("h", grid_half), ("r", grid_ref)):
            _, states = evolve_lindblad(p, ket00(), grid, n_samples=2)
            end[key] = states[-1]
        err_c = np.max(np.abs(end["c"] - end["r"]))
        err_h = np.max(np.abs(end["h"] - end["r"]))
        assert 8.0 < err_c / err_h < 32.0

    def test_superoperator_oracle_with_hamiltonian(self):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.2, field=0.4, gamma=0.15)
        t1 = 2.0
        _, states = evolve_lindblad(p, ket00(), TimeGrid(0.0, t1, 1e-3), n_samples=2)
        prop = expm(lindblad_superoperator(p) * t1)
        ref = (prop @ ket00().flatten(order="F")).reshape(4, 4, order="F")
        assert np.max(np.abs(states[-1] - ref)) < 1e-7

    @pytest.mark.parametrize("n_samples", SAMPLE_CASES)
    def test_exact_uniform_samples(self, n_samples):
        p = ModelParams(delta=1.0, epsilon=0.5, gamma=0.2)
        times, states = evolve_lindblad(p, ket00(), TimeGrid(0.5, 1.5, 0.1), n_samples=n_samples)
        assert_uniform_samples(times, n_samples)
        assert len(states) == n_samples

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_rejects_fewer_than_two_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            evolve_lindblad(ModelParams(), ket00(), TimeGrid(0.0, 1.0, 0.1), n_samples=n_samples)

    def test_matches_plain_rk4_loop(self, rng):
        # independent of lindblad_superoperator: classical RK4 written out
        # on lindblad_rhs; 1000 steps do not divide into 6 intervals, so the
        # step shrinks to 1 / (167 * 6)
        grid = TimeGrid(0.0, 1.0, 1e-3)
        for _ in range(3):
            p = ModelParams(delta=rng.uniform(-3, 3), epsilon=rng.uniform(-3, 3),
                            dm=rng.uniform(-3, 3), ksea=rng.uniform(-3, 3),
                            field=rng.uniform(-3, 3), gamma=rng.uniform(0.0, 1.0))
            rho = random_density(rng)
            times, states = evolve_lindblad(p, rho, grid, n_samples=7)
            stride = math.ceil(1000 / 6)
            n = 6 * stride
            dt = 1.0 / n
            ref_times, ref_states = [0.0], [rho]
            for i in range(n):
                k1 = lindblad_rhs(p, rho)
                k2 = lindblad_rhs(p, rho + 0.5 * dt * k1)
                k3 = lindblad_rhs(p, rho + 0.5 * dt * k2)
                k4 = lindblad_rhs(p, rho + dt * k3)
                rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if (i + 1) % stride == 0:
                    ref_times.append((i + 1) * dt)
                    ref_states.append(rho)
            assert len(states) == len(ref_states) == 7
            assert np.array_equal(times, ref_times)
            for got, ref in zip(states, ref_states):
                assert np.max(np.abs(got - ref)) < 1e-12

    def test_blowup_reported_as_accuracy_error(self):
        p = ModelParams(field=5.0, gamma=5.0)
        with pytest.raises(IntegrationAccuracyError, match="reduce dt"):
            evolve_lindblad(p, ket00(), TimeGrid(0.0, 5.0, 0.5), n_samples=6)


class TestChargeTrajectory:
    def test_starts_at_initial_state(self):
        p = ModelParams(delta=1.0, epsilon=0.5)
        zeta = gibbs_numeric(p)
        times, states = charge_trajectory(p, zeta, 0.0, 1.0, n_samples=3)
        assert times[0] == 0.0
        assert np.max(np.abs(states[0] - zeta)) < 1e-14

    def test_half_turn_inverts_population(self):
        p = ModelParams(omega=1.0)
        _, states = charge_trajectory(p, ket00(), 0.0, np.pi / 2, n_samples=2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        assert np.max(np.abs(states[-1] - expected)) < 1e-12

    def test_spectrum_invariant(self, rng):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.3, field=0.2, omega=1.3)
        zeta = gibbs_numeric(p)
        ref = np.linalg.eigvalsh(zeta)
        _, states = charge_trajectory(p, zeta, 0.0, 5.0, n_samples=9)
        for rho in states:
            assert np.max(np.abs(np.linalg.eigvalsh(rho) - ref)) < 1e-10
            assert abs(np.trace(rho).real - 1.0) < 1e-12

    def test_orderings_give_identical_metrics(self):
        # U-dagger rho U is the U rho U-dagger orbit run backwards in t;
        # the charger's trig entries are even in t where it matters, so
        # every reported metric agrees between the two orderings
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.4, field=0.3)
        zeta = gibbs_numeric(p)
        h = build_hamiltonian(p)
        times, left = charge_trajectory(p, zeta, 0.0, 2.0, n_samples=5)
        for t, a in zip(times, left):
            u = charging_unitary(p, t)
            b = u.conj().T @ zeta @ u
            u_back = charging_unitary(p, -t)
            assert np.max(np.abs(b - u_back @ zeta @ u_back.conj().T)) < 1e-12
            assert abs(l1_coherence(a) - l1_coherence(b)) < 1e-12
            assert abs(concurrence(a) - concurrence(b)) < 1e-12
            assert abs(np.trace((a - b) @ h).real) < 1e-12  # equal work/ergotropy

    def test_matches_unitary_formula(self):
        p = ModelParams(delta=0.7, epsilon=0.2, omega=0.9)
        zeta = gibbs_numeric(p)
        times, states = charge_trajectory(p, zeta, 0.0, 3.0, n_samples=6)
        for t, rho in zip(times, states):
            u = charging_unitary(p, t)
            assert np.max(np.abs(rho - u @ zeta @ u.conj().T)) < 1e-13

    @pytest.mark.parametrize("n_samples", SAMPLE_CASES)
    def test_exact_uniform_samples(self, n_samples):
        p = ModelParams(delta=1.0, epsilon=0.5)
        times, states = charge_trajectory(p, gibbs_numeric(p), 0.5, 1.5, n_samples=n_samples)
        assert_uniform_samples(times, n_samples)
        assert states.shape == (n_samples, 4, 4)

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_rejects_fewer_than_two_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            charge_trajectory(ModelParams(), ket00(), 0.0, 1.0, n_samples=n_samples)

    @pytest.mark.parametrize("span", [(1.0, 1.0), (1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_rejects_empty_or_non_finite_span(self, span):
        with pytest.raises(ValueError, match="finite t0 < t1"):
            charge_trajectory(ModelParams(), ket00(), *span, n_samples=3)
