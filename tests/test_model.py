import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarqb import (
    ModelParams,
    build_hamiltonian,
    charging_hamiltonian,
    charging_unitary,
    closed_form_spectrum,
    hermitian_eigen,
)
from dipolarqb.oracles import charging_unitary_exact, matrix_exp


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.temperature == 1.0 and p.omega == 1.0 and p.gamma == 0.0

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelParams(temperature=0.0)
        with pytest.raises(ValueError):
            ModelParams(temperature=-1.0)

    def test_gamma_nonnegative(self):
        with pytest.raises(ValueError):
            ModelParams(gamma=-0.1)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            ModelParams(delta=float("nan"))
        with pytest.raises(ValueError):
            ModelParams(field=float("inf"))

    def test_replace(self):
        p = ModelParams(delta=1.0).replace(epsilon=2.0)
        assert p.delta == 1.0 and p.epsilon == 2.0

    def test_kappas(self):
        p = ModelParams(delta=3.0, dm=4.0, ksea=1.0, epsilon=2.0, field=2.0)
        assert abs(p.kappa1() - np.hypot(3 * 4.0, 3.0)) < 1e-12
        assert abs(p.kappa2() - 3.0) < 1e-12


class TestBuildHamiltonian:
    def test_all_zero(self):
        assert np.all(build_hamiltonian(ModelParams()) == 0.0)

    def test_delta_only(self):
        h = build_hamiltonian(ModelParams(delta=1.0))
        assert abs(h[0, 0] - 2 / 3) < 1e-12
        assert abs(h[3, 3] - 2 / 3) < 1e-12
        assert abs(h[1, 1] + 2 / 3) < 1e-12
        assert abs(h[2, 2] + 2 / 3) < 1e-12
        assert abs(h[1, 2] + 2 / 3) < 1e-12

    def test_zeeman_only(self):
        h = build_hamiltonian(ModelParams(field=1.0))
        assert np.allclose(h, np.diag([2.0, 0.0, 0.0, -2.0]))

    def test_hermitian_traceless(self, rng):
        for _ in range(300):
            p = ModelParams(*rng.uniform(-10, 10, size=5))
            h = build_hamiltonian(p)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            assert abs(np.trace(h)) < 1e-12


class TestClosedFormSpectrum:
    def test_delta_only_values(self):
        spec = closed_form_spectrum(ModelParams(delta=1.0))
        assert np.allclose(spec.nu, [-4 / 3, 0.0, 2 / 3, 2 / 3], atol=1e-12)

    def test_all_zero(self):
        assert np.allclose(closed_form_spectrum(ModelParams()).nu, 0.0)

    def test_multiset_matches_numeric(self, rng):
        worst = 0.0
        for _ in range(300):
            p = ModelParams(*rng.uniform(-10, 10, size=5))
            spec = closed_form_spectrum(p)
            numeric, _ = hermitian_eigen(build_hamiltonian(p))
            worst = max(worst, np.max(np.abs(np.sort(spec.nu) - numeric)))
        assert worst < 1e-10

    def test_eigenvalue_sum_vanishes(self, rng):
        for _ in range(200):
            p = ModelParams(*rng.uniform(-10, 10, size=5))
            assert abs(np.sum(closed_form_spectrum(p).nu)) < 1e-10

    def test_eigenvectors_orthonormal_and_correct(self, rng):
        for _ in range(200):
            p = ModelParams(*rng.uniform(-8, 8, size=5))
            h = build_hamiltonian(p)
            spec = closed_form_spectrum(p)
            gram = spec.eigvecs.conj().T @ spec.eigvecs
            assert np.max(np.abs(gram - np.eye(4))) < 1e-10
            for nu, v in zip(spec.nu, spec.eigvecs.T):
                assert np.linalg.norm(h @ v - nu * v) < 1e-10

    def test_kappa_fields_recomputable(self, rng):
        p = ModelParams(*rng.uniform(-10, 10, size=5))
        spec = closed_form_spectrum(p)
        assert abs(spec.kappa1 - p.kappa1()) < 1e-12
        assert abs(spec.kappa2 - p.kappa2()) < 1e-12

    def test_degenerate_kappa1_branch(self):
        # D = delta = 0 makes the (01,10) pair formula 0/0
        p = ModelParams(epsilon=0.5, ksea=0.2, field=0.3)
        h = build_hamiltonian(p)
        spec = closed_form_spectrum(p)
        want = {tuple(np.round(v, 12)) for v in
                (np.array([0, 1, -1, 0]) / np.sqrt(2), np.array([0, 1, 1, 0]) / np.sqrt(2))}
        got = set()
        for nu, v in zip(spec.nu, spec.eigvecs.T):
            assert np.linalg.norm(h @ v - nu * v) < 1e-12
            if abs(v[1]) > 0.1:
                phase = v[1] / abs(v[1])
                got.add(tuple(np.round((v / phase).real, 12)))
        assert got == want

    def test_degenerate_zeeman_block(self):
        # G = epsilon = 0 leaves the (00,11) block diagonal
        for b in (0.7, -0.7):
            p = ModelParams(delta=1.0, dm=0.3, field=b)
            spec = closed_form_spectrum(p)
            h = build_hamiltonian(p)
            for nu, v in zip(spec.nu, spec.eigvecs.T):
                assert np.linalg.norm(h @ v - nu * v) < 1e-12

    def test_near_degenerate_continuity(self):
        # tiny kappa2 must still produce orthonormal eigenvectors
        p = ModelParams(delta=1.0, epsilon=1e-9, ksea=0.0, field=1e-9)
        spec = closed_form_spectrum(p)
        gram = spec.eigvecs.conj().T @ spec.eigvecs
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10


class TestCharging:
    def test_hamiltonian_zero_omega(self):
        assert np.all(charging_hamiltonian(ModelParams(omega=0.0)) == 0.0)

    def test_hamiltonian_spectrum(self):
        h = charging_hamiltonian(ModelParams(omega=1.0))
        assert np.allclose(np.linalg.eigvalsh(h), [-2.0, 0.0, 0.0, 2.0])

    def test_hamiltonian_entry(self):
        h = charging_hamiltonian(ModelParams(omega=0.5))
        assert abs(h[0, 1] - 0.5) < 1e-15

    def test_unitary_at_zero(self):
        assert np.allclose(charging_unitary(ModelParams(), 0.0), np.eye(4))

    def test_unitary_quarter_turn(self):
        u = charging_unitary(ModelParams(omega=1.0), np.pi / 4)
        assert abs(u[0, 0] - 0.5) < 1e-12            # a = cos^2
        assert abs(u[0, 3] + 0.5) < 1e-12            # b = -sin^2
        assert abs(u[0, 1] + 0.5j) < 1e-12           # c = -(i/2) sin(2wt)

    def test_unitary_half_turn_swaps(self):
        u = charging_unitary(ModelParams(omega=1.0), np.pi / 2)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 3] = expect[3, 0] = expect[1, 2] = expect[2, 1] = -1.0
        assert np.max(np.abs(u - expect)) < 1e-12

    def test_unitarity_on_dense_grid(self):
        p = ModelParams(omega=1.0)
        for wt in np.linspace(0.0, 2 * np.pi, 201):
            u = charging_unitary(p, wt)
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_matches_exponential_route(self, rng):
        for _ in range(50):
            p = ModelParams(omega=rng.uniform(0.2, 3.0))
            t = rng.uniform(0.0, 7.0)
            u = charging_unitary(p, t)
            ue = charging_unitary_exact(p, t)
            assert np.max(np.abs(u - ue)) < 1e-10
            direct = matrix_exp(-1j * charging_hamiltonian(p) * t)
            assert np.max(np.abs(u - direct)) < 1e-10

    def test_time_array_gives_the_stack_of_scalar_calls(self, rng):
        # negative times included: the closed form holds for any sign
        for _ in range(20):
            p = ModelParams(omega=rng.uniform(-3.0, 3.0))
            ts = rng.uniform(-7.0, 7.0, size=(3, 5))
            stack = charging_unitary(p, ts)
            assert stack.shape == (3, 5, 4, 4)
            for idx in np.ndindex(ts.shape):
                t = float(ts[idx])
                assert np.max(np.abs(stack[idx] - charging_unitary(p, t))) < 1e-14
                assert np.max(np.abs(stack[idx] - charging_unitary_exact(p, t))) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_spectrum_multiset_property(seed):
    rng = np.random.default_rng(seed)
    p = ModelParams(*rng.uniform(-10, 10, size=5))
    spec = closed_form_spectrum(p)
    numeric, _ = hermitian_eigen(build_hamiltonian(p))
    assert np.max(np.abs(np.sort(spec.nu) - numeric)) < 1e-10
