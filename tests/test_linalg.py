import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarqb import (
    ModelParams,
    build_hamiltonian,
    hermitian_eigen,
    hermiticity_defect,
    partial_trace,
    require_hermitian,
    von_neumann_entropy,
)
from dipolarqb.oracles import matrix_exp
from dipolarqb.linalg import golden_max
from conftest import bell_state, ket00, random_density, random_hermitian


class TestHermitianEigen:
    def test_diagonal_2x2(self):
        values, _ = hermitian_eigen(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(values, [-1.0, 2.0])

    def test_pauli_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        values, vectors = hermitian_eigen(sx)
        assert np.allclose(values, [-1.0, 1.0])
        # vectors are (|0> -+ |1>)/sqrt2 up to phase
        for k, sign in ((0, -1.0), (1, 1.0)):
            v = vectors[:, k]
            expected = np.array([1.0, sign]) / np.sqrt(2.0)
            assert abs(abs(np.vdot(expected, v)) - 1.0) < 1e-12

    def test_model_degenerate_case(self):
        h = build_hamiltonian(ModelParams(delta=1.0))
        values, _ = hermitian_eigen(h)
        assert np.allclose(values, [-4 / 3, 0.0, 2 / 3, 2 / 3], atol=1e-12)

    def test_descending(self, rng):
        m = random_hermitian(rng)
        values, _ = hermitian_eigen(m, order="descending")
        assert np.all(np.diff(values) <= 1e-12)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="1"):
            hermitian_eigen(m)

    def test_reconstruction_many_draws(self, rng):
        # spec asks 1000 trials of eigendecompose-then-reconstruct
        for k in range(1000):
            m = random_hermitian(rng, dim=4 if k % 2 else 2, scale=3.0)
            w, v = hermitian_eigen(m)
            assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - np.eye(m.shape[0]))) < 1e-12
        # model Hamiltonians with a degenerate level: eigh alone must keep
        # the eigenvectors orthonormal inside the degenerate subspace
        for params in (ModelParams(delta=1.0), ModelParams(field=0.7),
                       ModelParams(epsilon=0.5, ksea=0.3, field=0.2)):
            m = build_hamiltonian(params)
            for order in ("ascending", "descending"):
                w, v = hermitian_eigen(m, order=order)
                assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-12
                gram = v.conj().T @ v
                assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_iter_unpacks(self, rng):
        values, vectors = hermitian_eigen(random_hermitian(rng))
        assert values.shape == (4,) and vectors.shape == (4, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matrix_exp_inverse_property(seed):
    # exp(A)exp(-A) = 1 degrades like e^(eigenvalue spread) * eps for any
    # floating-point method, so the norm is capped where 1e-9 has headroom
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, scale=5.0)
    norm = np.linalg.norm(a, 2)
    if norm > 7.0:
        a = a * (7.0 / norm)
    prod = matrix_exp(a) @ matrix_exp(-a)
    assert np.max(np.abs(prod - np.eye(4))) < 1e-9


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(np.zeros((4, 4))), np.eye(4))

    def test_pauli_rotation(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        got = matrix_exp(-1j * (np.pi / 2) * sx)
        assert np.max(np.abs(got - (-1j * sx))) < 1e-12

    def test_diagonal(self):
        got = matrix_exp(np.diag([1.0, -2.0]).astype(complex))
        assert np.allclose(got, np.diag([np.e, np.exp(-2.0)]))

    def test_general_matrix_route(self, rng):
        # neither Hermitian nor anti-Hermitian: rejected, naming the defect
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match=r"max \|M - M\^dag\| entry"):
            matrix_exp(m)


class TestPartialTrace:
    def test_ket00(self):
        assert np.allclose(partial_trace(ket00(), "A"), [[1, 0], [0, 0]])

    def test_bell_keep_b(self):
        assert np.max(np.abs(partial_trace(bell_state(), "B") - np.eye(2) / 2)) < 1e-15

    def test_product_recovers_factor(self, rng):
        ra = random_density(rng, 2)
        rb = random_density(rng, 2)
        rho = np.kron(ra, rb)
        assert np.max(np.abs(partial_trace(rho, "A") - ra)) < 1e-14
        assert np.max(np.abs(partial_trace(rho, "B") - rb)) < 1e-14

    def test_trace_preserved(self, rng):
        for _ in range(100):
            rho = random_density(rng)
            for keep in ("A", "B"):
                red = partial_trace(rho, keep)
                assert abs(np.trace(red) - 1.0) < 1e-14
                assert hermiticity_defect(red) < 1e-14


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(ket00()) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12

    def test_binary(self):
        got = von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex))
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.8112781244591328) < 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(50):
            rho = random_density(rng)
            u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            s1 = von_neumann_entropy(rho)
            s2 = von_neumann_entropy(u @ rho @ u.conj().T)
            assert abs(s1 - s2) < 1e-10

    def test_trace_violation_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.eye(4) / 2)

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            von_neumann_entropy(bad)


class TestHermiticityChecks:
    def test_defect_value(self):
        m = np.array([[1.0, 1.0 + 2.0j], [1.0, 1.0]], dtype=complex)
        assert abs(hermiticity_defect(m) - 2.0) < 1e-15

    def test_require_hermitian_names_offender(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="charge matrix"):
            require_hermitian(m, name="charge matrix")

    def test_require_hermitian_passes(self, rng):
        require_hermitian(random_hermitian(rng))


def test_eigen_rejects_unknown_order(rng):
    with pytest.raises(ValueError, match="order"):
        hermitian_eigen(random_hermitian(rng), order="sideways")


class TestGoldenMax:
    def test_known_interior_maximum(self):
        # a kinked peak is located to the bracket tolerance
        for peak in (0.3, 0.61803, 0.999):
            where, value = golden_max(lambda x: -abs(x - peak), 0.0, 1.0, 1e-10)
            assert abs(where - peak) <= 1e-10
            assert value == -abs(where - peak)

    def test_smooth_maximum_to_rounding(self):
        # at a smooth peak f is flat to rounding within ~sqrt(eps) of it,
        # so the value is exact and the location good to ~1e-8
        for f, lo, hi, peak in (
            (lambda x: 2.0 - (x - 0.3) ** 2, 0.0, 1.0, 0.3),
            (np.sin, 1.0, 2.5, np.pi / 2),
            (lambda x: x * np.exp(-x), 0.2, 3.0, 1.0),
        ):
            where, value = golden_max(f, lo, hi, 1e-10)
            assert abs(where - peak) < 1e-7
            assert abs(value - f(peak)) < 1e-15

    def test_maximum_at_an_end_of_the_bracket(self):
        where, _ = golden_max(lambda x: x, 0.0, 0.1, 1e-10)
        assert 0.1 - 1e-10 <= where <= 0.1

    def test_repeat_calls_are_identical(self):
        def run():
            seen = []

            def f(x):
                seen.append(x)
                return np.cos(3.0 * x) + 0.1 * x

            return golden_max(f, 0.5, 1.7, 1e-10), seen

        assert run() == run()

    def test_negated_function_gives_the_minimum(self):
        where, _ = golden_max(lambda x: -abs(x - 0.7), -1.0, 2.0, 1e-10)
        assert abs(where - 0.7) <= 1e-10
        where, value = golden_max(lambda x: -np.cosh(x - 0.7), -1.0, 2.0, 1e-10)
        assert abs(where - 0.7) < 1e-7
        assert abs(-value - 1.0) < 1e-15
