import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarqb import (
    ModelParams,
    build_hamiltonian,
    ergotropy,
    gibbs_closed_form,
    gibbs_numeric,
    closed_form_spectrum,
)
from dipolarqb.oracles import gibbs_spectrum
from conftest import random_params


class TestGibbsNumeric:
    def test_infinite_temperature_limit(self):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.3, field=0.2, temperature=1e6)
        assert np.max(np.abs(gibbs_numeric(p) - np.eye(4) / 4)) < 1e-5

    def test_diagonal_boltzmann(self):
        p = ModelParams(field=1.0, temperature=1.0)
        weights = np.exp([-2.0, 0.0, 0.0, 2.0])
        expected = np.diag(weights / weights.sum())
        assert np.max(np.abs(gibbs_numeric(p) - expected)) < 1e-14

    def test_matches_closed_form_example(self):
        p = ModelParams(delta=1.0, epsilon=0.5, field=0.1, temperature=0.5)
        closed = gibbs_closed_form(p)
        assert np.max(np.abs(gibbs_numeric(p) - closed)) < 1e-10

    def test_valid_state(self, rng):
        for _ in range(100):
            z = gibbs_numeric(random_params(rng))
            assert abs(np.trace(z).real - 1.0) < 1e-12
            assert np.max(np.abs(z - z.conj().T)) < 1e-14
            assert np.linalg.eigvalsh(z).min() > -1e-14

    def test_cold_limit_is_ground_projector(self):
        p = ModelParams(delta=1.0, epsilon=0.5, field=0.3, temperature=0.02)
        z = gibbs_numeric(p)
        values, vectors = np.linalg.eigh(build_hamiltonian(p))
        ground = np.outer(vectors[:, 0], vectors[:, 0].conj())
        assert np.max(np.abs(z - ground)) < 1e-10

    def test_deep_cold_no_overflow(self):
        # exponents ~ 4*delta/(3T) = 533 would overflow a naive e^x
        p = ModelParams(delta=8.0, epsilon=3.0, dm=2.0, field=4.0, temperature=0.02)
        z = gibbs_numeric(p)
        assert np.all(np.isfinite(z.view(float)))
        closed = gibbs_closed_form(p)
        assert np.max(np.abs(z - closed)) < 1e-10


class TestGibbsClosedForm:
    def test_x_pattern_and_normalization(self, rng):
        for _ in range(100):
            m = gibbs_closed_form(random_params(rng))
            assert abs(m[0, 0] + 2 * m[1, 1] + m[3, 3] - 1.0) < 1e-10
            assert m[1, 1] == m[2, 2]
            for (i, j) in ((0, 1), (0, 2), (1, 3), (2, 3)):
                assert m[i, j] == 0.0 and m[j, i] == 0.0
            assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_corner_coherence_vanishes(self):
        # numerator of the (1,4) entry is proportional to G + i eps
        m = gibbs_closed_form(ModelParams(delta=1.0, dm=0.4, temperature=0.7))
        assert m[0, 3] == 0.0

    def test_inner_coherence_limit(self):
        # D = delta = 0 sends the (2,3) entry through its kappa1 -> 0 limit
        m = gibbs_closed_form(ModelParams(epsilon=0.5, ksea=0.2, field=0.3))
        assert abs(m[1, 2]) < 1e-15

    def test_entrywise_against_numeric(self, rng):
        worst = 0.0
        for _ in range(300):
            p = random_params(rng)
            dev = np.max(np.abs(gibbs_closed_form(p) - gibbs_numeric(p)))
            worst = max(worst, dev)
        assert worst < 1e-10

    def test_diagonal_entries_are_real_floats(self, rng):
        m = gibbs_closed_form(random_params(rng))
        assert np.all(m.diagonal().imag == 0.0)


class TestGibbsSpectrum:
    def test_boltzmann_weights_of_levels(self, rng):
        for _ in range(50):
            p = random_params(rng)
            values, _, _ = gibbs_spectrum(p)
            nu = closed_form_spectrum(p).nu
            weights = np.exp(-(nu - nu.min()) / p.temperature)
            weights = np.sort(weights / weights.sum())[::-1]
            assert np.max(np.abs(values - weights)) < 1e-10

    def test_high_temperature_flattens(self):
        values, _, _ = gibbs_spectrum(ModelParams(delta=1.0, epsilon=0.5, temperature=1e5))
        assert np.max(np.abs(values - 0.25)) < 1e-4

    def test_closed_form_phis_match(self):
        p = ModelParams(delta=1.0, epsilon=0.5, field=0.1, temperature=0.5)
        _, _, diagnostics = gibbs_spectrum(p)
        assert diagnostics.phi_max_deviation < 1e-9

    def test_literal_vector_parameter_flagged(self):
        # the literal closed-form candidate for the {|00>,|11>}-branch
        # parameter disagrees with the eigenbasis of H unless it degenerates
        # to kappa2; the diagnostics record both so the discrepancy stays visible
        p = ModelParams(delta=1.0, epsilon=0.5, ksea=0.2, field=0.4, temperature=0.8)
        _, _, d = gibbs_spectrum(p)
        assert d.vector_overlap_defect_consistent < 1e-10
        assert abs(d.vector_param_consistent - p.kappa2()) < 1e-12
        assert d.vector_param_literal != pytest.approx(d.vector_param_consistent)
        assert d.vector_overlap_defect_literal > 1e-6

    def test_probabilities_sum_to_one(self, rng):
        values, _, _ = gibbs_spectrum(random_params(rng))
        assert abs(np.sum(values) - 1.0) < 1e-12


class TestThermalInvariants:
    def test_commutes_with_hamiltonian(self, rng):
        for _ in range(100):
            p = random_params(rng)
            z = gibbs_numeric(p)
            h = build_hamiltonian(p)
            assert np.max(np.abs(z @ h - h @ z)) < 1e-10

    def test_gibbs_is_passive(self, rng):
        for _ in range(50):
            p = random_params(rng)
            xi = ergotropy(gibbs_numeric(p), build_hamiltonian(p))
            assert abs(xi) < 1e-10

    def test_purity_decreases_with_temperature(self, rng):
        for _ in range(20):
            p = random_params(rng)
            purities = []
            for t in np.linspace(0.1, 5.0, 12):
                z = gibbs_numeric(p.replace(temperature=t))
                purities.append(np.trace(z @ z).real)
            assert np.all(np.diff(purities) <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closed_form_matches_numeric_property(seed):
    rng = np.random.default_rng(seed)
    p = random_params(rng)
    dev = np.max(np.abs(gibbs_closed_form(p) - gibbs_numeric(p)))
    assert dev < 1e-10
