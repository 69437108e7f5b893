from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarqb import (
    MeasurementDirection,
    ModelParams,
    charge_trajectory,
    concurrence,
    gibbs_numeric,
    l1_coherence,
    quantum_discord,
    von_neumann_entropy,
)
from dipolarqb.cli import parse_config
from dipolarqb.dynamics import charged_state
from dipolarqb.oracles import _projector_pairs, nelder_mead_search
from dipolarqb.resources import (
    GRID_PHI_N,
    GRID_THETA_N,
    SEARCH_CHUNK,
    _conditional_entropy,
    _discord,
    _general_search,
    _scalar_objective,
    _x_state_search,
)
from conftest import bell_state, ket00, random_density, random_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def random_local_unitary(rng):
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    return np.kron(u, v)


class TestCoherence:
    def test_diagonal_states(self, rng):
        # summation-order noise only, no true off-diagonal weight
        for _ in range(20):
            d = rng.uniform(0, 1, 4)
            assert abs(l1_coherence(np.diag(d / d.sum()))) < 1e-15

    def test_plus_plus(self):
        plus = np.full(2, 1.0 / np.sqrt(2.0))
        v = np.kron(plus, plus)
        assert abs(l1_coherence(np.outer(v, v)) - 3.0) < 1e-12

    def test_bell(self):
        assert abs(l1_coherence(bell_state()) - 1.0) < 1e-14

    def test_range(self, rng):
        for _ in range(100):
            c = l1_coherence(random_density(rng))
            assert 0.0 <= c <= 3.0

    def test_stack_equals_per_state_calls_bitwise(self, rng):
        stack = np.array([random_density(rng) for _ in range(200)]).reshape(20, 10, 4, 4)
        vals = l1_coherence(stack)
        assert vals.shape == (20, 10)
        for idx in np.ndindex(vals.shape):
            single = l1_coherence(stack[idx])
            assert isinstance(single, float)
            assert vals[idx] == single


class TestConcurrence:
    def test_bell(self):
        assert abs(concurrence(bell_state()) - 1.0) < 1e-10

    def test_product_states(self, rng):
        for _ in range(50):
            rho = np.kron(random_density(rng, 2), random_density(rng, 2))
            assert concurrence(rho) < 1e-8

    def test_werner_closed_form(self):
        # concurrence of w*Bell + (1-w)/4 is max(0, (3w-1)/2)
        for w in (0.1, 1 / 3, 2 / 3, 0.9):
            rho = w * bell_state() + (1 - w) * np.eye(4) / 4
            expected = max(0.0, (3 * w - 1) / 2)
            assert abs(concurrence(rho) - expected) < 1e-12

    def test_range(self, rng):
        for _ in range(100):
            c = concurrence(random_density(rng))
            assert 0.0 <= c <= 1.0


class TestDiscord:
    def test_product_state(self, rng):
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        r = quantum_discord(rho)
        assert abs(r.discord) < 1e-8
        assert abs(r.mutual_information) < 1e-10

    def test_classically_correlated(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        r = quantum_discord(rho)
        assert abs(r.discord) < 1e-6
        assert abs(r.classical_correlation - 1.0) < 1e-6
        assert abs(r.mutual_information - 1.0) < 1e-10

    def test_bell(self):
        r = quantum_discord(bell_state())
        assert abs(r.discord - 1.0) < 1e-8
        assert abs(r.classical_correlation - 1.0) < 1e-8

    def test_maximally_mixed(self):
        r = quantum_discord(np.eye(4, dtype=complex) / 4)
        assert abs(r.discord) < 1e-8
        assert abs(r.classical_correlation) < 1e-8
        assert abs(r.mutual_information) < 1e-8

    def test_decomposition_identity(self, rng):
        for _ in range(20):
            r = quantum_discord(random_density(rng))
            assert abs(r.discord - (r.mutual_information - r.classical_correlation)) < 1e-9
            assert r.discord >= 0.0
            assert 0.0 <= r.optimal_direction.theta <= np.pi
            assert 0.0 <= r.optimal_direction.phi < 2 * np.pi
            assert r.optimizer_evals >= GRID_THETA_N * GRID_PHI_N

    def test_deterministic(self, rng):
        rho = random_density(rng)
        a = quantum_discord(rho)
        b = quantum_discord(rho)
        assert a.discord == b.discord
        assert a.optimal_direction.theta == b.optimal_direction.theta

    def test_local_unitary_invariance(self, rng):
        for _ in range(10):
            rho = random_density(rng)
            lu = random_local_unitary(rng)
            rotated = lu @ rho @ lu.conj().T
            assert abs(concurrence(rho) - concurrence(rotated)) < 1e-6
            assert abs(quantum_discord(rho).discord - quantum_discord(rotated).discord) < 1e-4

    def test_measure_b_side(self):
        p = ModelParams(delta=1.0, epsilon=0.5, dm=0.3, ksea=0.2, field=0.4)
        zeta = gibbs_numeric(p)
        a = quantum_discord(zeta, measure="A")
        b = quantum_discord(zeta, measure="B")
        # the thermal X-state has equal marginals and swap-symmetric
        # correlations, so both sides agree
        assert abs(a.discord - b.discord) < 1e-6

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            quantum_discord(np.eye(4) / 4, measure="C")

    def test_grid_refinement_stable_on_x_states(self, monkeypatch):
        # doubling the general search's start grid must not move the
        # refined discord on the charging-orbit states this model
        # produces, which are not X-states.  Samples at multiples of
        # Omega t = pi/2 are (sx x sx) zeta (sx x sx) or zeta itself,
        # X-states, so the four samples are 45, 75, 105 and 135 degrees
        import dipolarqb.resources as res

        grids = []  # the size of each objective call; the first is the start grid

        def spy(rho, w):
            grids.append(np.size(w))
            return _conditional_entropy(rho, w)

        monkeypatch.setattr(res, "_conditional_entropy", spy)
        for seed in range(5):
            gen = np.random.default_rng(seed)
            p = ModelParams(
                delta=gen.uniform(-2, 2), epsilon=gen.uniform(-2, 2),
                dm=gen.uniform(-2, 2), ksea=gen.uniform(-2, 2),
                field=gen.uniform(-2, 2), temperature=gen.uniform(0.3, 3.0),
            )
            zeta = gibbs_numeric(p)
            _, states = charge_trajectory(p, zeta, np.pi / 4, 3 * np.pi / 4, n_samples=4)
            for rho in states:
                monkeypatch.setattr(res, "GRID_THETA_N", GRID_THETA_N)
                monkeypatch.setattr(res, "GRID_PHI_N", GRID_PHI_N)
                coarse = quantum_discord(rho).discord
                monkeypatch.setattr(res, "GRID_THETA_N", 2 * GRID_THETA_N)
                monkeypatch.setattr(res, "GRID_PHI_N", 2 * GRID_PHI_N)
                grids.clear()
                fine = quantum_discord(rho).discord
                assert grids[0] == 4 * GRID_THETA_N * GRID_PHI_N  # the doubled grid ran
                assert abs(coarse - fine) < 1e-5


def random_x_state(rng, swap_symmetric=False):
    """X-state from two PSD 2x2 blocks with random complex coherences."""
    pop = rng.dirichlet(np.full(4, rng.choice([0.3, 1.0, 3.0])))
    if swap_symmetric:
        pop[1] = pop[2] = 0.5 * (pop[1] + pop[2])
    rho = np.diag(pop).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        phase = 0.0 if swap_symmetric and i == 1 else rng.uniform(0.0, 2.0 * np.pi)
        z = np.sqrt(pop[i] * pop[j] * rng.uniform()) * np.exp(1j * phase)
        rho[i, j], rho[j, i] = z, np.conj(z)
    return rho


def assert_match_general_route(states):
    """Each state's X-state route against one stacked general-route call."""
    states = np.asarray(states, dtype=complex)
    ref = _discord(states, _general_search)
    fast = [quantum_discord(rho) for rho in states]
    for i, r in enumerate(fast):
        assert r.optimizer_evals < 100  # the X-state search ran
        assert abs(r.discord - ref.discord[i]) <= 1e-9
        # a supremum: a lower classical correlation would be a worse optimum
        assert r.classical_correlation >= ref.classical_correlation[i] - 1e-12
        assert 0.0 <= r.optimal_direction.theta <= np.pi
        assert 0.0 <= r.optimal_direction.phi < 2.0 * np.pi
    return fast


class TestXStateDiscord:
    def test_random_x_states_match_general_route(self):
        rng = np.random.default_rng(4242)
        assert_match_general_route([random_x_state(rng) for _ in range(1000)])

    def test_bundled_thermal_states_match_general_route(self):
        paths = sorted(CONFIG_DIR.glob("thermal_*.cfg"))
        assert len(paths) == 15
        states = []
        for path in paths:
            cfg = parse_config(path.read_text())
            states += [gibbs_numeric(cfg.params.replace(temperature=float(temp)))
                       for temp in cfg.sweep.values()]
        assert_match_general_route(states)

    def test_intermediate_angle_optimum(self):
        # neither sz (theta = 0) nor sx (theta = pi/2) is optimal here
        # (Huang, PRA 88, 014302): the search must not just compare them
        rho = np.diag([0.93, 0.0, 0.035, 0.035]).astype(complex)
        rho[0, 3] = rho[3, 0] = 0.16
        fast, = assert_match_general_route([rho])
        assert 0.1 < fast.optimal_direction.theta < np.pi / 2 - 0.1
        d = fast.optimal_direction
        cond = _conditional_entropy(rho, np.array([0.0, np.pi / 2, d.theta]) * np.exp(1j * d.phi))
        assert min(cond[0], cond[1]) - cond[2] > 1e-3

    def test_never_above_a_dense_theta_scan(self):
        # an oracle that shares no optimizer with either route: 20001
        # theta points over [0, pi] at the closed-form phi*
        intermediate = np.diag([0.93, 0.0, 0.035, 0.035]).astype(complex)
        intermediate[0, 3] = intermediate[3, 0] = 0.16
        rng = np.random.default_rng(2024)
        thetas = np.linspace(0.0, np.pi, 20001)
        for rho in [intermediate] + [random_x_state(rng) for _ in range(200)]:
            phi = 0.5 * (np.angle(rho[2, 1]) - np.angle(rho[0, 3]))
            scan = _conditional_entropy(rho, thetas * np.exp(1j * phi)).min()
            best, _, _, evals = _x_state_search(rho)
            assert evals < 100
            assert best <= scan + 1e-12

    def test_measure_b_matches_a_on_swap_symmetric_states(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            rho = random_x_state(rng, swap_symmetric=True)
            swap = np.eye(4)[[0, 2, 1, 3]]
            assert np.max(np.abs(swap @ rho @ swap - rho)) < 1e-15
            a = quantum_discord(rho, measure="A")
            b = quantum_discord(rho, measure="B")
            assert abs(a.discord - b.discord) < 1e-12
            assert b.optimizer_evals < 100

    def test_path_threshold(self):
        rho = random_x_state(np.random.default_rng(5))
        for leak, x_path in ((1e-13, True), (1e-11, False)):
            noisy = rho.copy()
            noisy[0, 1] = noisy[1, 0] = leak
            assert (quantum_discord(noisy).optimizer_evals < 100) == x_path


def general_search_states():
    """Special states, then 200 random full-rank and 200 charging-orbit ones."""
    rng = np.random.default_rng(1717)
    intermediate = np.diag([0.93, 0.0, 0.035, 0.035]).astype(complex)
    intermediate[0, 3] = intermediate[3, 0] = 0.16
    lu = random_local_unitary(rng)
    charge_p = ModelParams(delta=1.0, epsilon=0.5)
    special = [
        bell_state(), lu @ bell_state() @ lu.conj().T, np.eye(4, dtype=complex) / 4, ket00(),
        np.kron(random_density(rng, 2), random_density(rng, 2)),
        np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), intermediate,
        # a minimum in a long valley: a search on (theta, phi) that
        # shrinks its step every round stops 2.6e-8 above it
        random_density(np.random.default_rng(2846)),
        # a bundled charge orbit near Omega t = 3 pi / 4, minimum 0.005 rad
        # from the pole: a search that steps theta and phi crawls there
        charged_state(charge_p, gibbs_numeric(charge_p), 2.36),
    ]
    special += [random_x_state(rng) for _ in range(5)]
    special += [gibbs_numeric(random_params(rng, box=2.0, t_lo=0.1, t_hi=3.0)) for _ in range(5)]
    full_rank = [random_density(rng) for _ in range(200)]
    orbit = []
    for _ in range(200):
        p = random_params(rng, box=2.0, t_lo=0.3, t_hi=3.0)
        orbit.append(charged_state(p, gibbs_numeric(p), rng.uniform(0.0, np.pi / p.omega)))
    return special + full_rank + orbit


class TestGeneralSearch:
    def test_never_above_nelder_mead(self):
        # the Nelder-Mead polish from a 64x64 grid is the reference
        states = general_search_states()
        found = _general_search(np.array(states))
        for rho, cond in zip(states, found[0]):
            assert cond <= nelder_mead_search(rho)[0] + 1e-12

    def test_never_above_a_dense_2d_scan(self):
        # an oracle that shares no optimizer with the search: 401 x 800
        # (theta, phi) points over the whole sphere
        tg, pg = np.meshgrid(np.linspace(0.0, np.pi, 401),
                             np.linspace(0.0, 2.0 * np.pi, 800, endpoint=False), indexing="ij")
        scan = (tg * np.exp(1j * pg)).ravel()
        states = general_search_states()[::20]
        assert len(states) >= 20
        for rho, cond in zip(states, _general_search(np.array(states))[0]):
            assert cond <= _conditional_entropy(rho, scan).min() + 1e-12

    def test_bitwise_deterministic(self):
        states = np.array(general_search_states()[::40])
        assert np.array_equal(_general_search(states), _general_search(states.copy()))


class TestStackedDiscord:
    # special states 5 to 13 mix X-states and general ones; full-rank ones follow
    MIXED = np.r_[5:14, 19:19 + SEARCH_CHUNK]

    def test_general_search_rows_equal_single_state_calls(self):
        # a state's value, angles and evaluation count do not depend on
        # the stack around it, wherever the chunk boundaries fall
        states = np.array(general_search_states())
        single = np.array([_general_search(rho[None])[:, 0] for rho in states]).T
        assert len(set(single[3])) > 10  # states leave the rounds at different times
        stacks = [(np.arange(len(states)), _general_search(states))]
        for size in (1, SEARCH_CHUNK - 1, SEARCH_CHUNK, SEARCH_CHUNK + 1):
            idx = self.MIXED[:size]
            stacks.append((idx, _general_search(states[idx])))
        for idx, found in stacks:
            assert np.max(np.abs(found[0] - single[0, idx])) <= 1e-14
            assert np.array_equal(found[1:], single[1:, idx])

    def test_zero_round_search_equals_single_state_calls(self, monkeypatch):
        import dipolarqb.resources as res

        monkeypatch.setattr(res, "REFINE_ROUNDS", 0)
        states = np.array(general_search_states()[::10])
        found = _general_search(states)
        assert np.all(found[3] == GRID_THETA_N * GRID_PHI_N)
        for i, rho in enumerate(states):
            assert np.array_equal(found[:, i], _general_search(rho[None])[:, 0])

    @pytest.mark.parametrize("measure", ["A", "B"])
    def test_discord_of_a_stack_equals_single_state_calls(self, measure):
        states = np.array(general_search_states())
        singles = [quantum_discord(rho, measure=measure) for rho in states]
        sizes = (len(states), 1, SEARCH_CHUNK - 1, SEARCH_CHUNK, SEARCH_CHUNK + 1)
        for size in sizes:
            idx = np.arange(len(states)) if size == len(states) else self.MIXED[:size]
            stacked = quantum_discord(states[idx], measure=measure)
            assert stacked.discord.shape == (size,)
            assert type(stacked.optimizer_evals) is int
            assert stacked.optimizer_evals == sum(singles[i].optimizer_evals for i in idx)
            for k, i in enumerate(idx):
                assert abs(stacked.discord[k] - singles[i].discord) <= 1e-14
                assert stacked.optimal_direction.theta[k] == singles[i].optimal_direction.theta
                assert stacked.optimal_direction.phi[k] == singles[i].optimal_direction.phi
                assert stacked.mutual_information[k] == singles[i].mutual_information

    def test_stack_keeps_its_leading_shape(self):
        states = np.array(general_search_states()[:12]).reshape(3, 4, 4, 4)
        r = quantum_discord(states)
        assert r.discord.shape == r.optimal_direction.theta.shape == (3, 4)
        assert r.discord[2, 1] == quantum_discord(states[2, 1]).discord


class TestOptimizerInternals:
    def test_projector_pairs_complete_orthogonal(self, rng):
        th = rng.uniform(0, np.pi, 12)
        ph = rng.uniform(0, 2 * np.pi, 12)
        pairs = _projector_pairs(th, ph)
        for n in range(12):
            plus, minus = pairs[n]
            assert np.max(np.abs(plus + minus - np.eye(2))) < 1e-14
            assert np.max(np.abs(plus @ plus - plus)) < 1e-14
            assert np.max(np.abs(plus @ minus)) < 1e-14

    def test_conditional_entropy_against_projector_route(self, rng):
        # independent reconstruction: build both conditionals from the
        # projector pairs and take dense 2x2 entropies
        for _ in range(25):
            rho = random_density(rng)
            r4 = rho.reshape(2, 2, 2, 2)
            th = rng.uniform(0, np.pi, 5)
            ph = rng.uniform(0, 2 * np.pi, 5)
            fast = _conditional_entropy(rho, th * np.exp(1j * ph))
            pairs = _projector_pairs(th, ph)
            for n in range(5):
                ref = 0.0
                for k in (0, 1):
                    cond = np.einsum("im,mkil->kl", pairs[n, k], r4)
                    prob = np.trace(cond).real
                    ref += prob * von_neumann_entropy(cond / prob)
                assert abs(fast[n] - ref) < 1e-10

    def test_scalar_objective_matches_vectorized(self, rng):
        rho = random_density(rng)
        f = _scalar_objective(rho)
        th = rng.uniform(0, np.pi, 20)
        ph = rng.uniform(0, 2 * np.pi, 20)
        vec = _conditional_entropy(rho, th * np.exp(1j * ph))
        for t, p_, v in zip(th, ph, vec):
            assert abs(f([t, p_]) - v) < 1e-12

    def test_measurement_direction_axis(self):
        d = MeasurementDirection(theta=np.pi / 2, phi=0.0)
        assert np.allclose(d.axis(), [1.0, 0.0, 0.0])
        d = MeasurementDirection(theta=0.0, phi=1.3)
        assert np.allclose(d.axis(), [0.0, 0.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_measures_vanish_together_on_mixtures_of_identity(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 0.2)
    rho = w * random_density(rng) + (1 - w) * np.eye(4) / 4
    assert concurrence(rho) <= 1.0
    assert l1_coherence(rho) <= 3.0
    assert quantum_discord(rho).discord >= 0.0
