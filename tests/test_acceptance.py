"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single pass/fail line
under pytest -v.  Numbers quoted in assertions are the contract
tolerances, not observed values; a structured summary of what was
actually measured lands in acceptance_report.txt at the repo root;
wall times go to the test output (pytest -s) instead.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from dipolarqb import (
    ModelParams,
    TimeGrid,
    antipassive_state,
    build_hamiltonian,
    capacity,
    charge_trajectory,
    charging_orbit_arrays,
    charging_unitary,
    closed_form_spectrum,
    collapse_operators,
    concurrence,
    ergotropy,
    ergotropy_closed_form,
    evolve_lindblad,
    gibbs_closed_form,
    gibbs_numeric,
    hermitian_eigen,
    l1_coherence,
    orbit_peaks,
    passive_state,
    quantum_discord,
    work_and_power,
)
from dipolarqb.oracles import (
    capacity_closed_form,
    charging_unitary_exact,
    ergotropy_closed_form_literal,
    ergotropy_double_sum,
    matrix_exp,
)
from dipolarqb.cli import parse_config, run_scenario
from conftest import bell_state, ket00, random_density, random_hermitian

REPO_ROOT = Path(__file__).resolve().parent.parent
_REPORT = []


def _record(line):
    _REPORT.append(line)


def _wall_time(criterion, seconds):
    # to the test output, not the report, so the report changes only
    # when a measured deviation does
    print(f"criterion {criterion}: {seconds:.2f}s")


@pytest.fixture(scope="module", autouse=True)
def acceptance_report():
    yield
    out = REPO_ROOT / "acceptance_report.txt"
    out.write_text("\n".join(_REPORT) + "\n", encoding="ascii")


def test_criterion_01_spectrum_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = ModelParams(*rng.uniform(-10.0, 10.0, 5))
        closed = np.sort(closed_form_spectrum(p).nu)
        numeric, _ = hermitian_eigen(build_hamiltonian(p))
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    elapsed = time.perf_counter() - t0
    _record(f"criterion 1: worst spectrum multiset deviation {worst:.3e} "
            "over 1000 draws in [-10,10]^5")
    _wall_time(1, elapsed)
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_gibbs_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    failures = []
    for k in range(1000):
        p = ModelParams(*rng.uniform(-10.0, 10.0, 5),
                        temperature=rng.uniform(0.05, 10.0))
        dev_mat = np.abs(gibbs_closed_form(p) - gibbs_numeric(p))
        dev = float(dev_mat.max())
        worst = max(worst, dev)
        if dev > 1e-10:
            i, j = np.unravel_index(int(dev_mat.argmax()), (4, 4))
            failures.append(f"  draw {k}: entry ({i},{j}) off by {dev:.3e} at {p}")
    _record(f"criterion 2: worst thermal-state entry deviation {worst:.3e} "
            f"over 1000 draws, T in [0.05,10]")
    if failures:
        report = "\n".join(
            [f"gibbs closed form vs numeric: {len(failures)} draws beyond 1e-10"]
            + failures[:20]
        )
        _record(report)
        pytest.fail(report)


def test_criterion_03_lindblad_correctness():
    p = ModelParams(delta=1.0, epsilon=0.5, dm=0.3, ksea=0.2, field=0.4)
    rho0 = ket00()
    h = build_hamiltonian(p)

    # (a) closed system: trajectory == exact unitary propagation
    times, states = evolve_lindblad(p, rho0, TimeGrid(0.0, 10.0, 1e-3), n_samples=11)
    worst_unitary = 0.0
    for t, rho in zip(times, states):
        u = matrix_exp(-1j * t * h)
        worst_unitary = max(worst_unitary, float(np.max(np.abs(rho - u @ rho0 @ u.conj().T))))
    assert worst_unitary < 1e-8

    # (b) open system vs dense superoperator exponential
    po = p.replace(gamma=0.3)
    eye = np.eye(4)
    lsup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in collapse_operators(po):
        cdc = c.conj().T @ c
        lsup += np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    t_end = 2.0
    _, states_o = evolve_lindblad(po, rho0, TimeGrid(0.0, t_end, 1e-3), n_samples=2)
    oracle = (expm(lsup * t_end) @ rho0.flatten(order="F")).reshape((4, 4), order="F")
    dev_superop = float(np.max(np.abs(states_o[-1] - oracle)))
    assert dev_superop < 1e-7

    # (c) trace drift over a long open-system run
    _, states_l = evolve_lindblad(po, rho0, TimeGrid(0.0, 10.0, 1e-3), n_samples=21)
    drift = max(abs(np.trace(r).real - 1.0) for r in states_l)
    assert drift < 1e-8

    # (d) global error scales like dt^4 under step halving
    def endpoint(dt):
        _, s = evolve_lindblad(po, rho0, TimeGrid(0.0, 1.0, dt), n_samples=2)
        return s[-1]

    ref = endpoint(2e-3 / 16.0)
    e1 = float(np.max(np.abs(endpoint(2e-3) - ref)))
    e2 = float(np.max(np.abs(endpoint(1e-3) - ref)))
    factor = e1 / e2
    assert 8.0 < factor < 32.0

    _record(f"criterion 3: unitary-limit dev {worst_unitary:.3e}, superoperator dev "
            f"{dev_superop:.3e}, trace drift {drift:.3e}, halving factor {factor:.1f}")


def test_criterion_04_resource_measures():
    bell = bell_state()
    assert abs(concurrence(bell) - 1.0) < 1e-10

    rng = np.random.default_rng(404)
    product = np.kron(random_density(rng, 2), random_density(rng, 2))
    assert quantum_discord(product).discord < 1e-8

    cc = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    r = quantum_discord(cc)
    assert r.discord < 1e-6
    assert abs(r.classical_correlation - 1.0) < 1e-6

    plus = np.full(2, 1.0 / np.sqrt(2.0))
    v = np.kron(plus, plus)
    assert abs(l1_coherence(np.outer(v, v)) - 3.0) < 1e-12

    mixed = np.eye(4, dtype=complex) / 4.0
    rm = quantum_discord(mixed)
    for val in (concurrence(mixed), l1_coherence(mixed), rm.discord,
                rm.classical_correlation, rm.mutual_information):
        assert abs(val) < 1e-8

    _record("criterion 4: Bell concurrence, product/classical discord, "
            "|+x+| coherence, and maximally mixed baselines all inside tolerance")


def test_criterion_05_ergotropy_identities():
    rng = np.random.default_rng(505)

    worst_gibbs = 0.0
    for _ in range(200):
        p = ModelParams(*rng.uniform(-5.0, 5.0, 5), temperature=rng.uniform(0.1, 5.0))
        worst_gibbs = max(worst_gibbs, ergotropy(gibbs_numeric(p), build_hamiltonian(p)))
    assert worst_gibbs < 1e-10

    worst_dual = 0.0
    for _ in range(1000):
        rho = random_density(rng)
        h = random_hermitian(rng, scale=3.0)
        worst_dual = max(worst_dual, abs(ergotropy(rho, h) - ergotropy_double_sum(rho, h)))
    assert worst_dual < 1e-9

    worst_eta = 0.0
    worst_excess = -np.inf
    for _ in range(10):
        p = ModelParams(*rng.uniform(-3.0, 3.0, 5), temperature=rng.uniform(0.3, 4.0))
        zeta = gibbs_numeric(p)
        times, states = charge_trajectory(p, zeta, 0.0, np.pi / p.omega, n_samples=41)
        series = work_and_power(list(states), times, p)
        worst_eta = max(worst_eta, float(np.max(np.abs(series.columns["efficiency"] - 1.0))))
        cap = capacity(p).capacity_unitary
        worst_excess = max(worst_excess, float(np.max(series.columns["ergotropy"]) - cap))
    assert worst_eta < 1e-9
    assert worst_excess <= 1e-9

    _record(f"criterion 5: Gibbs ergotropy <= {worst_gibbs:.3e}, dual-route gap "
            f"{worst_dual:.3e} over 1000 pairs, efficiency dev {worst_eta:.3e}, "
            f"max ergotropy-over-capacity {worst_excess:.3e}")


def test_criterion_06_peak_location_and_constant_capacity():
    t0 = time.perf_counter()
    p = ModelParams(delta=1.0, epsilon=0.5, temperature=1.0)  # B = G = D = 0
    s, xi, _, _ = charging_orbit_arrays(p, n_grid=31417)  # 1e-4 resolution in Omega t
    peak_at = float(s[int(np.argmax(xi))])
    assert abs(peak_at - np.pi / 4.0) <= 1e-4

    h = build_hamiltonian(p)
    zeta = gibbs_numeric(p)
    ref_cap = capacity(p).capacity_unitary
    worst_cap = 0.0
    for t in np.linspace(0.0, np.pi / p.omega, 21):
        u = charging_unitary(p, t)
        rho = u @ zeta @ u.conj().T
        gap = float(np.trace(h @ (antipassive_state(rho, h) - passive_state(rho, h))).real)
        worst_cap = max(worst_cap, abs(gap - ref_cap))
    assert worst_cap < 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _record(f"criterion 6: ergotropy peak at Omega*t = {peak_at:.6f} "
            f"(pi/4 = {np.pi / 4:.6f}), capacity wobble {worst_cap:.3e}")
    _wall_time(6, elapsed)


def test_criterion_07_closed_form_oracle_over_sweep_ranges():
    rng = np.random.default_rng(707)
    worst_xi = worst_im = worst_identity = 0.0
    n_match_basis = n_match_unitary = 0
    for _ in range(200):
        p = ModelParams(
            delta=rng.uniform(0.0, 12.0), epsilon=rng.uniform(0.0, 10.0),
            dm=rng.uniform(0.0, 2.0), ksea=rng.uniform(0.0, 2.0),
            field=rng.uniform(0.0, 2.0), temperature=rng.uniform(0.5, 4.0),
        )
        t = rng.uniform(0.0, np.pi / p.omega)
        xi = complex(ergotropy_closed_form(p, t))
        worst_im = max(worst_im, abs(xi.imag))
        zeta = gibbs_numeric(p)
        h = build_hamiltonian(p)
        u = charging_unitary(p, t)
        xi_num = float(np.trace((u @ zeta @ u.conj().T - zeta) @ h).real)
        worst_xi = max(worst_xi, abs(xi.real - xi_num))

        cf = capacity_closed_form(p)
        rep = capacity(p)
        worst_identity = max(
            worst_identity, abs(cf - (h[0, 0].real - float(np.trace(h @ zeta).real)))
        )
        if abs(cf - rep.capacity_basis) <= 1e-6:
            n_match_basis += 1
        if abs(cf - rep.capacity_unitary) <= 1e-6:
            n_match_unitary += 1
    assert worst_im <= 1e-10
    assert worst_xi <= 1e-8
    # the thermal capacity expression matches NEITHER definition, at every
    # point of the grid: a stable non-match, not noise
    assert n_match_basis == 0
    assert n_match_unitary == 0

    # sign-convention record: the collapsed complex variant of the same
    # expression needs epsilon negated, and is exercised where its real
    # exponential collapse is valid (no dipolar term)
    worst_lit = worst_lit_im = 0.0
    for _ in range(60):
        p = ModelParams(
            delta=rng.uniform(0.0, 12.0), epsilon=rng.uniform(0.0, 10.0),
            ksea=rng.uniform(0.0, 2.0), field=rng.uniform(0.0, 2.0),
            temperature=rng.uniform(0.5, 4.0),
        )
        t = rng.uniform(0.0, np.pi / p.omega)
        lit = ergotropy_closed_form_literal(p, t, flip_epsilon=True)
        worst_lit_im = max(worst_lit_im, abs(lit.imag))
        worst_lit = max(worst_lit, abs(lit.real - ergotropy_closed_form(p, t)))
    assert worst_lit_im <= 1e-10
    assert worst_lit <= 1e-8

    _record(
        "criterion 7: closed-form ergotropy dev "
        f"{worst_xi:.3e} (|Im| {worst_im:.3e}) on 200 sweep-range draws; "
        f"thermal capacity closed form matched capacity_basis {n_match_basis}/200 "
        f"and capacity_unitary {n_match_unitary}/200 (stable non-match; it equals "
        f"the |00> gap minus thermal energy to {worst_identity:.3e}); "
        "CONVENTION RECORDED: collapsed variant requires the epsilon sign flip, "
        f"verified to {worst_lit:.3e} (|Im| {worst_lit_im:.3e}) on 60 draws with "
        "zero dipolar coupling"
    )


def test_criterion_08_qualitative_trends():
    t0 = time.perf_counter()
    rho0 = ket00()
    grid = TimeGrid(0.0, 10.0, 1e-3)

    # (a) stronger field squeezes the coherence peak
    peaks = []
    for b in (0.1, 1.0, 10.0):
        p = ModelParams(delta=1.0, epsilon=0.5, field=b, gamma=0.2)
        _, states = evolve_lindblad(p, rho0, grid, n_samples=201)
        peaks.append(max(l1_coherence(r) for r in states))
    assert peaks[0] >= peaks[1] >= peaks[2]

    # (b) all measures die off in the hot limit
    hot = gibbs_numeric(ModelParams(epsilon=0.1, temperature=1e3))
    hot_worst = max(concurrence(hot), l1_coherence(hot), quantum_discord(hot).discord)
    assert hot_worst <= 1e-4

    # (c) hotter start, lower ergotropy peak
    xi_peaks = [
        orbit_peaks(ModelParams(delta=1.0, epsilon=0.1, temperature=tv)).ergotropy_max
        for tv in (0.5, 1.0, 1.5, 2.0, 4.0)
    ]
    assert all(a >= b for a, b in zip(xi_peaks, xi_peaks[1:]))

    # (d) dephasing measures blind to the dipolar coupling and to the
    # axial anisotropy at zero field
    def measures(p):
        _, states = evolve_lindblad(p, rho0, grid, n_samples=21)
        return np.array(
            [[concurrence(r), l1_coherence(r), quantum_discord(r).discord] for r in states]
        )

    base = measures(ModelParams(delta=1.0, epsilon=0.5, dm=0.1, gamma=0.2))
    worst_dm = max(
        float(np.max(np.abs(measures(ModelParams(delta=1.0, epsilon=0.5, dm=v, gamma=0.2)) - base)))
        for v in (1.0, 10.0)
    )
    base = measures(ModelParams(delta=0.1, epsilon=0.5, gamma=0.2))
    worst_delta = max(
        float(np.max(np.abs(measures(ModelParams(delta=v, epsilon=0.5, gamma=0.2)) - base)))
        for v in (1.0, 10.0)
    )
    assert worst_dm < 1e-9
    assert worst_delta < 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _record(
        f"criterion 8: coherence peaks {peaks[0]:.3f} >= {peaks[1]:.3f} >= {peaks[2]:.3f} "
        f"across field; hot-limit measures <= {hot_worst:.3e}; ergotropy peaks "
        "monotone over temperature; trajectory invariance dev "
        f"{max(worst_dm, worst_delta):.1e} across dipolar/axial couplings"
    )
    _wall_time(8, elapsed)


def test_criterion_09_config_determinism(tmp_path):
    configs = sorted((REPO_ROOT / "configs").glob("*.cfg"))
    assert configs
    t0 = time.perf_counter()
    compared = 0
    for conf in configs:
        cfg_text = conf.read_text()
        emitted = []
        for run in ("a", "b"):
            cfg = parse_config(cfg_text)
            cfg.out_path = str(tmp_path / run / conf.stem / Path(cfg.resolved_out()).name)
            emitted.append(run_scenario(cfg, jobs=1))
        assert len(emitted[0]) == len(emitted[1])
        for pa, pb in zip(*emitted):
            assert Path(pa).read_bytes() == Path(pb).read_bytes(), (
                f"{conf.name}: {Path(pa).name} differs between runs"
            )
            compared += 1
    _record(f"criterion 9: {compared} CSVs from {len(configs)} configs byte-identical "
            "across two runs")
    _wall_time(9, time.perf_counter() - t0)


def test_criterion_10_charge_rows_cover_one_period(tmp_path):
    # every bundled charge CSV holds exactly its 501 samples, uniform over
    # Omega t in [0, pi], and its columns at those times match routes that
    # share no code with the production orbit
    t0 = time.perf_counter()
    n_csv, worst_xi, worst_state, worst_l1 = 0, 0.0, 0.0, 0.0
    for conf in sorted((REPO_ROOT / "configs").glob("charge_*.cfg")):
        cfg = parse_config(conf.read_text())
        assert cfg.resolved_samples() == 501
        cfg.out_path = str(tmp_path / conf.stem / "c.csv")
        values = cfg.sweep.values() if cfg.sweep else [None]
        for path, v in zip(run_scenario(cfg, jobs=1), values, strict=True):
            p = cfg.params if v is None else cfg.params.replace(**{cfg.sweep.name: float(v)})
            lines = Path(path).read_text(encoding="ascii").splitlines()
            header = lines[0].split(",")
            body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
            s = body[:, 0]
            assert body.shape[0] == 501, f"{conf.name}: {body.shape[0]} rows"
            assert s[0] == 0.0 and abs(s[-1] - np.pi) <= 1e-12
            assert np.max(np.abs(np.diff(s) - np.pi / 500)) <= 1e-12
            t = s / p.omega
            xi = ergotropy_closed_form(p, t)
            worst_xi = max(worst_xi, float(np.max(np.abs(body[:, header.index("ergotropy")] - xi))))
            zeta = gibbs_numeric(p)
            exact = np.array([u @ zeta @ u.conj().T
                              for u in (charging_unitary_exact(p, tk) for tk in t)])
            _, states = charge_trajectory(p, zeta, *cfg.resolved_span(p), n_samples=501)
            worst_state = max(worst_state, float(np.max(np.abs(states - exact))))
            l1 = np.abs(exact).sum(axis=(1, 2)) - np.abs(np.einsum("nii->ni", exact)).sum(axis=1)
            worst_l1 = max(worst_l1, float(np.max(np.abs(body[:, header.index("coherence")] - l1))))
            n_csv += 1
    assert n_csv == 25
    assert worst_xi <= 1e-12 and worst_state <= 1e-12 and worst_l1 <= 1e-12
    _record(f"criterion 10: {n_csv} charge CSVs of 501 uniform rows over Omega*t in [0, pi]; "
            f"ergotropy vs closed form {worst_xi:.3e}, states vs exp(-i H_ch t) "
            f"{worst_state:.3e}, coherence {worst_l1:.3e}")
    _wall_time(10, time.perf_counter() - t0)
