"""H-infinity norm computation, Riccati solves, and filter synthesis."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import sdabe.hinf as hinf
from conftest import random_stable_ss
from sdabe.audio import frame_signal
from sdabe.corpus import synth_utterance
from sdabe.hinf import HinfError, _sigma_max, hinf_norm, hinf_synthesize, solve_dare
from sdabe.plant import (GeneralizedPlant, _estimation_lower_bound, build_generalized_plant,
                         closed_loop, open_loop_error)
from sdabe.statespace import StateSpaceModel, tf_to_ss
from sdabe.sysid import SignalModel, prony_fit


def test_norm_of_first_order_lag():
    # H(z) = 1/(z - a) peaks at z = 1 with value 1/(1 - a)
    a = 0.8
    g = StateSpaceModel(np.array([[a]]), np.eye(1), np.eye(1), np.zeros((1, 1)))
    assert abs(hinf_norm(g) - 1.0 / (1.0 - a)) < 1e-6


def test_norm_of_static_gain():
    g = StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), np.array([[3.0, 4.0]]))
    assert abs(hinf_norm(g) - 5.0) < 1e-10


def test_norm_dominates_frequency_grid(rng):
    for _ in range(15):
        g = random_stable_ss(rng, rng.integers(1, 7), inputs=2, outputs=2)
        nrm = hinf_norm(g)
        w = np.linspace(0, np.pi, 400)
        grid = max(np.linalg.norm(g.freq_response(np.array([wi]))[0], 2) for wi in w)
        assert nrm >= grid - 1e-6
        assert nrm <= grid * 1.05 + 1e-9


def test_norm_rejects_unstable():
    g = StateSpaceModel(np.array([[1.2]]), np.eye(1), np.eye(1), np.zeros((1, 1)))
    with pytest.raises(HinfError):
        hinf_norm(g)


def test_dare_matches_scipy(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_stable_ss(rng, n).A
        B = rng.standard_normal((n, 2))
        Q = rng.standard_normal((n, n))
        Q = Q @ Q.T + np.eye(n)
        R = np.eye(2) * rng.uniform(0.5, 2.0)
        S = np.zeros((n, 2))
        P = solve_dare(A, B, Q, R, S)
        P_ref = scipy.linalg.solve_discrete_are(A, B, Q, R, s=S)
        assert np.allclose(P, P_ref, rtol=1e-6, atol=1e-8)


def _random_estimation_plant(rng, n):
    """Estimation-form plant: u enters the error only through subtraction."""
    sys = random_stable_ss(rng, n, inputs=2, outputs=2)
    A, B = sys.A, sys.B
    C1 = sys.C[:1]
    C2 = sys.C[1:]
    D11 = rng.standard_normal((1, 2)) * 0.1
    D21 = rng.standard_normal((1, 2)) * 0.1
    return GeneralizedPlant(A=A, B=B, C1=C1, D11=D11, C2=C2, D21=D21)


def test_synthesis_never_beats_physics(rng):
    for _ in range(8):
        plant = _random_estimation_plant(rng, int(rng.integers(2, 7)))
        sol = hinf_synthesize(plant)
        open_norm = hinf_norm(open_loop_error(plant))
        assert sol.gamma <= open_norm + 1e-9
        cl = closed_loop(plant, sol.controller)
        assert hinf_norm(cl) <= sol.gamma * 1.001 + 1e-9


def _measurable_target_plant(rng, inputs=1):
    # y == z: the filter can read the target directly
    g = random_stable_ss(rng, 3, inputs=inputs)
    return GeneralizedPlant(A=g.A, B=g.B, C1=g.C, D11=g.D, C2=g.C, D21=g.D)


def _useless_measurement_plant(rng):
    # y is pure noise, uncorrelated with z
    g = random_stable_ss(rng, 2)
    return GeneralizedPlant(
        A=g.A,
        B=np.hstack([g.B, np.zeros((2, 1))]),
        C1=g.C,
        D11=np.hstack([g.D, np.zeros((1, 1))]),
        C2=np.zeros((1, 2)),
        D21=np.array([[0.0, 1.0]]),
    )


def test_synthesis_reaches_zero_for_measurable_target(rng):
    # the error can be made essentially zero
    plant = _measurable_target_plant(rng)
    sol = hinf_synthesize(plant)
    open_norm = hinf_norm(open_loop_error(plant))
    assert sol.gamma < 0.05 * open_norm


def test_zero_controller_for_useless_measurement(rng):
    # best filter is K = 0
    plant = _useless_measurement_plant(rng)
    sol = hinf_synthesize(plant)
    open_norm = hinf_norm(open_loop_error(plant))
    assert sol.gamma >= open_norm * (1.0 - 2e-3)


@pytest.fixture(scope="module")
def utterance_plants():
    """Plants of the frames of synth_utterance seed 3 with a usable signal model."""
    from sdabe.filters import design_fixed_filters

    lpf, _ = design_fixed_filters()
    models = [prony_fit(fr) for fr in frame_signal(synth_utterance(np.random.default_rng(3)))]
    return [build_generalized_plant(m, lpf) for m in models if not m.degenerate]


def _null_space_bound(plant):
    """The bound from the lifted plant alone: at each bin, an exogenous
    direction v in the null space of the measurement response Gy never
    reaches the filter, (Gz - K Gy) v = Gz v, so sigma_max(Gz P) bounds |T|
    for every K, with P the projector on that null space."""
    nz, ny = plant.n_z, plant.n_y
    g = StateSpaceModel(
        plant.A, plant.B, np.vstack([plant.C1, plant.C2]), np.vstack([plant.D11, plant.D21])
    )
    resp = g.freq_response(np.pi * np.arange(hinf._LB_GRID + 1) / hinf._LB_GRID)
    _, _, Vh = np.linalg.svd(resp[:, nz:], full_matrices=True)
    null = Vh[:, ny:].conj().transpose(0, 2, 1)
    return float(np.max(_sigma_max(resp[:, :nz] @ null)))


def test_closed_form_bound_matches_the_null_space_bound(utterance_plants):
    assert len(utterance_plants) > 4
    for plant in utterance_plants:
        assert plant.lower_bound == pytest.approx(_null_space_bound(plant), rel=1e-12)


def test_estimation_lower_bound_is_sound(utterance_plants):
    for plant in utterance_plants[:4]:
        sol = hinf_synthesize(plant)
        assert 0.0 < plant.lower_bound <= hinf_norm(open_loop_error(plant)) * (1.0 + 1e-12)
        assert plant.lower_bound <= hinf_norm(closed_loop(plant, sol.controller)) * (1.0 + 1e-12)


def test_bound_where_the_signal_model_vanishes_at_both_aliases():
    # F = (1 - z^-2)/(1 - 0.5 z^-1) is zero at DC and at pi, the two aliases
    # of slow-rate bin 0, where the closed form reads 0/0
    from sdabe.filters import design_fixed_filters

    lpf, _ = design_fixed_filters()
    plant = build_generalized_plant(SignalModel([1.0, 0.0, -1.0], [1.0, -0.5], 0.0), lpf)
    assert np.isfinite(plant.lower_bound) and plant.lower_bound >= 0.0
    sol = hinf_synthesize(plant)
    assert np.isfinite(sol.gamma)
    # F = 0 makes every bin exactly 0/0, and every bin contributes 0
    zero = SignalModel([0.0, 0.0], [1.0, -0.5], 0.0)
    assert _estimation_lower_bound(zero, lpf.taps, lpf.half_delay_q) == 0.0


def test_skipping_levels_below_the_bound_changes_nothing(utterance_plants, monkeypatch):
    calls = {"dare": 0}

    def counted_dare(*args):
        calls["dare"] += 1
        return solve_dare(*args)

    monkeypatch.setattr(hinf, "solve_dare", counted_dare)
    solutions, dares = {}, {}
    plants = {
        "skip": utterance_plants,
        "solve_all": [dataclasses.replace(plant, lower_bound=0.0) for plant in utterance_plants],
    }
    for name, group in plants.items():
        calls["dare"] = 0
        solutions[name] = [hinf_synthesize(plant) for plant in group]
        dares[name] = calls["dare"]
    for got, ref in zip(solutions["skip"], solutions["solve_all"]):
        assert got.gamma == ref.gamma and got.iterations == ref.iterations
        for attr in "ABCD":
            assert np.array_equal(getattr(got.controller, attr), getattr(ref.controller, attr))
    assert dares["skip"] < dares["solve_all"]


def _sigma_max_cases(rng, shape):
    cases = [rng.standard_normal((64,) + shape) + 1j * rng.standard_normal((64,) + shape),
             np.zeros((2,) + shape, dtype=complex)]
    u = rng.standard_normal((8, shape[0], 1)) + 1j * rng.standard_normal((8, shape[0], 1))
    v = rng.standard_normal((8, 1, shape[1])) + 1j * rng.standard_normal((8, 1, shape[1]))
    cases.append(u @ v)  # rank one
    if shape == (2, 2):
        # equal singular values: scaled unitary matrices, then a scaled identity
        q = np.linalg.qr(rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2)))[0]
        cases.append(q * rng.uniform(0.1, 10.0, (8, 1, 1)))
        cases.append(np.broadcast_to(3.0 * np.eye(2), (2, 2, 2)).astype(complex))
    return np.concatenate(cases)


@pytest.mark.parametrize("shape", [(2, 2), (1, 2), (2, 1)])
def test_sigma_max_closed_form_matches_svd_norm(rng, shape):
    H = _sigma_max_cases(rng, shape)
    ref = np.linalg.norm(H, 2, axis=(1, 2))
    got = _sigma_max(H)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def test_sigma_max_falls_back_to_svd_norm_beyond_2x2(rng):
    H = rng.standard_normal((16, 3, 4)) + 1j * rng.standard_normal((16, 3, 4))
    assert np.array_equal(_sigma_max(H), np.linalg.norm(H, 2, axis=(1, 2)))


def test_failed_pencil_reordering_rejects_the_level(rng, monkeypatch):
    # ordqz raises ValueError when it cannot reorder an ill-conditioned
    # pencil; synthesis treats the level as infeasible instead of failing.
    # The doubling iteration gives up too, so every level reaches QZ.
    def refuse(*args, **kwargs):
        raise ValueError("Reordering of (A, B) failed")

    plant = _random_estimation_plant(rng, 3)
    monkeypatch.setattr("sdabe.hinf._solve_dare_sda", lambda *args: None)
    monkeypatch.setattr("sdabe.hinf.sla.ordqz", refuse)
    sol = hinf_synthesize(plant)
    assert sol.controller.n == 0 and not np.any(sol.controller.D)
    assert sol.gamma == pytest.approx(hinf_norm(open_loop_error(plant)), rel=1e-6)


def _filter_dares(plants, monkeypatch):
    """The Riccati data `_feasible` passes to `solve_dare` for each plant at
    1.1 and 1.5 times its synthesized level."""
    dares = []

    def record(*args):
        dares.append(args)
        return hinf._solve_dare_qz(*args)

    gammas = [hinf_synthesize(plant).gamma for plant in plants]
    monkeypatch.setattr(hinf, "solve_dare", record)
    for plant, gamma in zip(plants, gammas):
        for factor in (1.1, 1.5):
            hinf._feasible(plant, factor * gamma)
    return dares


def test_doubling_agrees_with_qz_on_filter_dares(utterance_plants, monkeypatch):
    dares = _filter_dares(utterance_plants, monkeypatch)
    assert len(dares) == 2 * len(utterance_plants)
    for args in dares:
        X = hinf._solve_dare_sda(*args)
        assert X is not None and hinf._is_stabilizing(*args, X)
        X_qz = hinf._solve_dare_qz(*args)
        assert X_qz is not None
        assert np.max(np.abs(X - X_qz)) <= 1e-8 * np.max(np.abs(X_qz))
        assert np.array_equal(solve_dare(*args), X)


def test_dare_without_stabilizing_solution_falls_back_to_qz():
    # the mode at z = 1 is unreachable from the input, so no X stabilizes;
    # Q does not weight it, so doubling converges to a solution whose closed
    # loop keeps that mode, and only the stability gate refuses it
    A = np.diag([1.0, 0.5])
    B = np.array([[0.0], [1.0]])
    Q, R, S = np.diag([0.0, 1.0]), np.eye(1), np.zeros((2, 1))
    X = hinf._solve_dare_sda(A, B, Q, R, S)
    assert X is not None and not hinf._is_stabilizing(A, B, Q, R, S, X)
    # QZ finds only one of the two eigenvalues inside the unit circle
    assert hinf._solve_dare_qz(A, B, Q, R, S) is None
    assert solve_dare(A, B, Q, R, S) is None


def test_gate_refuses_a_solution_off_by_more_than_the_residual_tolerance(rng):
    n = 4
    A = random_stable_ss(rng, n).A
    B = rng.standard_normal((n, 2))
    Q = np.eye(n)
    R, S = np.eye(2), np.zeros((n, 2))
    X = scipy.linalg.solve_discrete_are(A, B, Q, R)
    assert hinf._is_stabilizing(A, B, Q, R, S, X)
    # a relative error of 1e-8 leaves the closed loop stable but not the residual
    assert not hinf._is_stabilizing(A, B, Q, R, S, X * (1.0 + 1e-8))

def _utterance_frames(monkeypatch):
    """Per frame of synth_utterance seed 3: skip reason, level and fir21."""
    from sdabe.features import DegenerateFrame, extract_feature_pair
    from sdabe.filters import design_fixed_filters

    lpf, hpf = design_fixed_filters()
    gammas = []

    def synthesize(plant):
        sol = hinf_synthesize(plant)
        gammas.append(sol.gamma)
        return sol

    monkeypatch.setattr("sdabe.features.hinf_synthesize", synthesize)
    rows = []
    for fr in frame_signal(synth_utterance(np.random.default_rng(3))):
        gammas.clear()
        try:
            pair, _ = extract_feature_pair(fr, lpf, hpf)
            rows.append(("ok", gammas[0], pair.hb))
        except DegenerateFrame as exc:
            rows.append((exc.reason, gammas[0] if gammas else None, None))
    return rows


def test_doubling_route_keeps_every_frame(monkeypatch):
    calls = {"dare": 0, "qz": 0}
    qz = hinf._solve_dare_qz

    def counted_qz(*args):
        calls["qz"] += 1
        return qz(*args)

    dare = hinf.solve_dare

    def counted_dare(*args):
        calls["dare"] += 1
        return dare(*args)

    monkeypatch.setattr(hinf, "_solve_dare_qz", counted_qz)
    monkeypatch.setattr(hinf, "solve_dare", counted_dare)
    shipped = _utterance_frames(monkeypatch)
    assert calls["qz"] < calls["dare"]  # the doubling route served some levels
    monkeypatch.setattr(hinf, "_solve_dare_sda", lambda *args: None)
    qz_only = _utterance_frames(monkeypatch)
    assert len(shipped) == len(qz_only) == 15
    for (reason, gamma, fir), (reason_qz, gamma_qz, fir_qz) in zip(shipped, qz_only):
        assert reason == reason_qz
        if gamma_qz is not None:
            assert abs(gamma - gamma_qz) <= 1e-9 * gamma_qz
        if fir_qz is not None:
            assert np.max(np.abs(fir - fir_qz)) <= 1e-6 * np.max(np.abs(fir_qz))
