"""H-infinity norm computation, Riccati solves, and filter synthesis."""

import numpy as np
import pytest
import scipy.linalg

from conftest import random_stable_ss
from sdabe.hinf import HinfError, hinf_norm, hinf_synthesize, solve_dare
from sdabe.plant import GeneralizedPlant, closed_loop, open_loop_error
from sdabe.statespace import StateSpaceModel, tf_to_ss


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
        P, _ = solve_dare(A, B, Q, R, S)
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


def test_synthesis_reaches_zero_for_measurable_target(rng):
    # y == z: the filter can read the target directly, so the error
    # can be made essentially zero
    g = random_stable_ss(rng, 3)
    plant = GeneralizedPlant(
        A=g.A, B=g.B, C1=g.C, D11=g.D, C2=g.C, D21=g.D
    )
    sol = hinf_synthesize(plant)
    open_norm = hinf_norm(open_loop_error(plant))
    assert sol.gamma < 0.05 * open_norm


def test_zero_controller_for_useless_measurement(rng):
    # y is pure noise, uncorrelated with z: best filter is K = 0
    g = random_stable_ss(rng, 2)
    plant = GeneralizedPlant(
        A=g.A,
        B=np.hstack([g.B, np.zeros((2, 1))]),
        C1=g.C,
        D11=np.hstack([g.D, np.zeros((1, 1))]),
        C2=np.zeros((1, 2)),
        D21=np.array([[0.0, 1.0]]),
    )
    sol = hinf_synthesize(plant)
    open_norm = hinf_norm(open_loop_error(plant))
    assert sol.gamma >= open_norm * (1.0 - 2e-3)


def test_failed_pencil_reordering_rejects_the_level(rng, monkeypatch):
    # ordqz raises ValueError when it cannot reorder an ill-conditioned
    # pencil; synthesis treats the level as infeasible instead of failing
    def refuse(*args, **kwargs):
        raise ValueError("Reordering of (A, B) failed")

    plant = _random_estimation_plant(rng, 3)
    monkeypatch.setattr("sdabe.hinf.sla.ordqz", refuse)
    sol = hinf_synthesize(plant)
    assert sol.controller.n == 0 and not np.any(sol.controller.D)
    assert sol.gamma == pytest.approx(hinf_norm(open_loop_error(plant)), rel=1e-6)
