"""Generalized plant assembly checked against brute-force multirate simulation."""

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import random_stable_ss
from sdabe.audio import Frame, frame_signal, read_wav
from sdabe.corpus import generate_corpus
from sdabe.filters import design_fixed_filters
from sdabe.hinf import hinf_synthesize
from sdabe.lpc import levinson_lpc
from sdabe.metrics import read_manifest
from sdabe.plant import PlantError, build_generalized_plant, closed_loop, open_loop_error
from sdabe.statespace import series, tf_to_ss
from sdabe.sysid import SignalModel, prony_fit


def _models(rng):
    """A random stable frame model and an LPC fit of a matching frame."""
    x = rng.standard_normal(400)
    F = prony_fit(
        Frame(samples=x, rate=16000, index=0, hop=200), max_poles=6, max_zeros=4
    )
    nb = Frame(samples=x[::2], rate=8000, index=0, hop=100)
    A_lpc = levinson_lpc(nb)
    return F, A_lpc


def _brute_force_error(F, lpf, A_lpc, ktilde, w):
    """Run the physical multirate chain on a q-sample delayed input.

    Returns the lifted error stream seen by the causalized plant.  The
    chain applies ktilde to the LPC residue of the decimated low-pass output.
    """
    q = lpf.half_delay_q
    wd = np.concatenate([np.zeros(q), w])
    s = lfilter(F.num, F.den, wd)
    v = lpf.apply(s)
    d = v[::2]
    r = lfilter(A_lpc.inverse_poly(), [1.0], d)
    u12 = ktilde.simulate(r.reshape(-1, 1))
    y_fast = np.empty(len(wd))
    y_fast[0::2] = u12[:, 0]
    y_fast[1::2] = u12[:, 1]
    e = s - y_fast
    return e.reshape(-1, 2)[: len(w) // 2]


def test_closed_loop_matches_brute_force_simulation(rng):
    lpf, _ = design_fixed_filters()
    for _ in range(4):
        F, A_lpc = _models(rng)
        plant = build_generalized_plant(F, lpf)
        ktilde = random_stable_ss(rng, 3, inputs=1, outputs=2, radius=0.7)
        w = rng.standard_normal(200)
        e_ref = _brute_force_error(F, lpf, A_lpc, ktilde, w)
        # the plant measures the narrowband signal: the LPC inverse filter
        # moves to the controller side
        ctrl = series(tf_to_ss(A_lpc.inverse_poly(), [1.0]), ktilde)
        e_plant = closed_loop(plant, ctrl).simulate(w.reshape(-1, 2))
        assert np.max(np.abs(e_plant - e_ref)) < 1e-8


def test_open_loop_matches_delayed_signal_model(rng):
    lpf, _ = design_fixed_filters()
    F, _ = _models(rng)
    plant = build_generalized_plant(F, lpf)
    q = lpf.half_delay_q
    w = rng.standard_normal(200)
    s = lfilter(F.num, F.den, np.concatenate([np.zeros(q), w]))
    z = open_loop_error(plant).simulate(w.reshape(-1, 2))
    assert np.max(np.abs(z - s.reshape(-1, 2)[: len(w) // 2])) < 1e-8


def test_plant_dimensions(rng):
    lpf, _ = design_fixed_filters()
    F, _ = _models(rng)
    plant = build_generalized_plant(F, lpf)
    assert plant.B.shape[1] == 2
    assert plant.n_z == 2
    assert plant.n_y == 1


def test_plant_order_realizes_signal_model_once(rng):
    # F once, then q/2 even and q odd slow-rate delay lags; no LPC states
    lpf, _ = design_fixed_filters()
    q = lpf.half_delay_q
    for _ in range(3):
        F, _ = _models(rng)
        plant = build_generalized_plant(F, lpf)
        f_n = tf_to_ss(F.num, F.den).n
        assert plant.n == f_n + 3 * q // 2


def test_rejects_causal_lpf(rng):
    _, hpf = design_fixed_filters()
    F, _ = _models(rng)
    with pytest.raises(PlantError):
        build_generalized_plant(F, hpf)


def test_rejects_unstable_signal_model(rng):
    lpf, _ = design_fixed_filters()
    F_bad = SignalModel(
        num=np.array([1.0]), den=np.array([1.0, -1.5]), fit_error=0.0
    )
    with pytest.raises(PlantError):
        build_generalized_plant(F_bad, lpf)


# (file, frame, gamma, open-loop gamma) of frames of the acceptance corpus
# (seed 11, 0.15 s files), synthesized through the earlier 75-state plant
# (F realized twice, separate q/2 reference delay)
RECORDED_GAMMA = [
    (0, 0, 0.019917762387477205, 1.288748553014551),
    (0, 5, 0.14861280752804507, 5.17682283287855),
    (1, 0, 0.2552925374989824, 0.2743122333672172),
    (3, 3, 0.3929256305570257, 1.3479161435374278),
    (6, 4, 0.07976211790721871, 0.8998176086424304),
    (9, 6, 1.0446398401226915, 2.640888790892542),
]


def test_gamma_no_worse_than_recorded(tmp_path):
    rel_tol = 1e-3
    lpf, _ = design_fixed_filters()
    manifest = generate_corpus(tmp_path, 10, seed=11, duration=0.15)
    refs = [entry[0] for entry in read_manifest(manifest)]
    for file_no, index, gamma_rec, gamma_open in RECORDED_GAMMA:
        fr = frame_signal(read_wav(refs[file_no]))[index]
        plant = build_generalized_plant(prony_fit(fr), lpf)
        sol = hinf_synthesize(plant)
        assert sol.gamma <= gamma_rec + rel_tol * gamma_open
