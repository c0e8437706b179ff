"""End-to-end acceptance checks for the bandwidth-extension system.

Each test prints one PASS/FAIL line with its measured quantities.  The
corpus-level checks share a module-scoped synthetic corpus and one
per-file oracle synthesis pass.
"""

import os
import time

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import random_stable_ss
from sdabe.audio import read_wav, upsample2_seq
from sdabe.corpus import generate_corpus
from sdabe.filters import design_fixed_filters

from sdabe.hbfilter import assemble_synthesis_filter
from sdabe.hinf import hinf_norm, hinf_synthesize
from sdabe.lpc import levinson_lpc
from sdabe.metrics import POWER_FLOOR, SEGSNR_MAX, measure, read_manifest
from sdabe.mlp import Mlp, MlpConfig
from sdabe.pipeline import ExtensionConfig, OracleSource, extend_file
from sdabe.plant import GeneralizedPlant, build_generalized_plant, closed_loop, open_loop_error
from sdabe.regressor import train_gmm, train_mlp
from sdabe.statespace import lift2, series, tf_to_ss
from sdabe.sysid import prony_fit
from sdabe.audio import AudioBuffer, Frame

CORPUS_FILES = 50
CORPUS_SEED = 11
CORPUS_DURATION = 0.15


def _report(label, ok, detail):
    print(f"\n{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared corpus and oracle synthesis


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    t0 = time.time()
    manifest = generate_corpus(
        root, CORPUS_FILES, seed=CORPUS_SEED, duration=CORPUS_DURATION
    )
    entries = read_manifest(manifest)
    lpf, hpf = design_fixed_filters()
    return {
        "entries": entries,
        "manifest": manifest,
        "lpf": lpf,
        "hpf": hpf,
        "gen_seconds": time.time() - t0,
    }


@pytest.fixture(scope="module")
def oracles(corpus):
    t0 = time.time()
    sources = {}
    for ref, _, _ in corpus["entries"]:
        sources[ref] = OracleSource(read_wav(ref), corpus["lpf"], corpus["hpf"])
    return {"sources": sources, "synth_seconds": time.time() - t0}


def _mean_lsd(corpus, oracles, cfg, predictor=None):
    vals = []
    for ref, nbp, _ in corpus["entries"]:
        wb, nb = read_wav(ref), read_wav(nbp)
        pred = oracles["sources"][ref] if cfg.mode == "oracle" else predictor
        out = extend_file(nb, pred, cfg, corpus["lpf"], corpus["hpf"])
        vals.append(measure(wb, out).lsd)
    return float(np.mean(vals))


@pytest.fixture(scope="module")
def table1(corpus, oracles):
    configs = {
        "dft_gain": ExtensionConfig(mode="oracle", addition="dft", gain_adjust=True),
        "time_gain": ExtensionConfig(mode="oracle", addition="time", gain_adjust=True),
        "time_nogain": ExtensionConfig(mode="oracle", addition="time", gain_adjust=False),
        "nb_only": ExtensionConfig(mode="oracle", nb_only=True),
    }
    t0 = time.time()
    means = {name: _mean_lsd(corpus, oracles, cfg) for name, cfg in configs.items()}
    return {"means": means, "eval_seconds": time.time() - t0}


# ---------------------------------------------------------------------------
# criterion 1: synthesis soundness on random plants


def _random_estimation_plant(rng):
    n = int(rng.integers(2, 13))
    sys = random_stable_ss(rng, n, inputs=2, outputs=2)
    return GeneralizedPlant(
        A=sys.A,
        B=sys.B,
        C1=sys.C[:1],
        D11=0.2 * rng.standard_normal((1, 2)),
        C2=sys.C[1:],
        D21=0.2 * rng.standard_normal((1, 2)),
    )


def test_criterion_1_hinf_synthesis_soundness():
    rng = np.random.default_rng(100)
    t0 = time.time()
    worst_excess = 0.0
    for _ in range(50):
        plant = _random_estimation_plant(rng)
        sol = hinf_synthesize(plant)
        open_norm = hinf_norm(open_loop_error(plant))
        achieved = hinf_norm(closed_loop(plant, sol.controller))
        # the open-loop norm itself is bisection-accurate to ~1e-6 relative
        assert sol.gamma <= open_norm * (1.0 + 1e-5)
        worst_excess = max(worst_excess, achieved / (sol.gamma * 1.001))
        assert achieved <= sol.gamma * 1.001
    elapsed = time.time() - t0
    _report(
        "criterion 1 (synthesis soundness, 50 plants)",
        elapsed < 60.0,
        f"worst achieved/(gamma*1.001) = {worst_excess:.6f}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# criterion 2: lifting preserves the H-infinity norm


def test_criterion_2_lifting_isometry():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        g = random_stable_ss(rng, int(rng.integers(1, 7)))
        n1 = hinf_norm(g, tol=1e-9)
        n2 = hinf_norm(lift2(g), tol=1e-9)
        worst = max(worst, abs(n1 - n2) / max(n1, 1e-12))
    _report(
        "criterion 2 (lifting isometry, 100 systems)",
        worst < 1e-6,
        f"worst relative gap = {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 3: plant equals brute-force multirate simulation


def _frame_models(rng):
    x = rng.standard_normal(400)
    F = prony_fit(
        Frame(samples=x, rate=16000, index=0, hop=200), max_poles=8, max_zeros=4
    )
    nb = Frame(samples=x[::2], rate=8000, index=0, hop=100)
    return F, levinson_lpc(nb)


def _brute_force_lifted_error(F, lpf, A_lpc, ktilde, w):
    q = lpf.half_delay_q
    wd = np.concatenate([np.zeros(q), w])
    s = lfilter(F.num, F.den, wd)
    v = lpf.apply(s)
    r = lfilter(A_lpc.inverse_poly(), [1.0], v[::2])
    u12 = ktilde.simulate(r.reshape(-1, 1))
    y_fast = np.empty(len(wd))
    y_fast[0::2] = u12[:, 0]
    y_fast[1::2] = u12[:, 1]
    return (s - y_fast).reshape(-1, 2)[: len(w) // 2]


def test_criterion_3_plant_matches_simulation():
    rng = np.random.default_rng(300)
    lpf, _ = design_fixed_filters()
    worst = 0.0
    for _ in range(20):
        F, A_lpc = _frame_models(rng)
        plant = build_generalized_plant(F, lpf)
        ktilde = random_stable_ss(
            rng, int(rng.integers(1, 5)), inputs=1, outputs=2, radius=0.8
        )
        w = rng.standard_normal(240)
        e_ref = _brute_force_lifted_error(F, lpf, A_lpc, ktilde, w)
        # the plant measures the narrowband signal: the LPC inverse filter
        # moves to the controller side
        ctrl = series(tf_to_ss(A_lpc.inverse_poly(), [1.0]), ktilde)
        e_plant = closed_loop(plant, ctrl).simulate(w.reshape(-1, 2))
        worst = max(worst, float(np.max(np.abs(e_plant - e_ref))))
    _report(
        "criterion 3 (plant vs brute-force sim, 20 cases)",
        worst < 1e-8,
        f"worst abs error = {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: de-lifting interleaves the two slow-rate outputs


def test_criterion_4_delifting_interleaving():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(20):
        ktilde = random_stable_ss(rng, int(rng.integers(1, 7)), inputs=1, outputs=2)
        r = rng.standard_normal(64)
        # the zero-stuffed slow signal through k's response, 128 samples
        y_fast = np.convolve(upsample2_seq(r), assemble_synthesis_filter(ktilde))[:128]
        u12 = ktilde.simulate(r.reshape(-1, 1))
        ref = np.empty(128)
        ref[0::2] = u12[:, 0]
        ref[1::2] = u12[:, 1]
        worst = max(worst, float(np.max(np.abs(y_fast - ref))))
    _report(
        "criterion 4 (de-lifting interleaving, 20 controllers)",
        worst < 1e-12,
        f"worst abs error = {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: oracle-mode configuration ordering on the synthetic corpus


def test_criterion_5_table1_ordering(corpus, oracles, table1):
    m = table1["means"]
    elapsed = corpus["gen_seconds"] + oracles["synth_seconds"] + table1["eval_seconds"]
    ordered = (
        m["dft_gain"] <= m["time_gain"] <= m["time_nogain"] <= m["nb_only"]
    )
    _report(
        f"criterion 5 (oracle LSD ordering, {CORPUS_FILES} files)",
        ordered and elapsed < 600.0,
        "LSD dft+gain {dft_gain:.3f} <= time+gain {time_gain:.3f} <= "
        "time-no-gain {time_nogain:.3f} <= nb-only {nb_only:.3f} dB, "
        "{elapsed:.0f} s".format(elapsed=elapsed, **m),
    )


# ---------------------------------------------------------------------------
# criterion 6: truncated FIR feature close to the full IIR cascade


def test_criterion_6_fir_close_to_iir(corpus, oracles, table1):
    cfg = ExtensionConfig(
        mode="oracle", addition="dft", gain_adjust=True, filter_form="iir"
    )
    iir_mean = _mean_lsd(corpus, oracles, cfg)
    fir_mean = table1["means"]["dft_gain"]
    gap = abs(fir_mean - iir_mean)
    _report(
        "criterion 6 (FIR-21 vs IIR)",
        gap <= 0.5,
        f"LSD fir21 {fir_mean:.3f} vs iir {iir_mean:.3f} dB, gap {gap:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 7: regressor beats the baselines, oracle bounds the regressor


def test_criterion_7_regressor_sanity(corpus, oracles, table1):
    pairs = [p for src in oracles["sources"].values() for p in src.pairs]
    model = train_mlp(pairs)
    reg_mean = _mean_lsd(
        corpus, oracles, ExtensionConfig(mode="regressor"), predictor=model
    )
    fold_mean = _mean_lsd(corpus, oracles, ExtensionConfig(mode="fold"))
    nb_mean = table1["means"]["nb_only"]
    oracle_mean = table1["means"]["dft_gain"]

    # gradient check: global relative error between analytic and
    # central-difference gradients
    rng = np.random.default_rng(700)
    net = Mlp(5, 3, MlpConfig(hidden_layers=2, hidden_units=8, weight_decay=0.0, seed=0))
    X = rng.standard_normal((12, 5))
    Y = rng.standard_normal((12, 3))
    _, grads = net.loss_and_grads(X, Y, train=True)
    analytic, fd = [], []
    eps = 1e-6
    for key in ("W", "b", "gamma", "beta"):
        for g, p in zip(grads[key], getattr(net, key)):
            analytic.append((np.zeros_like(p) if g is None else g).ravel().copy())
            flat = p.ravel()
            fd_block = np.empty(flat.size)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                lp, _ = net.loss_and_grads(X, Y, train=True)
                flat[j] = orig - eps
                lm, _ = net.loss_and_grads(X, Y, train=True)
                flat[j] = orig
                fd_block[j] = (lp - lm) / (2 * eps)
            fd.append(fd_block)
    analytic = np.concatenate(analytic)
    fd = np.concatenate(fd)
    grad_rel = float(np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))

    # GMM expectation-maximization log-likelihood monotonicity on the
    # normalized features the training path actually fits
    gmm_model = train_gmm(pairs[:300], components=4, seed=0)
    hist = np.asarray(gmm_model.net.loglik_history)
    # monotone up to floating-point wobble at the converged plateau, which
    # scales with the log-likelihood magnitude
    tol = 1e-6 * np.maximum(1.0, np.abs(hist[:-1]))
    loglik_monotone = bool(np.all(np.diff(hist) >= -tol))

    ok = (
        reg_mean < fold_mean
        and reg_mean < nb_mean
        and oracle_mean <= reg_mean
        and grad_rel < 1e-4
        and loglik_monotone
    )
    _report(
        "criterion 7 (regressor sanity)",
        ok,
        f"LSD regressor {reg_mean:.3f} < fold {fold_mean:.3f}, "
        f"< nb-only {nb_mean:.3f}; oracle {oracle_mean:.3f} <= regressor; "
        f"grad rel err {grad_rel:.2e}; GMM loglik monotone {loglik_monotone}",
    )


# ---------------------------------------------------------------------------
# criterion 8: metrics agree with from-definition recomputation


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(800)

    def lsd_ref(x, y, nfft=512):
        px = np.maximum(np.abs(np.fft.rfft(x, nfft)) ** 2, POWER_FLOOR)
        py = np.maximum(np.abs(np.fft.rfft(y, nfft)) ** 2, POWER_FLOOR)
        return float(np.sqrt(np.mean((10.0 * np.log10(px / py)) ** 2)))

    def segsnr_ref(x, y):
        num = max(float(np.dot(x, x)), POWER_FLOOR)
        den = max(float(np.dot(x - y, x - y)), POWER_FLOOR)
        return float(np.clip(10.0 * np.log10(num / den), -10.0, 35.0))

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9)) * 200
        x = rng.standard_normal(n) * rng.uniform(0.05, 0.5)
        y = x + rng.standard_normal(n) * rng.uniform(0.001, 0.2)
        ref = AudioBuffer(x, 16000)
        est = AudioBuffer(y, 16000)
        frames = [
            (x[i : i + 400], y[i : i + 400])
            for i in range(0, n - 399, 200)
        ]
        lsd_expect = float(np.mean([lsd_ref(a, b) for a, b in frames]))
        snr_expect = float(np.mean([segsnr_ref(a, b) for a, b in frames]))
        rec = measure(ref, est)
        worst = max(worst, abs(rec.lsd - lsd_expect))
        worst = max(worst, abs(rec.segsnr - snr_expect))
    ref = AudioBuffer(rng.standard_normal(1200) * 0.2, 16000)
    rec = measure(ref, ref)
    ident_ok = rec.lsd < 1e-12 and rec.segsnr == SEGSNR_MAX
    _report(
        "criterion 8 (metric oracles, 20 pairs)",
        worst < 1e-9 and ident_ok,
        f"worst deviation {worst:.2e}, identical-signal case {ident_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 9: fixed-seed pipeline runs are byte-identical


def _pipeline_run(run_dir):
    from sdabe.cli import main

    cwd = os.getcwd()
    os.makedirs(run_dir, exist_ok=True)
    try:
        os.chdir(run_dir)
        assert main(
            ["--seed", "3", "synth-corpus", "corpus", "--n-files", "3",
             "--duration", "0.15"]
        ) == 0
        assert main(
            ["--seed", "3", "train", "corpus/manifest.tsv", "model.json",
             "--batch-size", "16", "--epochs", "8"]
        ) == 0
        assert main(
            ["extend", "corpus/nb_000.wav", "out.wav", "--model", "model.json"]
        ) == 0
        assert main(
            ["evaluate", "corpus/manifest.tsv", "results", "--model", "model.json"]
        ) == 0
    finally:
        os.chdir(cwd)


def test_criterion_9_pipeline_determinism(tmp_path):
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    _pipeline_run(run1)
    _pipeline_run(run2)
    rel_paths = [
        "corpus/wb_000.wav",
        "corpus/nb_000.wav",
        "corpus/manifest.tsv",
        "model.json",
        "out.wav",
        "results/report.txt",
        "results/frames.csv",
    ]
    mismatched = [
        rel
        for rel in rel_paths
        if (run1 / rel).read_bytes() != (run2 / rel).read_bytes()
    ]
    _report(
        "criterion 9 (pipeline determinism)",
        not mismatched,
        "all artifacts byte-identical" if not mismatched else f"differ: {mismatched}",
    )
