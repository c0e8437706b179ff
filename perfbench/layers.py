"""Per-layer metrics of the traced run: which functions get a span, what is
read off their results, and the counts derived from the spans."""

from __future__ import annotations

import re
from collections import defaultdict

import numpy as np

from spans import Target, layer_stats

TARGETS = (
    Target("sysid.prony_fit", "sdabe.sysid", "prony_fit",
           lambda m: {"fit_error": m.fit_error, "degenerate": m.degenerate}),
    Target("lpc.levinson_lpc", "sdabe.lpc", "levinson_lpc"),
    Target("plant.build_generalized_plant", "sdabe.plant", "build_generalized_plant",
           lambda p: {"n": p.n}),
    Target("plant.closed_loop", "sdabe.plant", "closed_loop"),
    Target("hinf.hinf_synthesize", "sdabe.hinf", "hinf_synthesize",
           lambda s: {"gamma": s.gamma, "iterations": s.iterations}),
    Target("hinf.solve_dare", "sdabe.hinf", "solve_dare"),
    Target("hinf.hinf_norm", "sdabe.hinf", "hinf_norm", lambda v: {"value": float(v)}),
    Target("statespace.StateSpaceModel.impulse_response_all", "sdabe.statespace",
           "StateSpaceModel.impulse_response_all"),
    Target("statespace.StateSpaceModel.simulate", "sdabe.statespace", "StateSpaceModel.simulate"),
    Target("statespace.StateSpaceModel.freq_response", "sdabe.statespace",
           "StateSpaceModel.freq_response"),
    Target("hbfilter.assemble_synthesis_filter", "sdabe.hbfilter", "assemble_synthesis_filter"),
    Target("hbfilter.extract_highband_filter", "sdabe.hbfilter", "extract_highband_filter",
           lambda s: {"truncation_ratio": s.truncation_ratio}),
    Target("features.extract_feature_pair", "sdabe.features", "extract_feature_pair"),
    Target("pipeline.extend_file", "sdabe.pipeline", "extend_file"),
    Target("pipeline.extend_frame", "sdabe.pipeline", "extend_frame"),
    Target("pipeline.estimate_hb_signal", "sdabe.pipeline", "estimate_hb_signal"),
    Target("pipeline.dft_add", "sdabe.pipeline", "dft_add"),
    Target("pipeline.OracleSource", "sdabe.pipeline", "OracleSource.__init__"),
    Target("regressor.predict_hb", "sdabe.regressor", "predict_hb"),
    Target("mlp.Mlp.fit", "sdabe.mlp", "Mlp.fit", lambda net: {"loss": net.loss_history[-1]}),
    Target("metrics.measure", "sdabe.metrics", "measure"),
    Target("audio.read_wav", "sdabe.audio", "read_wav"),
    Target("audio.write_wav", "sdabe.audio", "write_wav"),
    Target("corpus.generate_corpus", "sdabe.corpus", "generate_corpus"),
    Target("cli.collect_pairs", "sdabe.cli", "collect_pairs"),
)
SPAN_NAMES = tuple(t.name for t in TARGETS)
STATS = ("calls", "ms_per_call", "ms_self")

# DegenerateFrame reasons raised by extract_feature_pair, as metric slugs
DEGENERATE_REASONS = (
    "silent_narrowband_frame", "degenerate_signal_model", "degenerate_lpc_fit",
    "zero_synthesis_filter", "other",
)

def _slug(reason: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", reason.lower()).strip("_")
    return slug if slug in DEGENERATE_REASONS else "other"


def _mean(vals) -> float:
    return float(np.mean(vals)) if len(vals) else 0.0


def per_layer_values(spans, overhead_frac: float) -> dict[str, float]:
    """Value of every per-layer metric; 0 where a layer made no call."""
    out = {}
    for name, stats in layer_stats(spans, SPAN_NAMES).items():
        for stat in STATS:
            out[f"{name}.{stat}"] = stats[stat]
    by = defaultdict(list)
    for i, sp in enumerate(spans):
        by[sp.name].append(i)

    def attr(name, key):
        return [spans[i].attrs[key] for i in by[name] if key in spans[i].attrs]

    synth = by["hinf.hinf_synthesize"]
    first_norm = {}
    for i in by["hinf.hinf_norm"]:
        p = spans[i].parent
        if p is not None and spans[p].name == "hinf.hinf_synthesize" and p not in first_norm:
            first_norm[p] = spans[i].attrs.get("value")
    ratios = [spans[p].attrs["gamma"] / v for p, v in first_norm.items()
              if v and "gamma" in spans[p].attrs]
    fits = [spans[i].attrs["fit_error"] for i in by["sysid.prony_fit"]
            if spans[i].attrs and not spans[i].attrs["degenerate"]]
    pair_calls = by["features.extract_feature_pair"]
    reasons = [_slug(spans[i].error) for i in pair_calls if spans[i].error]
    dare = len(by["hinf.solve_dare"])
    losses = attr("mlp.Mlp.fit", "loss")
    out.update({
        "sysid.fit_error_mean": _mean(fits),
        "plant.states_mean": _mean(attr("plant.build_generalized_plant", "n")),
        "hinf.solve_dare.calls_per_frame": dare / len(synth) if synth else 0.0,
        "hinf.iterations_mean": _mean(attr("hinf.hinf_synthesize", "iterations")),
        "hinf.feasible_frac": len(by["plant.closed_loop"]) / dare if dare else 0.0,
        "hinf.gamma_ratio_mean": _mean(ratios),
        "hbfilter.truncation_ratio_mean": _mean(attr("hbfilter.extract_highband_filter", "truncation_ratio")),
        "features.degenerate_frac": len(reasons) / len(pair_calls) if pair_calls else 0.0,
        "mlp.loss_final": float(losses[-1]) if losses else 0.0,
        "trace.overhead_frac": overhead_frac,
    })
    for r in DEGENERATE_REASONS:
        out[f"features.degenerate.{r}"] = reasons.count(r)
    return out
