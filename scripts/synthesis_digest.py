"""Print a digest of the per-frame synthesis filters of a generated corpus.

    python3 scripts/synthesis_digest.py [--files 50] [--seed 11] [--duration 0.15]

Generates the corpus with `corpus.generate_corpus` in a temporary directory
(the defaults are the acceptance tests' criterion-5 corpus) and runs
`features.extract_feature_pair` on every frame of every wideband file, with
the package in this checkout's `src/`.  Prints one line per frame:

    FILE FRAME HASH          HASH: first 16 hex digits of the SHA-256 of the
                             filter's response h and the gain g1, as float64
                             bytes
    FILE FRAME skip REASON   a degenerate frame

and last `digest SHA256 frames N skipped M`, the SHA-256 of all the frame
lines.  Two checkouts that print the same last line made every filter and
every skip decision bit for bit the same.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdabe.audio import frame_signal, read_wav  # noqa: E402
from sdabe.corpus import generate_corpus  # noqa: E402
from sdabe.features import DegenerateFrame, extract_feature_pair  # noqa: E402
from sdabe.filters import design_fixed_filters  # noqa: E402
from sdabe.metrics import read_manifest  # noqa: E402


def frame_lines(manifest):
    """(line, skipped) for each frame of each reference file of a manifest."""
    lpf, hpf = design_fixed_filters()
    for ref, _, _ in read_manifest(manifest):
        name = Path(ref).name
        for frame in frame_signal(read_wav(ref)):
            try:
                pair, synth = extract_feature_pair(frame, lpf, hpf)
            except DegenerateFrame as exc:
                yield f"{name} {frame.index} skip {exc.reason}", True
                continue
            blob = synth.h.tobytes() + np.float64(pair.g1).tobytes()
            yield f"{name} {frame.index} {hashlib.sha256(blob).hexdigest()[:16]}", False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--files", type=int, default=50)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--duration", type=float, default=0.15)
    args = ap.parse_args(argv)
    digest = hashlib.sha256()
    frames = skipped = 0
    with tempfile.TemporaryDirectory() as tmp:
        manifest = generate_corpus(tmp, args.files, seed=args.seed, duration=args.duration)
        for line, skip in frame_lines(manifest):
            print(line)
            digest.update(line.encode() + b"\n")
            frames += 1
            skipped += skip
    print(f"digest {digest.hexdigest()} frames {frames} skipped {skipped}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
