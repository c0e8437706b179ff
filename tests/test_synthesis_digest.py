"""scripts/synthesis_digest.py on a one-file corpus."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "synthesis_digest.py"


def _run() -> list[str]:
    out = subprocess.run([sys.executable, str(SCRIPT), "--files", "1", "--duration", "0.05"],
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def test_digest_has_one_line_per_frame_and_repeats():
    first, second = _run(), _run()
    assert first == second
    *frames, last = first
    # 0.05 s at 16 kHz is 800 samples: 25 ms frames at a 12.5 ms hop give 3
    assert len(frames) == 3
    for i, line in enumerate(frames):
        assert re.fullmatch(rf"wb_000\.wav {i} ([0-9a-f]{{16}}|skip .+)", line)
    skipped = sum(" skip " in line for line in frames)
    digest = hashlib.sha256("".join(line + "\n" for line in frames).encode()).hexdigest()
    assert last == f"digest {digest} frames 3 skipped {skipped}"
