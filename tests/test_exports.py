"""Package exports: __all__ lists exactly what __init__ imports."""

import ast
import subprocess
import sys
from pathlib import Path

import clearstream


def test_all_matches_imports():
    names = clearstream.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(clearstream, name), name
    tree = ast.parse(Path(clearstream.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(names) == imported | {"__version__"}


def test_import_leaves_scipy_signal_unloaded():
    """scipy.signal takes about a second to import, so the package
    imports it only inside the functions that call it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, clearstream; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_ENHANCE_CAPTURE_RATE = """
import sys
import numpy as np
from clearstream.dsp import WaveBuffer
from clearstream.pipeline import CbNetStream, PipelineConfig, process_file
from clearstream.wavio import write_wav
from clearstream.weights import load_weights, random_init, save_weights

d = sys.argv[1]
cfg = PipelineConfig()
save_weights(random_init(cfg, seed=1), d + "/w.bin")
x = np.random.default_rng(0).uniform(-0.5, 0.5, (2, 6250))
write_wav(d + "/in.wav", WaveBuffer(x, sample_rate=31250.0))
bundle = load_weights(d + "/w.bin")
for oracle in (False, True):
    process_file(d + "/in.wav", bundle, d + "/out.wav", cfg, oracle=oracle)
CbNetStream(bundle, cfg).push(x[:, :cfg.hop] * 0.1)
print("scipy.signal" in sys.modules)
"""


def test_enhancing_capture_rate_audio_leaves_scipy_signal_unloaded(tmp_path):
    """Loading weights and enhancing a 31.25 kHz WAV, streamed and oracle,
    decimates without importing scipy.signal (46 MB resident)."""
    proc = subprocess.run(
        [sys.executable, "-c", _ENHANCE_CAPTURE_RATE, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
