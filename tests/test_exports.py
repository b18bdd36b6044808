"""What importing the package and its submodules loads."""

import subprocess
import sys


_IMPORT_ALL = """
import pkgutil, sys
import clearstream
for m in pkgutil.iter_modules(clearstream.__path__):
    if m.name != "__main__":
        __import__("clearstream." + m.name)
print("scipy.signal" in sys.modules)
"""


def test_import_leaves_scipy_signal_unloaded():
    """scipy.signal takes about a second to import, so no module of the
    package imports it at import time, only inside the functions that
    call it."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_pipeline_leaves_scene_and_wav_modules_unloaded():
    """The package root imports nothing, so importing the enhancer
    loads neither the scene generator nor scipy's WAV reader."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, clearstream.pipeline; "
         "print(sorted({'clearstream.mixgen', 'scipy.io'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
