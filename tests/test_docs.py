"""The README's configuration block and Python example match the code."""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

from clearstream.pipeline import PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang: str, after: str) -> str:
    """The first ```lang fenced block after the line containing `after`."""
    text = README.read_text()
    start = text.index(after)
    m = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert m is not None, f"no {lang} block after {after!r}"
    return m.group(1)


def test_readme_default_config_matches_code():
    doc = json.loads(_block("json", "default configuration is exactly"))
    assert doc == json.loads(json.dumps(PipelineConfig().to_dict()))


def test_readme_python_example_runs_and_enhances():
    ns: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_block("python", "## Python API"), str(README), "exec"), ns)
    # seeded weights whose masks block every cell would compare zeros
    assert np.any(ns["est"])
