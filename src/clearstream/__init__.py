"""Binaural speech enhancement toolkit.

Streaming cache-reusing TCN plus a mel-mask UNet, the earbud-to-host
packet protocol and clock-sync simulators they ride on, a synthetic
binaural scene generator, and the matching evaluation metrics.  See the
``clearstream`` command-line entry point for the packaged workflows.
The API lives in the submodules (``clearstream.pipeline``,
``clearstream.weights``, ...); the package root imports none of them.
"""

__version__ = "0.1.0"
