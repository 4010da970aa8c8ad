"""Seeded inputs, the benchmark model, and the correctness gate.

Frames are 8-bit RGB crops (with one of eight flips/rotations) of a fixed
library of synthetic canvases; the seed picks the crops and seeds the edge
mask RNG, so the same seed gives byte-identical inputs.  Every frame of a
run is distinct bytes.

Every response is checked against a :class:`Reference` computed in-process
with :class:`repro.core.pipeline.EaszDecoder`: a ``decode``-kind response
must be bit-identical to it, a reconstruction must lie within
:data:`RECONSTRUCT_TOLERANCE` (max-abs) of it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.codecs.jpeg import JpegCodec
from repro.datasets.synthetic import SyntheticImageGenerator
from repro.experiments.pretrained import default_benchmark_config, pretrained_model
from repro.image import to_float, to_uint8

#: Pre-training steps of the benchmark model (trained once per invocation).
TRAIN_STEPS = 40
JPEG_QUALITY = 75
RECONSTRUCT_TOLERANCE = 1e-5
#: Seed of the first canvas of the scene library frames are cut from.
LIBRARY_SEED = 9100


def benchmark_config():
    return default_benchmark_config()


def load_model(config):
    """The benchmark model: trained on first call, loaded from the checkpoint after."""
    return pretrained_model(config, steps=TRAIN_STEPS)


def make_codec():
    return JpegCodec(quality=JPEG_QUALITY)


def digest(image):
    """SHA-1 of an array's bytes (C order)."""
    return hashlib.sha1(memoryview(np.ascontiguousarray(image)).cast("B")).digest()


def frame_stream(seed, size, canvases):
    """Endless distinct ``size``x``size`` uint8 RGB frames for ``seed``.

    The canvases are a fixed scene library (the same for every seed), used
    in turn; the seed picks each frame's crop and orientation.  Cycling a
    fixed library keeps the content mix, and so ``bpp`` and ``psnr_db``,
    comparable from seed to seed.  Frames are made as they are taken, so a
    run holds only the ones it is working on.
    """
    margin = size // 4
    generator = SyntheticImageGenerator(size + margin, size + margin)
    pictures = [to_uint8(generator.generate(LIBRARY_SEED + index))
                for index in range(canvases)]
    rng = np.random.default_rng([seed, size])
    seen, made = set(), 0
    while True:
        picture = pictures[made % canvases]
        y, x = rng.integers(0, margin + 1, size=2)
        orientation = int(rng.integers(8))
        crop = np.rot90(picture[y:y + size, x:x + size], orientation % 4)
        if orientation >= 4:
            crop = crop[:, ::-1]
        crop = np.ascontiguousarray(crop)
        key = digest(crop)
        if key not in seen:
            seen.add(key)
            made += 1
            yield crop


def psnr_db(image, source):
    """PSNR of ``image`` (floats in [0, 1]) against an 8-bit ``source`` frame."""
    mse = float(np.mean((np.asarray(image, dtype=np.float64) - to_float(source)) ** 2))
    return 10.0 * np.log10(1.0 / max(mse, 1e-12))


class Reference:
    """The expected response for one frame, plus its PSNR against the source.

    Exact references keep only a digest; tolerance references keep a
    float32 copy (float32 rounding, ~3e-8 on [0, 1], is far below the
    tolerance).
    """

    def __init__(self, decoded, source, exact):
        decoded = np.asarray(decoded)
        self.exact = exact
        self.shape = decoded.shape
        self.dtype = decoded.dtype
        self.digest = digest(decoded) if exact else None
        self.image32 = None if exact else decoded.astype(np.float32)
        self.psnr = psnr_db(decoded, source)

    def matches(self, image):
        image = np.asarray(image)
        if image.shape != self.shape:
            return False
        if self.exact:
            return image.dtype == self.dtype and digest(image) == self.digest
        return float(np.max(np.abs(image - self.image32))) <= RECONSTRUCT_TOLERANCE
