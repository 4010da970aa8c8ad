"""Calls into each layer's public functions, one span per call.

The traced runs compose the Easz pipeline from these calls so each layer's
time is visible from outside ``src/``:

* edge: ``EaszEncoder.generate_mask`` then ``EaszEncoder.encode(frame, mask)``
  (identical to ``encode(frame)``: it draws the same mask from the same RNG);
* :func:`replay_edge` replays what ``encode`` hides — an uncached
  ``SqueezePlan`` build and ``JpegCodec.compress_squeezed``;
* :func:`decode_stages` is ``EaszDecoder.decode`` split into
  ``JpegCodec.decompress``, ``SqueezePlan.unsqueeze_image`` and
  ``reconstruct_image``.  Its output is checked by the same gate as the
  untraced path, against ``EaszDecoder.decode``.
"""

from __future__ import annotations

import numpy as np

from repro.core.erase_squeeze import SqueezePlan, get_squeeze_plan
from repro.core.masks import deserialize_mask
from repro.core.reconstruction import reconstruct_image
from repro.image import to_float


def encode_frame(encoder, frame, tracer, rid, mask=None):
    """Edge encode of one frame; draws a mask from the encoder RNG when none is given."""
    if mask is None:
        with tracer.span("edge.mask", rid):
            mask = encoder.generate_mask()
    with tracer.span("edge.encode", rid):
        return encoder.encode(frame, mask=mask), mask


def replay_edge(codec, config, frame, mask, tracer, rid):
    """Replay the squeeze-plan build and the JPEG encode that ``encode`` hides."""
    with tracer.span("edge.squeeze_plan", rid):
        plan = SqueezePlan(mask, config.subpatch_size).require_patch_size(config.patch_size)
    image = to_float(frame)
    with tracer.span("codecs.jpeg.encode", rid):
        codec.compress_squeezed(image, plan)


def decode_stages(package, codec, model, config, tracer, rid, reconstruct):
    """``EaszDecoder.decode(package, reconstruct)`` as one span per layer.

    Returns ``(filled, image)``: the unsqueezed frame, and the reconstruction
    (or ``filled`` again when ``reconstruct`` is false).
    """
    mask = deserialize_mask(package.mask_bytes)
    plan = get_squeeze_plan(mask, config.subpatch_size).require_patch_size(config.patch_size)
    with tracer.span("codecs.jpeg.decode", rid):
        squeezed = codec.decompress(package.codec_payload)
    height, width = package.original_shape[:2]
    patch = config.patch_size
    padded = ((height + (-height) % patch, width + (-width) % patch)
              + tuple(package.original_shape[2:]))
    with tracer.span("core.erase_squeeze.unsqueeze", rid):
        filled = plan.unsqueeze_image(np.clip(np.asarray(squeezed), 0.0, 1.0),
                                      package.grid_shape, padded)[:height, :width, ...]
    if not reconstruct:
        return filled, filled
    with tracer.span("core.reconstruction.image", rid):
        return filled, reconstruct_image(model, filled, mask)
