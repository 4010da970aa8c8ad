"""Batched-vs-sequential equivalence for the new multi-image APIs.

The serving layer is only trustworthy if batching is a pure performance
transform: ``compress_batch`` must emit byte-identical payloads,
``decompress_batch`` without reconstruction must be pixel-exact, and the
fused-engine reconstruction must keep transmitted pixels bit-identical while
predicted pixels stay within float32 tolerance of the float64 autograd
forward (orders of magnitude below one 8-bit quantisation step).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.codecs import JpegCodec
from repro.core import (
    EaszCodec,
    EaszConfig,
    EaszDecoder,
    EaszEncoder,
    EaszReconstructor,
    get_pixel_plan,
    image_to_patches,
    patches_to_image,
    patches_to_tokens,
    proposed_mask,
    reconstruct_batch,
    reconstruct_image,
    tokens_to_patches,
)

#: Engine-vs-autograd agreement bound: the float32 engine differs from the
#: float64 autograd forward only by rounding (~4e-7 observed), so 1e-5 is
#: ~25x looser than observed.
_TOL = 1e-5


def autograd_reconstruct(model, image, mask, keep_original=True):
    """Independent oracle: the float64 autograd forward over patchify tokens.

    Tokenises with the public patchify helpers (channels folded into the
    batch for a ``channels=1`` model), runs :meth:`EaszReconstructor.forward`
    without gradients and reassembles, so it shares neither the pixel-index
    gather nor the fused engine with :func:`reconstruct_batch`.
    """
    cfg = model.config
    image = np.asarray(image, dtype=np.float64)
    fold = image.ndim == 3 and cfg.channels == 1
    patches, grid_shape, original_shape = image_to_patches(image, cfg.patch_size)
    num_patches = patches.shape[0]
    if fold:
        patches = patches.transpose(3, 0, 1, 2).reshape(-1, cfg.patch_size, cfg.patch_size)
    tokens = patches_to_tokens(patches, cfg.subpatch_size)
    with nn.no_grad():
        predicted = np.array(model.forward(tokens, mask).data)
    if keep_original:
        kept = np.asarray(mask, dtype=bool).reshape(-1)
        predicted[:, kept, :] = tokens[:, kept, :]
    rebuilt = tokens_to_patches(predicted, cfg.grid_size, cfg.subpatch_size, cfg.channels)
    if fold:
        rebuilt = rebuilt.reshape(3, num_patches, cfg.patch_size, cfg.patch_size)
        rebuilt = rebuilt.transpose(1, 2, 3, 0)
    return np.clip(patches_to_image(rebuilt, grid_shape, original_shape), 0.0, 1.0)


@pytest.fixture(scope="module")
def config():
    return EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                      d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                      ffn_mult=2, loss_lambda=0.0)


@pytest.fixture(scope="module")
def model(config):
    model = EaszReconstructor(config)
    model.eval()
    return model


@pytest.fixture(scope="module")
def mask(config):
    return proposed_mask(config.grid_size, config.erase_per_row,
                         config.intra_row_min_distance, seed=3)


@pytest.fixture(scope="module")
def mixed_images():
    rng = np.random.default_rng(42)
    return [
        rng.random((64, 96, 3)),   # RGB
        rng.random((48, 48)),      # gray, square
        rng.random((50, 70, 3)),   # RGB, ragged (needs padding)
        rng.random((64, 96, 3)),   # duplicate shape of the first
        rng.random((33, 81)),      # gray, ragged
    ]


class TestCompressBatch:
    def test_payloads_byte_identical_to_sequential(self, config, mixed_images):
        batch_codec = EaszCodec(config=config, seed=11)
        seq_codec = EaszCodec(config=config, seed=11)
        batched = batch_codec.compress_batch(mixed_images)
        sequential = [seq_codec.compress(image) for image in mixed_images]
        for got, want in zip(batched, sequential):
            assert got.payload == want.payload
            got_package = got.metadata["easz_package"]
            want_package = want.metadata["easz_package"]
            assert got_package.mask_bytes == want_package.mask_bytes
            assert got_package.config_summary == want_package.config_summary

    def test_shared_mask_encode_batch_byte_identical(self, config, mask, mixed_images):
        encoder_a = EaszEncoder(config, seed=0)
        encoder_b = EaszEncoder(config, seed=0)
        batched = encoder_a.encode_batch(mixed_images, mask=mask)
        sequential = [encoder_b.encode(image, mask=mask) for image in mixed_images]
        for got, want in zip(batched, sequential):
            assert got.codec_payload.payload == want.codec_payload.payload
            assert got.mask_bytes == want.mask_bytes
            assert got.original_shape == want.original_shape
            assert got.squeezed_shape == want.squeezed_shape


class TestDecodeBatch:
    def test_unsqueeze_only_pixel_exact(self, config, model, mask, mixed_images):
        encoder = EaszEncoder(config, seed=0)
        packages = encoder.encode_batch(mixed_images, mask=mask)
        decoder = EaszDecoder(model=model, config=config)
        batched = decoder.decode_batch(packages, reconstruct=False)
        sequential = [decoder.decode(package, reconstruct=False) for package in packages]
        for got, want in zip(batched, sequential):
            assert np.array_equal(got, want)

    def test_reconstructed_decode_matches_sequential(self, config, model, mixed_images):
        # per-image masks (no shared mask): groups of one must also work
        codec = EaszCodec(config=config, model=model, seed=5)
        compressed = codec.compress_batch(mixed_images)
        batched = codec.decompress_batch(compressed)
        sequential = [codec.decompress(item) for item in compressed]
        for got, want in zip(batched, sequential):
            assert got.shape == want.shape
            assert np.abs(got - want).max() < _TOL

    def test_decode_batch_keeps_submission_order(self, config, model, mask, mixed_images):
        encoder = EaszEncoder(config, seed=0)
        packages = encoder.encode_batch(mixed_images, mask=mask)
        decoder = EaszDecoder(model=model, config=config)
        results = decoder.decode_batch(packages)
        for package, result in zip(packages, results):
            assert result.shape == package.original_shape


class TestReconstructBatch:
    def test_matches_per_image_calls_mixed_shapes(self, model, mask, mixed_images):
        batched = reconstruct_batch(model, mixed_images, mask)
        for image, got in zip(mixed_images, batched):
            want = autograd_reconstruct(model, image, mask)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < _TOL

    def test_kept_pixels_bit_identical(self, config, model, mask, mixed_images):
        image = mixed_images[0]
        flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
        plan = get_pixel_plan(flat_mask, image.shape[:2],
                              config.patch_size, config.subpatch_size)
        for got in (reconstruct_batch(model, [image], mask)[0],
                    reconstruct_image(model, image, mask),
                    autograd_reconstruct(model, image, mask)):
            assert np.array_equal(got[plan.kept_y, plan.kept_x],
                                  image[plan.kept_y, plan.kept_x])

    def test_keep_original_false(self, model, mask, mixed_images):
        image = mixed_images[1]
        got = reconstruct_batch(model, [image], mask, keep_original=False)[0]
        want = autograd_reconstruct(model, image, mask, keep_original=False)
        assert np.abs(got - want).max() < _TOL

    def test_all_kept_mask_is_exact(self, config, model, mixed_images):
        ones = np.ones((config.grid_size, config.grid_size), dtype=np.uint8)
        image = mixed_images[0]
        assert np.array_equal(reconstruct_batch(model, [image], ones)[0], image)
        assert np.array_equal(reconstruct_image(model, image, ones), image)

    def test_rgb_token_model(self, mask):
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1, channels=3,
                            d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                            ffn_mult=2, loss_lambda=0.0)
        model = EaszReconstructor(config)
        model.eval()
        rng = np.random.default_rng(8)
        images = [rng.random((48, 64, 3)), rng.random((32, 32, 3))]
        batched = reconstruct_batch(model, images, mask)
        for image, got in zip(images, batched):
            want = autograd_reconstruct(model, image, mask)
            assert np.abs(got - want).max() < _TOL

    def test_rejects_gray_for_rgb_model(self, mask):
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1, channels=3,
                            d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                            ffn_mult=2, loss_lambda=0.0)
        model = EaszReconstructor(config)
        with pytest.raises(ValueError, match="RGB"):
            reconstruct_batch(model, [np.zeros((32, 32))], mask)

    def test_empty_batch(self, model, mask):
        assert reconstruct_batch(model, [], mask) == []

    def test_engine_invalidates_on_weight_change(self, config, mask):
        model = EaszReconstructor(config)
        model.eval()
        rng = np.random.default_rng(9)
        image = rng.random((32, 48, 3))
        first_engine = model.batch_engine()
        before = reconstruct_batch(model, [image], mask)[0]
        for parameter in model.parameters():
            parameter.data *= 0.5
        after = reconstruct_batch(model, [image], mask)[0]
        assert model.batch_engine() is not first_engine
        want = autograd_reconstruct(model, image, mask)
        assert np.abs(after - want).max() < _TOL
        assert not np.array_equal(before, after)

    def test_dropout_training_runs_autograd_branch(self, mask):
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                            d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                            ffn_mult=2, loss_lambda=0.0, dropout=0.3)
        model = EaszReconstructor(config)
        model.train()
        rng = np.random.default_rng(10)
        image = rng.random((32, 48, 3))
        tokens = rng.random((6, config.tokens_per_patch, config.token_dim))
        flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
        plan = get_pixel_plan(flat_mask, image.shape[:2],
                              config.patch_size, config.subpatch_size)

        # dropout is live: repeated calls differ, transmitted pixels do not
        first, second = (reconstruct_batch(model, [image], mask)[0] for _ in range(2))
        assert not np.array_equal(first, second)
        for got in (first, second):
            assert np.array_equal(got[plan.kept_y, plan.kept_x],
                                  image[plan.kept_y, plan.kept_x])
        first, second = (model.reconstruct_tokens(tokens, mask) for _ in range(2))
        assert not np.array_equal(first, second)
        for got in (first, second):
            assert np.array_equal(got[:, flat_mask], tokens[:, flat_mask])

        model.eval()
        got = reconstruct_batch(model, [image], mask)[0]
        assert np.abs(got - autograd_reconstruct(model, image, mask)).max() < _TOL
        with nn.no_grad():
            want = model.forward(tokens, mask).data
        got = model.reconstruct_tokens(tokens, mask, keep_original=False)
        assert np.abs(got - want).max() < _TOL


class TestVectorizedJpegDecode:
    """The two-pass entropy decode must be exact against a reference loop."""

    def _reference_decode(self, codec, compressed):
        """Symbol-at-a-time reference using the public LUT tables."""
        from repro.codecs import jpeg as jpeg_module
        from repro.entropy.bitio import BitReader

        payload = compressed.payload
        reader = BitReader(payload[11:])
        channels = []
        for meta in compressed.metadata["channels"]:
            is_luma = meta["is_luma"]
            dc_symbols, dc_lengths = (jpeg_module._DC_LUMA_DECODE if is_luma
                                      else jpeg_module._DC_CHROMA_DECODE)
            ac = (jpeg_module._AC_LUMA_DECODE if is_luma
                  else jpeg_module._AC_CHROMA_DECODE)
            ac_symbols, ac_lengths = ac[0], ac[1]
            num_blocks = meta["num_blocks"]
            blocks = np.zeros((num_blocks, 64), dtype=np.int32)
            previous_dc = 0
            for block_index in range(num_blocks):
                window = reader.peek_bits(16)
                length = dc_lengths[window]
                size = dc_symbols[window]
                reader.skip_bits(length)
                if size:
                    amp = reader.read_bits(size)
                    previous_dc += amp if amp >> (size - 1) else amp - (1 << size) + 1
                blocks[block_index, 0] = previous_dc
                index = 1
                while index < 64:
                    window = reader.peek_bits(16)
                    symbol = ac_symbols[window]
                    reader.skip_bits(ac_lengths[window])
                    if symbol == 0x00:
                        break
                    if symbol == 0xF0:
                        index += 16
                        continue
                    index += symbol >> 4
                    size = symbol & 0x0F
                    amp = reader.read_bits(size)
                    blocks[block_index, index] = (
                        amp if amp >> (size - 1) else amp - (1 << size) + 1)
                    index += 1
            out = np.zeros((num_blocks, 64), dtype=np.int32)
            out[:, jpeg_module.ZIGZAG_ORDER] = blocks
            channels.append(out.reshape(num_blocks, 8, 8))
        return channels

    @pytest.mark.parametrize("shape,quality", [((48, 64, 3), 75), ((40, 56), 30),
                                               ((33, 41, 3), 92)])
    def test_decode_channel_matches_reference(self, shape, quality):
        from repro.codecs.jpeg import (_AC_CHROMA_DECODE, _AC_LUMA_DECODE,
                                       _DC_CHROMA_DECODE, _DC_LUMA_DECODE)
        from repro.entropy.bitio import BitReader

        rng = np.random.default_rng(hash(shape) % (2 ** 31))
        image = rng.random(shape)
        for axis in (0, 1):
            image = 0.25 * np.roll(image, 1, axis) + 0.5 * image \
                + 0.25 * np.roll(image, -1, axis)
        image = np.clip(image, 0.0, 1.0)
        codec = JpegCodec(quality=quality)
        compressed = codec.compress(image)
        reference = self._reference_decode(codec, compressed)

        reader = BitReader(compressed.payload[11:])
        for meta, want in zip(compressed.metadata["channels"], reference):
            is_luma = meta["is_luma"]
            got = codec._decode_channel(
                reader, meta["num_blocks"],
                _DC_LUMA_DECODE if is_luma else _DC_CHROMA_DECODE,
                _AC_LUMA_DECODE if is_luma else _AC_CHROMA_DECODE)
            assert np.array_equal(got, want)

    def test_corrupt_stream_detected(self):
        rng = np.random.default_rng(0)
        codec = JpegCodec(quality=75)
        compressed = codec.compress(rng.random((24, 24)))
        corrupted = compressed.payload[:12] + bytes([0xFF] * 4)
        import dataclasses
        broken = dataclasses.replace(compressed, payload=corrupted)
        with pytest.raises(ValueError):
            codec.decompress(broken)
