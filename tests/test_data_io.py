"""Synthetic image generators and PPM/PGM round-trips."""

import numpy as np
import pytest

from artbank.data_io import (ImageSample, StyleSpec, default_style_specs,
                             gen_content_image, gen_style_collection,
                             read_ppm, write_ppm)
from artbank.errors import (ConfigError, MalformedHeaderError,
                            TruncatedFileError, UnsupportedFormatError)


class TestImageSample:
    def test_range_enforced(self):
        with pytest.raises(ConfigError):
            ImageSample.from_array(np.full((2, 2, 3), 1.5))

    def test_tensor_round_trip(self):
        img = gen_content_image("photo", 8, seed=1)
        back = ImageSample.from_tensor(img.to_tensor())
        assert np.array_equal(back.pixels, img.pixels)


class TestGenerators:
    def test_style_collection_reproducible(self):
        spec = default_style_specs()["stripes"]
        a = gen_style_collection(spec, 1, 16, seed=4)[0]
        b = gen_style_collection(spec, 1, 16, seed=4)[0]
        assert np.array_equal(a.pixels, b.pixels)

    def test_different_seeds_differ(self):
        spec = default_style_specs()["waves"]
        a = gen_style_collection(spec, 1, 16, seed=4)[0]
        b = gen_style_collection(spec, 1, 16, seed=5)[0]
        assert float(a.pixels.sum()) != float(b.pixels.sum())

    def test_all_families_render(self):
        for name, spec in default_style_specs().items():
            imgs = gen_style_collection(spec, 3, 16, seed=0)
            assert len(imgs) == 3
            for img in imgs:
                assert img.pixels.shape == (16, 16, 3)
                assert float(img.pixels.min()) >= 0.0
                assert float(img.pixels.max()) <= 1.0

    def test_zero_jitter_freezes_collection(self):
        spec = StyleSpec("checks", [(0.9, 0.9, 0.9), (0.1, 0.1, 0.1)],
                         scale=4.0, jitter=0.0)
        imgs = gen_style_collection(spec, 3, 16, seed=9)
        assert np.array_equal(imgs[0].pixels, imgs[1].pixels)
        assert np.array_equal(imgs[1].pixels, imgs[2].pixels)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            StyleSpec("plaid", [(1, 1, 1)])
        with pytest.raises(ConfigError):
            StyleSpec("stripes", [])
        with pytest.raises(ConfigError):
            gen_style_collection(default_style_specs()["blobs"], 0, 16, 0)

    def test_gradient_monotone_along_x(self):
        img = gen_content_image("gradient", 32, seed=2)
        diffs = np.diff(img.pixels, axis=1)
        assert np.all(diffs >= 0.0)

    def test_content_determinism(self):
        a = gen_content_image("shapes", 16, seed=3)
        b = gen_content_image("shapes", 16, seed=3)
        assert np.array_equal(a.pixels, b.pixels)

    def test_shapes_have_more_edges_than_gradient(self):
        def edge_density(img):
            gray = img.pixels.mean(axis=2)
            gx = np.abs(np.diff(gray, axis=1)).mean()
            gy = np.abs(np.diff(gray, axis=0)).mean()
            grad = (np.abs(np.diff(gray, axis=1)) > 0.05).mean() + \
                   (np.abs(np.diff(gray, axis=0)) > 0.05).mean()
            return grad

        shapes = [edge_density(gen_content_image("shapes", 32, seed=s))
                  for s in range(5)]
        gradients = [edge_density(gen_content_image("gradient", 32, seed=s))
                     for s in range(5)]
        assert np.mean(shapes) > np.mean(gradients)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            gen_content_image("fractal", 16, seed=0)


class TestPpmIo:
    def test_white_pixel_exact_bytes(self, tmp_path):
        img = ImageSample.from_array(np.ones((1, 1, 3)))
        path = tmp_path / "white.ppm"
        write_ppm(img, path)
        assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_round_trip_error_bound(self, tmp_path):
        img = gen_content_image("photo", 16, seed=5)
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        back = read_ppm(path)
        assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0 / 255.0

    def test_write_read_write_idempotent(self, tmp_path):
        img = gen_content_image("shapes", 16, seed=6)
        p1 = tmp_path / "a.ppm"
        p2 = tmp_path / "b.ppm"
        write_ppm(img, p1)
        write_ppm(read_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_grayscale_round_trip(self, tmp_path):
        img = gen_content_image("gradient", 8, seed=7, channels=1)
        path = tmp_path / "g.pgm"
        write_ppm(img, path)
        assert path.read_bytes().startswith(b"P5\n8 8\n255\n")
        back = read_ppm(path)
        assert back.channels == 1
        assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0 / 255.0

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "ascii.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 255 255\n")
        with pytest.raises(UnsupportedFormatError):
            read_ppm(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\nnot numbers\n255\n")
        with pytest.raises(MalformedHeaderError):
            read_ppm(path)
        # Netpbm numbers are plain ASCII decimals: no sign, no underscore,
        # and none too long for int().
        for header in (b"P6\n1_0 1\n255\n", b"P6\n10 +1\n255\n",
                       b"P6\n10 1\n2_55\n",
                       b"P6\n" + b"9" * 5000 + b" 1\n255\n"):
            path.write_bytes(header + bytes(30))
            with pytest.raises(MalformedHeaderError, match="non-numeric"):
                read_ppm(path)
        # The first token is "P6x", not the P6 magic.
        path.write_bytes(b"P6x 2 2 255\n" + bytes(12))
        with pytest.raises(MalformedHeaderError):
            read_ppm(path)

    @pytest.mark.parametrize("header", [
        b"P6\n# made by gimp\n1 1\n255\n",
        b"P6\n1 # width, then height\r1\n255\n",
    ], ids=["after-magic", "between-width-and-height"])
    def test_header_comments_skipped(self, tmp_path, header):
        path = tmp_path / "commented.ppm"
        path.write_bytes(header + b"\xff\x80\x00")
        img = read_ppm(path)
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert np.array_equal(img.pixels[0, 0] * 255.0, [255.0, 128.0, 0.0])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\xff\xff")
        with pytest.raises(TruncatedFileError):
            read_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\xff\xff\xff\xff\xff\xff")
        with pytest.raises(UnsupportedFormatError):
            read_ppm(path)
