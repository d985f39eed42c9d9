"""Synthetic image generators and PPM/PGM round-trips."""

import ast
from pathlib import Path

import numpy as np
import pytest

import artbank.data_io as data_io
import artbank.tensor as tensor_mod
from artbank.data_io import (ImageSample, StyleSpec, default_style_specs,
                             gen_content_image, gen_style_collection,
                             read_ppm, write_ppm)
from artbank.errors import (ConfigError, MalformedHeaderError,
                            TruncatedFileError, UnsupportedFormatError)


class TestImageSample:
    def test_range_enforced(self):
        with pytest.raises(ConfigError):
            ImageSample.from_array(np.full((2, 2, 3), 1.5))

    def test_nan_pixels_rejected(self):
        one_nan = np.full((8, 8, 3), 0.5)
        one_nan[3, 4, 1] = np.nan
        for pixels in (np.full((8, 8, 3), np.nan), one_nan):
            with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
                ImageSample.from_array(pixels)

    def test_tensor_round_trip(self):
        # Both directions keep the arrays row-major (C-contiguous).
        img = gen_content_image("photo", 8, seed=1)
        planar = img.to_tensor().data
        assert planar.flags.c_contiguous
        assert np.array_equal(planar, img.pixels.transpose(2, 0, 1))
        back = ImageSample.from_array(planar.transpose(1, 2, 0)).pixels
        assert back.flags.c_contiguous and np.array_equal(back, img.pixels)


def test_imports_only_errors_seeding_and_tensor_from_the_package():
    """The data layer sits below the bank and the models: of the package it
    takes only the error classes, the seeds and the array budget."""
    imported = set()
    tree = ast.parse(Path(data_io.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module
                         else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("artbank"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("artbank")}
    assert imported <= {"errors", "seeding", "tensor"}, imported


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

    @pytest.mark.parametrize("generate, message", [
        (lambda: gen_style_collection(default_style_specs()["blobs"], 2, -3, 0),
         "image size must be at least 1, got -3"),
        (lambda: gen_style_collection(default_style_specs()["blobs"], 2, 0, 0),
         "image size must be at least 1, got 0"),
        (lambda: gen_content_image("shapes", 0, 0),
         "image size must be at least 1, got 0"),
        # 10**12 float64 values a plane, refused before any is allocated.
        (lambda: gen_content_image("shapes", 10**6, 0),
         "a 1000000x1000000 image needs a 22351.7 GiB array"),
    ], ids=["style-negative", "style-zero", "content-zero", "content-huge"])
    def test_size_refused(self, generate, message):
        with pytest.raises(ConfigError, match=message):
            generate()

    @pytest.mark.parametrize("generate", [
        lambda: gen_style_collection(default_style_specs()["blobs"], 1, 16, 0),
        lambda: gen_content_image("photo", 16, 1),
    ], ids=["style", "content"])
    def test_every_channel_counted(self, monkeypatch, generate):
        # 16 x 16 x 3 float64 pixels take 6,144 bytes, as read_ppm counts
        # them; one gray plane takes 2,048.
        monkeypatch.setattr(tensor_mod, "MAX_ARRAY_BYTES", 4096)
        with pytest.raises(ConfigError, match="a 16x16 image needs a 0.0 GiB "
                                              "array"):
            generate()
        assert gen_content_image("photo", 16, 1, channels=1).channels == 1

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

    @pytest.mark.parametrize("channels, refused", [(3, True), (1, False)])
    def test_image_over_array_budget_refused(self, tmp_path, monkeypatch,
                                             channels, refused):
        # 16 x 16 x 3 float64 pixels take 6,144 bytes, 16 x 16 x 1 take 2,048.
        path = tmp_path / "big.ppm"
        write_ppm(gen_content_image("photo", 16, seed=1, channels=channels), path)
        monkeypatch.setattr(tensor_mod, "MAX_ARRAY_BYTES", 4096)
        if not refused:
            assert read_ppm(path).height == 16
            return
        with pytest.raises(UnsupportedFormatError,
                           match="a 16x16 image needs a 0.0 GiB array; the "
                                 "limit is 0.00390625 MiB per array"):
            read_ppm(path)
