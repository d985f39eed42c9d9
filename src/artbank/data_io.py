"""Synthetic style collections, content images, and bit-exact PPM/PGM I/O.

Four procedural families (stripes, blobs, checks, waves) stand in for
per-artist artwork collections; each has distinct second-order statistics so
Gram-feature signatures can separate them. Content generators supply
structured inputs for structure-preservation measurements.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import (ConfigError, DimensionError, MalformedHeaderError,
                     TruncatedFileError, UnsupportedFormatError)
from .tensor import Tensor, check_array_size

CONTENT_KINDS = ("shapes", "gradient", "photo")


@dataclass
class ImageSample:
    """An H x W x ch float64 image with all values in [0, 1]."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray  # (H, W, ch), row-major, channel-interleaved

    def __post_init__(self) -> None:
        if self.channels not in (1, 3):
            raise DimensionError("images must have 1 or 3 channels")
        if self.pixels.shape != (self.height, self.width, self.channels):
            raise DimensionError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"({self.height}, {self.width}, {self.channels})")
        # Written so that a NaN, which compares false, fails it.
        if self.pixels.size and not (0.0 <= float(self.pixels.min())
                                     and float(self.pixels.max()) <= 1.0):
            raise ConfigError("pixel values must lie in [0, 1]")

    @classmethod
    def from_array(cls, pixels: np.ndarray) -> "ImageSample":
        pixels = np.ascontiguousarray(pixels, dtype=np.float64)
        if pixels.ndim == 2:
            pixels = pixels[:, :, None]
        h, w, ch = pixels.shape
        return cls(width=w, height=h, channels=ch, pixels=pixels)

    def to_tensor(self) -> Tensor:
        """Planar (ch, H, W) tensor view used by the diffusion model."""
        return Tensor(np.ascontiguousarray(self.pixels.transpose(2, 0, 1)))


@dataclass
class StyleSpec:
    """Parameters of one procedural style family."""

    family: str
    palette: list[tuple[float, float, float]]
    orientation: float = 0.0  # degrees
    scale: float = 4.0  # pixels per period / cell / blob radius
    jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in _RENDERERS:
            raise ConfigError(f"unknown style family: {self.family!r}")
        if not self.palette:
            raise ConfigError("palette must be non-empty")
        if self.scale < 1.0:
            raise ConfigError("scale must be at least 1 pixel")


def default_style_specs() -> dict[str, StyleSpec]:
    """One canonical spec per family, with well-separated palettes."""
    return {
        "stripes": StyleSpec("stripes", [(0.95, 0.85, 0.20), (0.20, 0.25, 0.60)],
                             orientation=35.0, scale=4.0),
        "blobs": StyleSpec("blobs", [(0.08, 0.10, 0.12), (0.90, 0.30, 0.20),
                                     (0.20, 0.80, 0.40), (0.30, 0.40, 0.95)],
                           scale=3.0),
        "checks": StyleSpec("checks", [(0.92, 0.92, 0.88), (0.15, 0.50, 0.20)],
                            scale=4.0),
        "waves": StyleSpec("waves", [(0.10, 0.20, 0.50), (0.70, 0.90, 0.95)],
                           orientation=110.0, scale=5.0),
    }


def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    return x, y


def _two_tone(spec: StyleSpec, t: np.ndarray) -> np.ndarray:
    c0 = np.asarray(spec.palette[0], dtype=np.float64)
    c1 = np.asarray(spec.palette[1 % len(spec.palette)], dtype=np.float64)
    return c0[None, None, :] + (c1 - c0)[None, None, :] * t[:, :, None]


def _render_stripes(spec: StyleSpec, size: int,
                    rng: np.random.Generator) -> np.ndarray:
    x, y = _grid(size)
    theta = math.radians(spec.orientation) + 0.15 * spec.jitter * rng.normal()
    phase = spec.jitter * rng.uniform(0.0, 1.0)
    u = (x * math.cos(theta) + y * math.sin(theta)) / spec.scale + phase
    band = 0.5 * (1.0 + np.tanh(3.0 * np.sin(2.0 * math.pi * u)))
    return _two_tone(spec, band)


def _render_waves(spec: StyleSpec, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    x, y = _grid(size)
    theta = math.radians(spec.orientation) + 0.1 * spec.jitter * rng.normal()
    phase = 2.0 * math.pi * spec.jitter * rng.uniform(0.0, 1.0)
    u = (x * math.cos(theta) + y * math.sin(theta)) / spec.scale
    v = (-x * math.sin(theta) + y * math.cos(theta)) / (spec.scale * 1.7)
    wobble = 0.6 * np.sin(2.0 * math.pi * v + phase)
    val = 0.5 + 0.5 * np.sin(2.0 * math.pi * u + wobble + phase)
    return _two_tone(spec, val)


def _render_checks(spec: StyleSpec, size: int,
                   rng: np.random.Generator) -> np.ndarray:
    x, y = _grid(size)
    ox = spec.jitter * rng.uniform(0.0, spec.scale)
    oy = spec.jitter * rng.uniform(0.0, spec.scale)
    parity = (np.floor((x + ox) / spec.scale)
              + np.floor((y + oy) / spec.scale)) % 2.0
    return _two_tone(spec, parity)


def _render_blobs(spec: StyleSpec, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    img = np.ones((size, size, 3)) * np.asarray(spec.palette[0])[None, None, :]
    x, y = _grid(size)
    # Base lattice keeps collections comparable; jitter perturbs it per image.
    anchors = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
    fg = spec.palette[1:] or [spec.palette[0]]
    for i, (ax, ay) in enumerate(anchors):
        cx = (ax + 0.35 * spec.jitter * rng.uniform(-1.0, 1.0)) * size
        cy = (ay + 0.35 * spec.jitter * rng.uniform(-1.0, 1.0)) * size
        radius = spec.scale * (1.0 + 0.5 * spec.jitter * rng.uniform(-1.0, 1.0))
        dist = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        mask = 1.0 / (1.0 + np.exp((dist - radius) / 0.75))
        color = np.asarray(fg[i % len(fg)])
        img = img * (1.0 - mask[:, :, None]) + color[None, None, :] * mask[:, :, None]
    return img


_RENDERERS = {
    "stripes": _render_stripes,
    "waves": _render_waves,
    "checks": _render_checks,
    "blobs": _render_blobs,
}


def _check_size(size: int, channels: int) -> None:
    """Refuse a generated image's side below 1, or one whose pixels, counted
    over every channel as ``read_ppm`` counts them, are over the array
    budget, before any array is made."""
    if size < 1:
        raise ConfigError(f"image size must be at least 1, got {size}")
    check_array_size(channels * size ** 2, f"a {size}x{size} image")


def gen_style_collection(spec: StyleSpec, count: int, size: int,
                         seed: int) -> list[ImageSample]:
    """Render ``count`` images sharing one family's statistics."""
    if count < 1:
        raise ConfigError("count must be at least 1")
    _check_size(size, 3)
    rng = seeding.rng(seed)
    render = _RENDERERS[spec.family]
    images = []
    for _ in range(count):
        pixels = np.clip(render(spec, size, rng), 0.0, 1.0)
        images.append(ImageSample.from_array(pixels))
    return images


def _render_gradient(size: int, rng: np.random.Generator,
                     channels: int) -> np.ndarray:
    x, _ = _grid(size)
    ramp = x / max(1, size - 1)
    offset = rng.uniform(0.0, 0.2)
    slopes = [0.8, 0.5, 0.65][:channels]
    offs = [offset, offset + 0.25, offset + 0.1][:channels]
    chans = [np.clip(o + s * ramp, 0.0, 1.0) for s, o in zip(slopes, offs)]
    return np.stack(chans, axis=-1)


def _render_shapes(size: int, rng: np.random.Generator,
                   channels: int) -> np.ndarray:
    x, y = _grid(size)
    bg = rng.uniform(0.15, 0.45)
    img = np.full((size, size, channels), bg)
    aa = 1.2  # anti-alias width in pixels
    for _ in range(int(rng.integers(2, 5))):
        color = rng.uniform(0.0, 1.0, size=channels)
        cx, cy = rng.uniform(0.15, 0.85, size=2) * size
        if rng.uniform() < 0.5:
            radius = rng.uniform(0.12, 0.3) * size
            sdf = radius - np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        else:
            hw = rng.uniform(0.1, 0.3) * size
            hh = rng.uniform(0.1, 0.3) * size
            sdf = np.minimum(hw - np.abs(x - cx), hh - np.abs(y - cy))
        alpha = np.clip(sdf / aa + 0.5, 0.0, 1.0)
        img = img * (1.0 - alpha[:, :, None]) + color[None, None, :] * alpha[:, :, None]
    return img


def _render_photo(size: int, rng: np.random.Generator,
                  channels: int) -> np.ndarray:
    x, y = _grid(size)
    chans = []
    for _ in range(channels):
        a1, b1 = rng.uniform(0.5, 2.0, size=2)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        f = (0.5
             + 0.22 * np.sin(2 * math.pi * a1 * x / size + p1)
             * np.cos(2 * math.pi * b1 * y / size + p2)
             + 0.18 * np.sin(2 * math.pi * (x + y) / size + p2))
        chans.append(np.clip(f, 0.05, 0.95))
    return np.stack(chans, axis=-1)


def gen_content_image(kind: str, size: int, seed: int,
                      channels: int = 3) -> ImageSample:
    """Render one deterministic content image of the requested kind."""
    if kind not in CONTENT_KINDS:
        raise ConfigError(f"unknown content kind: {kind!r}")
    if channels not in (1, 3):
        raise DimensionError("content images must have 1 or 3 channels")
    _check_size(size, channels)
    rng = seeding.rng(seed)
    render = {"gradient": _render_gradient, "shapes": _render_shapes,
              "photo": _render_photo}[kind]
    return ImageSample.from_array(np.clip(render(size, rng, channels), 0.0, 1.0))


def write_ppm(img: ImageSample, path) -> None:
    """Write binary P6 (RGB) or P5 (gray), maxval 255, canonical header."""
    magic = "P6" if img.channels == 3 else "P5"
    header = f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii")
    payload = np.rint(img.pixels * 255.0).clip(0, 255).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)


def _parse_header(raw: bytes) -> tuple[str, int, int, int, int]:
    """Return (magic, width, height, maxval, payload offset)."""
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        pos = re.compile(rb"(?:\s|#[^\r\n]*)*").match(raw, pos).end()  # blanks, #-comments
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedHeaderError("incomplete image header")
        fields.append(raw[start:pos])
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise MalformedHeaderError("missing whitespace after maxval")
    pos += 1  # single whitespace byte separates header from payload
    magic = fields[0].decode("ascii", errors="replace")
    try:
        # ASCII decimal digits only: int() would also take "+1" and "1_0".
        if not all(f.isdigit() for f in fields[1:]):
            raise ValueError
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:  # also int()'s limit on the digit count
        raise MalformedHeaderError("non-numeric header field") from None
    if width < 1 or height < 1:
        raise MalformedHeaderError("image dimensions must be positive")
    return magic, width, height, maxval, pos


def read_ppm(path) -> ImageSample:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 2:
        raise MalformedHeaderError("file too short for an image header")
    # The magic is a two-byte token: "P6x" is not a P6 file.
    magic = raw[:3].rstrip().decode("ascii", errors="replace")
    if magic in ("P3", "P2", "P1", "P4"):
        raise UnsupportedFormatError(f"unsupported image variant: {magic}")
    if magic not in ("P6", "P5"):
        raise MalformedHeaderError(f"not a PPM/PGM file: {magic!r}")
    magic, width, height, maxval, offset = _parse_header(raw)
    if maxval != 255:
        raise UnsupportedFormatError(f"unsupported maxval: {maxval}")
    channels = 3 if magic == "P6" else 1
    expected = width * height * channels
    check_array_size(expected, f"a {width}x{height} image", UnsupportedFormatError)
    payload = raw[offset:offset + expected]
    if len(payload) < expected:
        raise TruncatedFileError(
            f"payload has {len(payload)} bytes, expected {expected}")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return ImageSample(width=width, height=height, channels=channels,
                       pixels=pixels.reshape(height, width, channels))
