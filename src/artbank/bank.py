"""The style prompt bank: trainable per-collection entries, prompt-template
embedding with placeholder substitution, condition assembly, and bit-exact
binary persistence.

A prompt template holds exactly one ``*`` placeholder token. Encoding
tokenizes on whitespace and looks each token up in a frozen hash-seeded
embedding table, so text rows are a deterministic context rather than a
learned encoder. Assembling a condition replaces the placeholder row with
the columns of an encoded style matrix.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .attention import SsamParams, init_ssam_params
from .errors import (BadMagicError, ConfigError, DimensionError,
                     DuplicateStyleError, FormatError, MalformedHeaderError,
                     TemplateError, TruncatedFileError, UnknownStyleError,
                     VersionMismatchError)
from .tensor import Parameter, Tensor, concat_rows, transpose

PLACEHOLDER = "*"
DEFAULT_TEMPLATE = "a painting by {artist} *"
DEFAULT_CHANNELS = 64
DEFAULT_POSITIONS = 16
DEFAULT_VOCAB_SEED = 97

BANK_MAGIC = b"ISPB"
BANK_VERSION = 1


@dataclass
class TokenEmbeddingSeq:
    """A tokenized prompt with its frozen embedding rows."""

    tokens: list[str]
    token_ids: list[int]
    embeddings: np.ndarray  # (L, C)
    placeholder_index: int | None

    def __post_init__(self) -> None:
        if self.embeddings.shape[0] != len(self.tokens):
            raise DimensionError("embedding row count must equal token count")


@dataclass
class ConditionVector:
    """Token-embedding sequence consumed by the denoiser's cross-attention.

    ``embeddings`` is None for the degenerate empty condition (a bare
    placeholder template assembled without a style block).
    """

    embeddings: Tensor | None
    provenance: list[str]

    def __post_init__(self) -> None:
        n_rows = 0 if self.embeddings is None else self.embeddings.data.shape[0]
        if n_rows != len(self.provenance):
            raise DimensionError("provenance must tag every embedding row")

    def style_block(self) -> np.ndarray:
        """The style-tagged rows (N x C), empty if no style was applied."""
        if self.embeddings is None:
            return np.zeros((0, 0))
        rows = [i for i, tag in enumerate(self.provenance) if tag == "style"]
        return self.embeddings.data[rows]


@dataclass
class StyleBankEntry:
    """One collection's trainable state: the style matrix, its attention
    encoder, and the prompt template it is trained under."""

    style_id: str
    artist: str
    template: str
    i_m: Parameter
    ssam: SsamParams

    def __post_init__(self) -> None:
        _validate_template(self.template)
        c, n = self.ssam.channels, self.ssam.positions
        if self.i_m.value.data.shape != (c, n):
            raise DimensionError(
                f"style matrix shape {self.i_m.value.data.shape} does not "
                f"match encoder dims ({c}, {n})")

    @property
    def channels(self) -> int:
        return self.ssam.channels

    @property
    def positions(self) -> int:
        return self.ssam.positions

    def trainable_params(self) -> list[Parameter]:
        return [self.i_m] + self.ssam.all_params()


def _validate_template(template: str) -> list[str]:
    tokens = template.split()
    count = sum(1 for t in tokens if t == PLACEHOLDER)
    if count != 1:
        raise TemplateError(
            f"template must contain exactly one '{PLACEHOLDER}' token, "
            f"found {count}: {template!r}")
    return tokens


def _token_id(token: str) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _embedding_row(token_id: int, vocab_seed: int, width: int) -> np.ndarray:
    mixed = hashlib.sha256(
        vocab_seed.to_bytes(8, "little", signed=False)
        + token_id.to_bytes(8, "little", signed=False)).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(mixed[:8], "little")))
    return rng.uniform(-1.0, 1.0, size=width) / np.sqrt(width)


def encode_prompt(template: str, artist: str, vocab_seed: int = DEFAULT_VOCAB_SEED,
                  width: int = DEFAULT_CHANNELS) -> TokenEmbeddingSeq:
    """Tokenize a prompt template and embed every token deterministically."""
    text = template.replace("{artist}", artist)
    tokens = _validate_template(text)
    ids = [_token_id(t) for t in tokens]
    table = np.stack([_embedding_row(i, vocab_seed, width) for i in ids])
    return TokenEmbeddingSeq(
        tokens=tokens,
        token_ids=ids,
        embeddings=table,
        placeholder_index=tokens.index(PLACEHOLDER),
    )


def assemble_condition(seq: TokenEmbeddingSeq,
                       v_m: Tensor | None) -> ConditionVector:
    """Splice a style block into the placeholder slot of an encoded prompt.

    With a style matrix present, the placeholder row is replaced by the N
    columns of ``v_m`` (as N rows of width C); without one the placeholder
    row is dropped and only text rows remain.
    """
    n_tokens = len(seq.tokens)
    pi = seq.placeholder_index
    if v_m is None:
        keep = [i for i in range(n_tokens) if i != pi]
        if not keep:
            return ConditionVector(embeddings=None, provenance=[])
        return ConditionVector(
            embeddings=Tensor(seq.embeddings[keep]),
            provenance=["text"] * len(keep),
        )
    if pi is None:
        raise TemplateError("cannot splice a style block: no placeholder")
    if v_m.data.ndim != 2 or v_m.data.shape[0] != seq.embeddings.shape[1]:
        raise DimensionError(
            f"style block width {v_m.data.shape} does not match embedding "
            f"width {seq.embeddings.shape[1]}")
    parts: list[Tensor] = []
    provenance: list[str] = []
    if pi > 0:
        parts.append(Tensor(seq.embeddings[:pi]))
        provenance += ["text"] * pi
    parts.append(transpose(v_m))
    provenance += ["style"] * v_m.data.shape[1]
    if pi < n_tokens - 1:
        parts.append(Tensor(seq.embeddings[pi + 1:]))
        provenance += ["text"] * (n_tokens - 1 - pi)
    return ConditionVector(embeddings=concat_rows(parts), provenance=provenance)


def create_entry(style_id: str, artist: str, channels: int = DEFAULT_CHANNELS,
                 positions: int = DEFAULT_POSITIONS, seed: int = 0,
                 template: str = DEFAULT_TEMPLATE) -> StyleBankEntry:
    """Deterministically initialize a fresh bank entry."""
    if channels < 1 or positions < 1:
        raise ConfigError("entry dimensions must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    i_m = Parameter("i_m", Tensor(rng.normal(0.0, 0.02,
                                             size=(channels, positions))))
    ssam = init_ssam_params(channels, positions, rng)
    return StyleBankEntry(style_id=style_id, artist=artist, template=template,
                          i_m=i_m, ssam=ssam)


class StyleBank:
    """Insertion-ordered registry of style entries with unique ids."""

    def __init__(self) -> None:
        self._entries: dict[str, StyleBankEntry] = {}

    def add(self, entry: StyleBankEntry) -> None:
        if entry.style_id in self._entries:
            raise DuplicateStyleError(f"style id already present: {entry.style_id!r}")
        self._entries[entry.style_id] = entry

    def get(self, style_id: str) -> StyleBankEntry:
        try:
            return self._entries[style_id]
        except KeyError:
            raise UnknownStyleError(f"unknown style id: {style_id!r}") from None

    def __contains__(self, style_id: str) -> bool:
        return style_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[StyleBankEntry]:
        return list(self._entries.values())


def _write_str(buf: io.BytesIO, text: str) -> None:
    raw = text.encode("utf-8")
    buf.write(struct.pack("<I", len(raw)))
    buf.write(raw)


def _write_array(buf: io.BytesIO, arr: np.ndarray) -> None:
    buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def bank_bytes(bank: StyleBank) -> bytes:
    """Serialize a bank; entry payload order is i_m, w_q, w_k, w_v, w_col,
    w_row, alpha as consecutive little-endian float64 arrays."""
    buf = io.BytesIO()
    buf.write(BANK_MAGIC)
    buf.write(struct.pack("<H", BANK_VERSION))
    buf.write(struct.pack("<I", len(bank)))
    for e in bank.entries():
        _write_str(buf, e.style_id)
        _write_str(buf, e.artist)
        _write_str(buf, e.template)
        c, n = e.channels, e.positions
        buf.write(struct.pack("<II", c, n))
        _write_array(buf, e.i_m.value.data)
        _write_array(buf, e.ssam.w_q.value.data)
        _write_array(buf, e.ssam.w_k.value.data)
        _write_array(buf, e.ssam.w_v.value.data)
        _write_array(buf, e.ssam.w_col.value.data)
        _write_array(buf, e.ssam.w_row.value.data)
        _write_array(buf, e.ssam.alpha.value.data.reshape(1))
    return buf.getvalue()


def save_bank(bank: StyleBank, path) -> None:
    with open(path, "wb") as fh:
        fh.write(bank_bytes(bank))


class _Reader:
    def __init__(self, raw: bytes):
        self._raw = raw
        self._pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self._pos + n > len(self._raw):
            raise TruncatedFileError(f"file ended while reading {what}")
        chunk = self._raw[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def string(self, what: str) -> str:
        raw = self.take(self.u32(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedHeaderError(f"{what} is not valid UTF-8") from None

    def f64(self, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(8 * count, what), dtype="<f8").astype(
            np.float64)

    def finish(self) -> None:
        extra = len(self._raw) - self._pos
        if extra:
            raise FormatError(f"{extra} trailing bytes after the payload")


def load_bank(path) -> StyleBank:
    with open(path, "rb") as fh:
        raw = fh.read()
    rd = _Reader(raw)
    if rd.take(4, "magic") != BANK_MAGIC:
        raise BadMagicError("not a style bank file (bad magic)")
    version = rd.u16("version")
    if version != BANK_VERSION:
        raise VersionMismatchError(f"unsupported bank version: {version}")
    bank = StyleBank()
    for _ in range(rd.u32("entry count")):
        style_id = rd.string("style_id")
        artist = rd.string("artist")
        template = rd.string("template")
        c = rd.u32("channels")
        n = rd.u32("positions")
        i_m = rd.f64(c * n, "i_m").reshape(c, n)
        w_q = rd.f64(c * c, "w_q").reshape(c, c)
        w_k = rd.f64(c * c, "w_k").reshape(c, c)
        w_v = rd.f64(c * c, "w_v").reshape(c, c)
        w_col = rd.f64(n, "w_col").reshape(n, 1)
        w_row = rd.f64(n, "w_row").reshape(1, n)
        alpha = rd.f64(1, "alpha").reshape(())
        ssam = SsamParams(
            w_q=Parameter("w_q", Tensor(w_q)),
            w_k=Parameter("w_k", Tensor(w_k)),
            w_v=Parameter("w_v", Tensor(w_v)),
            w_col=Parameter("w_col", Tensor(w_col)),
            w_row=Parameter("w_row", Tensor(w_row)),
            alpha=Parameter("alpha", Tensor(alpha)),
        )
        bank.add(StyleBankEntry(style_id=style_id, artist=artist,
                                template=template,
                                i_m=Parameter("i_m", Tensor(i_m)), ssam=ssam))
    rd.finish()
    return bank
