"""The style prompt bank: trainable per-collection entries, prompt-template
embedding with placeholder substitution, condition assembly, and bit-exact
binary persistence.

A prompt template holds exactly one ``*`` placeholder token. Encoding
tokenizes on whitespace and looks each token up in a frozen hash-seeded
embedding table, so text rows are a deterministic context rather than a
learned encoder. A condition is the tensor of rows the denoiser
cross-attends over: the prompt's rows with the placeholder row replaced by
the columns of an encoded style matrix, or dropped when there is none.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import container, seeding
from .attention import SsamParams, check_style_matrix, encoder, init_ssam_params
from .errors import (ArtBankError, ConfigError, DimensionError,
                     DuplicateStyleError, MalformedHeaderError, TemplateError,
                     UnknownStyleError)
from .tensor import Parameter, Tensor, concat_rows, transpose

PLACEHOLDER = "*"
DEFAULT_TEMPLATE = "a painting by {artist} *"
DEFAULT_CHANNELS = 64
DEFAULT_POSITIONS = 16
VOCAB_SEED = 97  # seeds the frozen token-embedding table; fixed, not a setting
# The tape keeps several arrays of a model's largest size alive per step,
# so one such array may take only a fraction of a desk machine's memory.
MAX_ARRAY_BYTES = 1 << 28

BANK_MAGIC = b"ISPB"
BANK_VERSION = 1


@dataclass
class TokenEmbeddingSeq:
    """A tokenized prompt with its frozen embedding rows."""

    tokens: list[str]
    embeddings: np.ndarray  # (L, C)
    placeholder_index: int

    def __post_init__(self) -> None:
        if self.embeddings.shape[0] != len(self.tokens):
            raise DimensionError("embedding row count must equal token count")


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
        check_style_matrix(self.i_m.value, self.channels, self.positions)

    @property
    def channels(self) -> int:
        return self.ssam.channels

    @property
    def positions(self) -> int:
        return self.ssam.positions


def _validate_template(template: str,
                       error: type[ArtBankError] = TemplateError) -> list[str]:
    tokens = template.split()
    count = sum(1 for t in tokens if t == PLACEHOLDER)
    if count != 1:
        raise error(
            f"template must contain exactly one '{PLACEHOLDER}' token, "
            f"found {count}: {template!r}")
    return tokens


def _token_id(token: str) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@functools.lru_cache(maxsize=1024)
def _embedding_row(token_id: int, width: int) -> np.ndarray:
    """The token's frozen embedding row, read-only: callers share it."""
    mixed = hashlib.sha256(
        VOCAB_SEED.to_bytes(8, "little", signed=False)
        + token_id.to_bytes(8, "little", signed=False)).digest()
    rng = seeding.rng(int.from_bytes(mixed[:8], "little"))
    row = rng.uniform(-1.0, 1.0, size=width) / np.sqrt(width)
    row.flags.writeable = False
    return row


def encode_prompt(template: str, artist: str,
                  width: int = DEFAULT_CHANNELS) -> TokenEmbeddingSeq:
    """Tokenize a prompt template and embed every token deterministically."""
    text = template.replace("{artist}", artist)
    tokens = _validate_template(text)
    table = np.stack([_embedding_row(_token_id(t), width) for t in tokens])
    return TokenEmbeddingSeq(tokens=tokens, embeddings=table,
                             placeholder_index=tokens.index(PLACEHOLDER))


def assemble_condition(seq: TokenEmbeddingSeq,
                       v_m: Tensor | None) -> Tensor | None:
    """The condition rows the denoiser cross-attends over (L' x C).

    With a style matrix present, the placeholder row is replaced by the N
    columns of ``v_m`` (as N rows of width C); without one the placeholder
    row is dropped and only text rows remain, or ``None`` (the empty
    condition) when the template is the bare placeholder.
    """
    pi = seq.placeholder_index
    before, after = seq.embeddings[:pi], seq.embeddings[pi + 1:]
    if v_m is None:
        text = np.concatenate([before, after])
        return Tensor(text) if len(text) else None
    if v_m.data.ndim != 2 or v_m.data.shape[0] != seq.embeddings.shape[1]:
        raise DimensionError(
            f"style block width {v_m.data.shape} does not match embedding "
            f"width {seq.embeddings.shape[1]}")
    return concat_rows([Tensor(before), transpose(v_m), Tensor(after)])


def entry_condition(entry: StyleBankEntry, variant: str = "ssam", seed: int = 0
                    ) -> tuple[list[Parameter], Callable[[], Tensor]]:
    """The one condition builder of training, the probe and stylization: the
    parameters a ``variant`` encoder built for ``seed`` trains, and a closure
    that encodes their current values into the entry's prompt rows."""
    params, encode = encoder(variant, entry.i_m, entry.ssam, seed)
    seq = encode_prompt(entry.template, entry.artist, entry.channels)
    return params, lambda: assemble_condition(seq, encode())


def check_array_size(values: int, what: str,
                     error: type[ArtBankError] = ConfigError) -> None:
    """Refuse ``what`` if its largest float64 array, ``values`` long, is
    over ``MAX_ARRAY_BYTES``."""
    if 8 * values > MAX_ARRAY_BYTES:
        raise error(f"{what} needs a {8 * values / 2**30:.1f} GiB array; the "
                    f"limit is {MAX_ARRAY_BYTES / 2**20:g} MiB per array")


def check_entry_size(channels: int, positions: int) -> None:
    """Refuse entry dimensions below 1 or over the array budget."""
    if channels < 1 or positions < 1:
        raise ConfigError("entry dimensions must be positive")
    # The attention map is N x N, the projections C x C and the style matrix C x N.
    check_array_size(max(channels, positions) ** 2,
                     f"an entry with channels={channels} and positions={positions}")


def create_entry(style_id: str, artist: str, channels: int = DEFAULT_CHANNELS,
                 positions: int = DEFAULT_POSITIONS, seed: int = 0,
                 template: str = DEFAULT_TEMPLATE) -> StyleBankEntry:
    """Deterministically initialize a fresh bank entry."""
    check_entry_size(channels, positions)
    rng = seeding.rng(seed)
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


def _entry_shapes(c: int, n: int) -> dict[str, tuple[int, ...]]:
    """Each entry parameter's shape, in file order, for C x N entries."""
    return {"i_m": (c, n), "w_q": (c, c), "w_k": (c, c), "w_v": (c, c),
            "w_col": (n, 1), "w_row": (1, n), "alpha": ()}


def bank_bytes(bank: StyleBank) -> bytes:
    """Serialize a bank; each entry's payload is its ``_entry_shapes``
    arrays as consecutive little-endian float64 arrays."""
    w = container.Writer(BANK_MAGIC, BANK_VERSION)
    w.u32(len(bank))
    for e in bank.entries():
        w.string(e.style_id)
        w.string(e.artist)
        w.string(e.template)
        w.u32(e.channels, e.positions)
        params = {"i_m": e.i_m, **vars(e.ssam)}
        for name in _entry_shapes(e.channels, e.positions):
            w.array(params[name].value.data)
    return w.getvalue()


def save_bank(bank: StyleBank, path) -> None:
    Path(path).write_bytes(bank_bytes(bank))


def load_bank(path) -> StyleBank:
    rd = container.Reader(Path(path).read_bytes(), BANK_MAGIC, BANK_VERSION,
                          "bank")
    bank = StyleBank()
    for _ in range(rd.u32("entry count")):
        style_id, artist, template = (
            rd.string(what) for what in ("style_id", "artist", "template"))
        c, n = rd.u32("channels"), rd.u32("positions")
        if style_id in bank:
            raise MalformedHeaderError(f"duplicate style id: {style_id!r}")
        _validate_template(template, MalformedHeaderError)
        if c < 1 or n < 1:
            raise MalformedHeaderError(
                f"entry {style_id!r} has dimensions ({c}, {n})")
        params = {name: Parameter(name, Tensor(rd.array(shape, name)))
                  for name, shape in _entry_shapes(c, n).items()}
        bank.add(StyleBankEntry(style_id, artist, template, params.pop("i_m"),
                                SsamParams(**params)))
    rd.finish()
    return bank
