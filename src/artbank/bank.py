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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import container, seeding
from .attention import SsamParams, encoder, init_ssam_params
from .errors import (ArtBankError, ConfigError, DimensionError,
                     DuplicateStyleError, MalformedHeaderError, TemplateError,
                     UnknownStyleError)
from .tensor import Parameter, Tensor, check_array_size, concat_rows, transpose

PLACEHOLDER = "*"
DEFAULT_TEMPLATE = "a painting by {artist} *"
DEFAULT_CHANNELS = 64
DEFAULT_POSITIONS = 16
VOCAB_SEED = 97  # seeds the frozen token-embedding table; fixed, not a setting

BANK_MAGIC = b"ISPB"
BANK_VERSION = 1


@dataclass
class TokenEmbeddingSeq:
    """A tokenized prompt with its frozen embedding rows."""

    tokens: list[str]
    embeddings: np.ndarray  # (L, C)
    placeholder_index: int

    def __post_init__(self) -> None:
        pi = self.placeholder_index
        if self.embeddings.ndim != 2 or len(self.embeddings) != len(self.tokens):
            raise DimensionError("embeddings must be one row per token")
        if not (0 <= pi < len(self.tokens) and self.tokens[pi] == PLACEHOLDER):
            raise TemplateError(f"token {pi} of {self.tokens} is not the placeholder")


@dataclass
class StyleBankEntry:
    """One collection's trainable state: the style matrix, its attention
    encoder, and the prompt template it is trained under. Every rule of an
    entry is checked here, when it is built or loaded."""

    style_id: str
    artist: str
    template: str
    i_m: Parameter
    ssam: SsamParams

    def __post_init__(self) -> None:
        seeding.utf8(self.style_id, "style_id")
        check_prompt(self.template, self.artist)
        params = {"i_m": self.i_m, **vars(self.ssam)}
        shapes = {name: p.value.data.shape for name, p in params.items()}
        if len(shapes["i_m"]) != 2 or shapes != _entry_shapes(*shapes["i_m"]):
            raise DimensionError(f"parameter shapes {shapes} do not fit a C x N entry")
        if min(shapes["i_m"]) < 1:
            raise DimensionError(f"entry dimensions {shapes['i_m']} must be at least 1")

    @property
    def channels(self) -> int:
        return self.ssam.channels

    @property
    def positions(self) -> int:
        return self.ssam.positions


def check_prompt(template: str, artist: str) -> str:
    """The prompt ``template`` makes with ``artist`` put in. Refuse text that is
    not UTF-8, and a template or prompt without exactly one placeholder token."""
    seeding.utf8(template, "template")
    seeding.utf8(artist, "artist")
    prompt = template.replace("{artist}", artist)
    for what, text in (("template", template), ("prompt", prompt)):
        count = text.split().count(PLACEHOLDER)
        if count != 1:
            raise TemplateError(f"{what} must contain exactly one '{PLACEHOLDER}' "
                                f"token, found {count}: {text!r}")
    return prompt


@functools.lru_cache(maxsize=1024)
def _embedding_row(token_id: int, width: int) -> np.ndarray:
    """The token's frozen embedding row, read-only: callers share it."""
    rng = seeding.rng(seeding.hash_seed(VOCAB_SEED.to_bytes(8, "little")
                                        + token_id.to_bytes(8, "little")))
    row = rng.uniform(-1.0, 1.0, size=width) / np.sqrt(width)
    row.flags.writeable = False
    return row


def encode_prompt(template: str, artist: str,
                  width: int = DEFAULT_CHANNELS) -> TokenEmbeddingSeq:
    """Tokenize the prompt ``check_prompt`` builds and embed every token
    deterministically in ``width`` columns."""
    if width < 1:
        raise ConfigError(f"embedding width must be at least 1, got {width}")
    tokens = check_prompt(template, artist).split()
    check_array_size(len(tokens) * width, f"a {len(tokens)}x{width} prompt table")
    table = np.stack([_embedding_row(seeding.hash_seed(seeding.utf8(t, "token")),
                                     width) for t in tokens])
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


def check_entry_dim(name: str, size: int) -> None:
    """Refuse an entry's ``channels`` (C) or ``positions`` (N) below 1 or
    over the array budget; its C x N style matrix fits when C x C and N x N do."""
    if size < 1:
        raise ConfigError(f"entry {name} must be at least 1, got {size}")
    check_array_size(size ** 2, f"an entry with {name}={size}")


def create_entry(style_id: str, artist: str, channels: int = DEFAULT_CHANNELS,
                 positions: int = DEFAULT_POSITIONS, seed: int = 0,
                 template: str = DEFAULT_TEMPLATE) -> StyleBankEntry:
    """Deterministically initialize a fresh bank entry."""
    check_entry_dim("channels", channels)
    check_entry_dim("positions", positions)
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
            raise DuplicateStyleError(
                f"duplicate style id already present: {entry.style_id!r}")
        self._entries[entry.style_id] = entry

    def get(self, style_id: str) -> StyleBankEntry:
        try:
            return self._entries[style_id]
        except KeyError:
            raise UnknownStyleError(f"unknown style id: {style_id!r}") from None

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
            w.array(params[name].value.data, name)
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
        params = {name: Parameter(name, Tensor(rd.array(shape, name)))
                  for name, shape in _entry_shapes(c, n).items()}
        try:
            bank.add(StyleBankEntry(style_id, artist, template,
                                    params.pop("i_m"), SsamParams(**params)))
        except ArtBankError as exc:
            raise MalformedHeaderError(str(exc)) from None
    rd.finish()
    return bank
