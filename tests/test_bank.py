"""Prompt encoding, condition assembly, and bank persistence."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artbank.attention import ssam_forward
from artbank.bank import (BANK_MAGIC, StyleBank, assemble_condition,
                          bank_bytes, create_entry, encode_prompt, load_bank,
                          save_bank)
from artbank.diffusion import Denoiser, checkpoint_bytes, load_checkpoint
from artbank.errors import (BadMagicError, ConfigError, DimensionError,
                            DuplicateStyleError, FormatError,
                            MalformedHeaderError, TemplateError,
                            TruncatedFileError, UnknownStyleError,
                            VersionMismatchError)
from artbank.tensor import Tensor, mean_all


def raw_bank(*entries):
    """Version-1 bank bytes built by hand, one (style_id, template, c, n,
    fill) tuple per entry, every payload value equal to ``fill``."""
    out = BANK_MAGIC + struct.pack("<HI", 1, len(entries))
    for style_id, template, c, n, fill in entries:
        for text in (style_id, "artist", template):
            raw = text.encode("utf-8")
            out += struct.pack("<I", len(raw)) + raw
        out += struct.pack("<II", c, n)
        out += np.full(c * n + 3 * c * c + 2 * n + 1, fill, "<f8").tobytes()
    return out


class TestEncodePrompt:
    def test_token_count_and_placeholder_position(self):
        seq = encode_prompt("a painting by {artist} *", "Van Gogh")
        assert seq.tokens == ["a", "painting", "by", "Van", "Gogh", "*"]
        assert seq.placeholder_index == 5
        assert seq.embeddings.shape == (6, 64)

    def test_deterministic(self):
        a = encode_prompt("a painting by {artist} *", "Van Gogh", 7, 16)
        b = encode_prompt("a painting by {artist} *", "Van Gogh", 7, 16)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert a.tokens == b.tokens

    def test_artists_differ_only_at_artist_rows(self):
        a = encode_prompt("a painting by {artist} *", "Monet", 7, 16)
        b = encode_prompt("a painting by {artist} *", "Manet", 7, 16)
        same = [0, 1, 2, 4]  # 'a painting by', '*'
        for i in same:
            assert np.array_equal(a.embeddings[i], b.embeddings[i])
        assert not np.array_equal(a.embeddings[3], b.embeddings[3])

    def test_vocab_seed_changes_table(self):
        a = encode_prompt("a painting by {artist} *", "Monet", 7, 16)
        b = encode_prompt("a painting by {artist} *", "Monet", 8, 16)
        assert not np.array_equal(a.embeddings, b.embeddings)

    def test_vocab_seed_range(self):
        # The vocab seed is hashed as an unsigned 64-bit integer.
        encode_prompt("a *", "x", 0, 4)
        encode_prompt("a *", "x", 2**64 - 1, 4)
        for bad in (-1, 2**64):
            with pytest.raises(ConfigError, match="vocab_seed"):
                encode_prompt("a *", "x", bad, 4)

    def test_placeholder_count_errors(self):
        with pytest.raises(TemplateError):
            encode_prompt("no placeholder here", "x")
        with pytest.raises(TemplateError):
            encode_prompt("two * stars *", "x")

    def test_embedding_scale(self):
        seq = encode_prompt("a painting by {artist} *", "Monet", 7, 64)
        assert np.all(np.abs(seq.embeddings) <= 1.0 / 8.0)


class TestAssembleCondition:
    @pytest.mark.parametrize("template, before, after", [
        ("* by {artist}", 0, 3),
        ("a painting * by {artist}", 2, 3),
        ("*", 0, 0),
    ], ids=["first", "middle", "alone"])
    def test_splices_style_rows_at_placeholder(self, template, before, after):
        seq = encode_prompt(template, "Van Gogh", 7, 8)
        assert seq.placeholder_index == before
        v_m = Tensor(np.random.default_rng(0).normal(size=(8, 4)),
                     requires_grad=True)
        cond = assemble_condition(seq, v_m)
        spliced = np.concatenate([seq.embeddings[:before], v_m.data.T,
                                  seq.embeddings[before + 1:]])
        assert cond.data.shape == (before + 4 + after, 8)
        np.testing.assert_array_equal(cond.data, spliced)
        mean_all(cond * cond).backward()
        np.testing.assert_allclose(v_m.grad, 2.0 * v_m.data / cond.data.size,
                                   rtol=1e-12)

    def test_row_arithmetic_and_tags(self):
        # Text rows before the placeholder, then the style rows, in place.
        seq = encode_prompt("a painting by {artist} *", "Van Gogh", 7, 8)
        v_m = Tensor(np.random.default_rng(0).normal(size=(8, 4)))
        cond = assemble_condition(seq, v_m)
        assert cond.data.shape == (9, 8)
        np.testing.assert_array_equal(cond.data[:5], seq.embeddings[:5])
        np.testing.assert_array_equal(cond.data[5:], v_m.data.T)

    def test_gradient_flows_into_style_block(self):
        seq = encode_prompt("a painting *", "X", 7, 4)
        v_m = Tensor(np.random.default_rng(2).normal(size=(4, 2)),
                     requires_grad=True)
        cond = assemble_condition(seq, v_m)
        mean_all(cond * cond).backward()
        assert v_m.grad.shape == (4, 2)
        np.testing.assert_allclose(v_m.grad, 2.0 * v_m.data / cond.data.size,
                                   rtol=1e-12)

    def test_without_style_drops_placeholder(self):
        seq = encode_prompt("a painting by {artist} *", "Van Gogh", 7, 8)
        cond = assemble_condition(seq, None)
        assert cond.data.shape == (5, 8)
        np.testing.assert_array_equal(cond.data, seq.embeddings[:5])

    def test_bare_placeholder_without_style_is_empty(self):
        seq = encode_prompt("*", "X", 7, 6)
        assert assemble_condition(seq, None) is None

    def test_width_mismatch(self):
        seq = encode_prompt("a *", "X", 7, 6)
        with pytest.raises(DimensionError):
            assemble_condition(seq, Tensor(np.zeros((5, 3))))


class TestCreateEntry:
    def test_same_seed_identical(self):
        a = create_entry("s", "artist", 8, 4, seed=5)
        b = create_entry("s", "artist", 8, 4, seed=5)
        assert np.array_equal(a.i_m.value.data, b.i_m.value.data)
        assert np.array_equal(a.ssam.w_q.value.data, b.ssam.w_q.value.data)

    def test_different_seeds_differ(self):
        a = create_entry("s", "artist", 8, 4, seed=5)
        b = create_entry("s", "artist", 8, 4, seed=6)
        assert not np.array_equal(a.i_m.value.data, b.i_m.value.data)

    def test_default_dims(self):
        e = create_entry("s", "artist")
        assert e.i_m.value.data.shape == (64, 16)
        assert e.ssam.w_col.value.data.shape == (16, 1)

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            create_entry("s", "a", 0, 4)

    def test_bad_template_rejected(self):
        with pytest.raises(TemplateError):
            create_entry("s", "a", 4, 2, template="no placeholder")

    def test_encoding_is_deterministic_function_of_entry(self):
        e = create_entry("s", "Van Gogh", 8, 4, seed=3)
        seq = encode_prompt(e.template, e.artist, 7, 8)

        def build():
            return assemble_condition(seq, ssam_forward(e.i_m.value, e.ssam))

        a, b = build(), build()
        assert np.array_equal(a.data, b.data)


class TestStyleBank:
    def test_duplicate_rejected(self):
        bank = StyleBank()
        bank.add(create_entry("dup", "a", 4, 2))
        with pytest.raises(DuplicateStyleError):
            bank.add(create_entry("dup", "a", 4, 2))

    def test_unknown_id(self):
        bank = StyleBank()
        with pytest.raises(UnknownStyleError, match="nope"):
            bank.get("nope")


def entries_equal(a, b) -> bool:
    if (a.style_id, a.artist, a.template) != (b.style_id, b.artist, b.template):
        return False
    pairs = [(a.i_m, b.i_m)] + list(zip(a.ssam.all_params(), b.ssam.all_params()))
    return all(np.array_equal(x.value.data, y.value.data) for x, y in pairs)


class TestPersistence:
    def test_empty_bank_round_trips(self, tmp_path):
        path = tmp_path / "empty.ispb"
        save_bank(StyleBank(), path)
        assert len(load_bank(path)) == 0
        save_bank(load_bank(path), tmp_path / "empty2.ispb")
        assert (tmp_path / "empty.ispb").read_bytes() == \
            (tmp_path / "empty2.ispb").read_bytes()

    def test_three_entry_bank_bit_exact(self, tmp_path):
        bank = StyleBank()
        for i, (c, n) in enumerate([(4, 2), (8, 4), (3, 7)]):
            bank.add(create_entry(f"style-{i}", f"artist {i}", c, n, seed=i))
        path = tmp_path / "bank.ispb"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert len(loaded) == 3
        for a, b in zip(bank.entries(), loaded.entries()):
            assert entries_equal(a, b)
        assert bank_bytes(loaded) == path.read_bytes()

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.ispb"
        save_bank(StyleBank(), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_bank(path)
        path.write_bytes(b"XY")
        with pytest.raises(BadMagicError):
            load_bank(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ver.ispb"
        save_bank(StyleBank(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_bank(path)

    def test_truncation(self, tmp_path):
        bank = StyleBank()
        bank.add(create_entry("s", "a", 4, 2))
        path = tmp_path / "trunc.ispb"
        save_bank(bank, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            load_bank(path)
        (tmp_path / "tiny.ispb").write_bytes(BANK_MAGIC[:2])
        with pytest.raises(TruncatedFileError):
            load_bank(tmp_path / "tiny.ispb")

    def test_invalid_utf8_string(self, tmp_path):
        bank = StyleBank()
        bank.add(create_entry("s", "a", 4, 2))
        raw = bytearray(bank_bytes(bank))
        raw[14] = 0xFF  # first style id byte, after magic, version, count, length
        path = tmp_path / "utf8.ispb"
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeaderError, match="style_id"):
            load_bank(path)

    def test_trailing_bytes(self, tmp_path):
        bank = StyleBank()
        bank.add(create_entry("s", "a", 4, 2))
        path = tmp_path / "junk.ispb"
        path.write_bytes(bank_bytes(bank) + b"junk")
        with pytest.raises(FormatError, match="4 trailing bytes"):
            load_bank(path)

    def test_hand_built_bank_loads(self, tmp_path):
        path = tmp_path / "hand.ispb"
        path.write_bytes(raw_bank(("s", "a *", 2, 3, 0.5)))
        (entry,) = load_bank(path).entries()
        assert (entry.channels, entry.positions) == (2, 3)
        assert entry.template == "a *"
        assert all(np.all(p.value.data == 0.5) for p in entry.trainable_params())

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "inf.ispb"
        for fill in (np.inf, np.nan):
            path.write_bytes(raw_bank(("s", "*", 2, 3, fill)))
            with pytest.raises(FormatError, match="i_m holds a non-finite"):
                load_bank(path)

    def test_template_without_placeholder(self, tmp_path):
        path = tmp_path / "tmpl.ispb"
        path.write_bytes(raw_bank(("s", "a painting", 2, 3, 0.0)))
        with pytest.raises(MalformedHeaderError, match="exactly one"):
            load_bank(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.ispb"
        path.write_bytes(raw_bank(("s", "*", 2, 3, 0.0), ("s", "*", 2, 3, 0.0)))
        with pytest.raises(MalformedHeaderError, match="duplicate"):
            load_bank(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.ispb"
        for c, n in ((0, 3), (2, 0)):
            path.write_bytes(raw_bank(("s", "*", c, n, 0.0)))
            with pytest.raises(MalformedHeaderError, match="dimensions"):
                load_bank(path)

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 2**31),
        style_id=st.text(min_size=1, max_size=12),
        artist=st.text(max_size=12),
    )
    def test_random_entries_round_trip(self, tmp_path_factory, c, n, seed,
                                       style_id, artist):
        bank = StyleBank()
        bank.add(create_entry(style_id, artist, c, n, seed=seed))
        path = tmp_path_factory.mktemp("banks") / "b.ispb"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert entries_equal(bank.entries()[0], loaded.entries()[0])

    def test_independent_entries_untouched_by_mutating_one(self):
        # Entries share no arrays: mutating one leaves the other's bytes alone.
        bank = StyleBank()
        e1 = create_entry("one", "a", 4, 2, seed=1)
        e2 = create_entry("two", "a", 4, 2, seed=2)
        bank.add(e1)
        bank.add(e2)

        def solo_bytes(entry):
            solo = StyleBank()
            solo.add(entry)
            return bank_bytes(solo)

        e2_before = solo_bytes(e2)
        whole_before = bank_bytes(bank)
        e1.i_m.value.data += 1.0  # stand-in for a training update
        assert bank_bytes(bank) != whole_before
        assert solo_bytes(e2) == e2_before


def _mutate(raw: bytes, data) -> bytes:
    """One truncation, byte overwrite or append, drawn by hypothesis."""
    kind = data.draw(st.sampled_from(["truncate", "overwrite", "append"]))
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if kind == "overwrite":
        pos = data.draw(st.integers(0, len(raw) - 1))
        return raw[:pos] + bytes([data.draw(st.integers(0, 255))]) + raw[pos + 1:]
    return raw + data.draw(st.binary(min_size=1, max_size=16))


class TestCorruptFiles:
    """A damaged file either loads with finite values or raises a
    ``FormatError`` subclass; no other exception may escape a loader."""

    BANK = raw_bank(("one", "a painting by {artist} *", 3, 2, 0.25),
                    ("two", "*", 2, 2, -1.5))
    CHECKPOINT = checkpoint_bytes(Denoiser(1, 2, 1, seed=0))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bank(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "b.ispb"
        path.write_bytes(_mutate(self.BANK, data))
        try:
            bank = load_bank(path)
        except FormatError:
            return
        for entry in bank.entries():
            assert all(np.isfinite(p.value.data).all()
                       for p in entry.trainable_params())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_checkpoint(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "d.abdn"
        path.write_bytes(_mutate(self.CHECKPOINT, data))
        try:
            d = load_checkpoint(path)
        except FormatError:
            return
        assert all(np.isfinite(p.value.data).all() for p in d.parameters())
