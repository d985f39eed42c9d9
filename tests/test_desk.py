"""The desk rig's determinism, and the scripts under ``scripts/``."""

import hashlib
import importlib.util
import io
import re
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from artbank import desk
from artbank.bank import bank_bytes, create_entry
from artbank.cli import run
from artbank.data_io import default_style_specs, gen_content_image
from artbank.desk import contents
from artbank.diffusion import checkpoint_bytes, ispb_eval_loss
from artbank.inversion import stylize
from artbank.metrics import gram_style_score, signature_of

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_builds_are_byte_identical():
    a = desk.build(pretrain_steps=3, entry_steps=2)
    b = desk.build(pretrain_steps=3, entry_steps=2)
    assert checkpoint_bytes(a.backbone) == checkpoint_bytes(b.backbone)
    assert bank_bytes(a.bank) == bank_bytes(b.bank)
    assert [e.style_id for e in a.bank.entries()] == [
        desk.TARGET_STYLE_ID, f"{desk.TARGET_STYLE_ID}-droptext"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_fixture_artifacts_pinned(desk):
    """The session rig's checkpoint, bank and stylized pixels, by SHA-256.

    The values hold for numpy 2.4.6 with the scipy-openblas 0.3.31 BLAS on
    x86-64; another numpy or BLAS build may round differently. Identical
    seeds must give byte-identical artifacts (ROADMAP), so a change that
    moves any of these values must say so and pin the new ones.
    """
    assert _sha256(checkpoint_bytes(desk.backbone)) == (
        "5bc8c6b5016a61fe8021ed3aa6b74a120a71db929926aab328fdeac21b5fc7cf")
    assert _sha256(bank_bytes(desk.bank)) == (
        "47ffd0c6d1ef7b730a649ad0c5c38acdf6fa5780fad739717e98e9ce4b2ba8c8")
    [(content, cfg)] = contents(1)
    stylized = {
        (style_id, inverted): _sha256(stylize(
            desk.backbone, desk.sched, desk.bank, style_id, content, cfg,
            use_inversion=inverted).pixels.tobytes())
        for style_id in ("rosetta", "rosetta-droptext")
        for inverted in (True, False)}
    assert stylized == {
        ("rosetta", True):
            "41a2d39aed9a4954a1018b8cf51678124a9d3d0903074074d8d835601a667e32",
        ("rosetta", False):
            "cac84033daee7dd925c44ffb0c9778d4d6d84c254837886fc45255e761cf1a85",
        ("rosetta-droptext", True):
            "07e075ee64de560023bb376ae40faff6ccecee7515b2dbc2ec6e3a956d48cd88",
        ("rosetta-droptext", False):
            "0812351ecab00cd9096906a353cfc71bac552436b21e3460a0e25bf27ac8d4d8",
    }


def test_probe_and_gram_values_pinned(desk):
    """The probe loss of each encoder and the Gram signature and scores on
    the session rig, bit for bit.

    Like ``test_fixture_artifacts_pinned``, the values hold for numpy 2.4.6
    with the scipy-openblas 0.3.31 BLAS on x86-64.
    """
    probe = {variant: ispb_eval_loss(
        desk.backbone, create_entry("probe", "x", 64, 16, seed=8),
        desk.style_collection, desk.sched, seed=0, variant=variant).hex()
        for variant in ("ssam", "adaattn", "sanet")}
    assert probe == {"ssam": "0x1.0e83133cc93d6p-2",
                     "adaattn": "0x1.0e83133cc93d6p-2",
                     "sanet": "0x1.0c1132899c252p-2"}
    signature = signature_of(desk.style_collection)
    assert _sha256(signature.tobytes()) == (
        "97ef9c177d7940a76cfc562b0e5fc010f1deca47d1edc72077d3c001c7fe8c73")
    [(content, _)] = contents(1)
    gray = gen_content_image("shapes", 9, seed=4, channels=1)
    assert [gram_style_score(img, signature).value.hex()
            for img in (content, gray)] == [
        "0x1.926ee0462d773p-1", "0x1.a7662fe8521c8p-1"]


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """One tiny run of ``scripts/reproduce.py``: the ``desk.build`` calls it
    made, its stdout lines and its CSV path."""
    builds, build, stdout = [], desk.build, io.StringIO()
    out = tmp_path_factory.mktemp("reproduce") / "conv.csv"
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout):
        mp.setattr(desk, "build", lambda *a: builds.append(a) or build(*a))
        _script("reproduce").main(
            ["--pretrain-steps", "2", "--entry-steps", "2", "--max-iters",
             "100", "--seeds", "3", "--n-content", "2", "--out", str(out)])
    return builds, stdout.getvalue().splitlines(), out


def test_convergence_script_runs(reproduced):
    builds, lines, out = reproduced
    assert builds == [(desk.ROOT_SEED, 2, 2)]
    assert [line.split()[0] for line in lines[1:4]] == ["ssam", "sanet", "adaattn"]
    assert lines[4] == f"csv -> {out}"
    assert len(out.read_text().splitlines()) == 1 + 3 * 3
    # The convergence part closes with bench-attn's line (``metrics.job_summary``).
    assert re.fullmatch(r"9 jobs (in-process|on \d+ worker processes) in "
                        r"[0-9.]+ s \([0-9.]+ jobs/s\)", lines[5])


def test_structure_script_runs(reproduced):
    assert [line.split(":")[0] for line in reproduced[1][6:]] == [
        "mean ssim_inversion", "mean ssim_random", "mean style_content",
        "mean style_inversion", "mean style_droptext", "mean style_random"]


def test_make_dataset_layout_is_seeded_and_pretrainable(tmp_path, capsys):
    trees = []
    for root in (tmp_path / "a", tmp_path / "b"):
        _script("make_dataset").main(["--out", str(root), "--per-family", "2",
                                      "--n-content", "2", "--size", "8"])
        trees.append({p.relative_to(root): p.read_bytes()
                      for p in root.rglob("*") if p.is_file()})
    assert trees[0] == trees[1]
    assert Counter(p.parts[0] for p in trees[0]) == {
        name: 2 for name in (*default_style_specs(), "content")}
    assert run(["pretrain", "--data", str(tmp_path / "a"), "--checkpoint",
                str(tmp_path / "ck.abdn"), "--steps", "2", "--width", "8",
                "--channels", "12", "--timesteps", "10"]) == 0
