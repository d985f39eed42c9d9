"""The desk rig's determinism and the experiment scripts that build on it."""

import hashlib
import importlib.util
from pathlib import Path

from artbank import desk
from artbank.bank import bank_bytes, create_entry
from artbank.data_io import gen_content_image
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
        "472ac8a898aa05dd89838f76e6a4d233bb9c98ba8e396501e49038f3aece6558")
    assert _sha256(bank_bytes(desk.bank)) == (
        "ee8c70f68b5032c614444a76a86ccae37c0612b682327f8aad4b5f8a05acf02b")
    [(content, cfg)] = contents(1)
    stylized = {
        (style_id, inverted): _sha256(stylize(
            desk.backbone, desk.sched, desk.bank, style_id, content, cfg,
            use_inversion=inverted).pixels.tobytes())
        for style_id in ("rosetta", "rosetta-droptext")
        for inverted in (True, False)}
    assert stylized == {
        ("rosetta", True):
            "efbd6266230ec63a0a25f4546008a99b46c65f9ca1bb289d8ca47079c5240601",
        ("rosetta", False):
            "0df27df1953806d8810385994697d44182cbaf2ce144adfee35c2a1e7de37bd7",
        ("rosetta-droptext", True):
            "d0d743bba7a3d0859d4cb76d671d18411f9e43fe3c827a79a2c3996fc35da54c",
        ("rosetta-droptext", False):
            "7d20717c4e50c9ac722508d5a68851921facfb13b53acf03c4dcc0084fd99522",
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
    assert probe == {"ssam": "0x1.0e83133cc93d9p-2",
                     "adaattn": "0x1.0e83133cc93d9p-2",
                     "sanet": "0x1.0c1132899c257p-2"}
    signature = signature_of(desk.style_collection)
    assert _sha256(signature.tobytes()) == (
        "97ef9c177d7940a76cfc562b0e5fc010f1deca47d1edc72077d3c001c7fe8c73")
    [(content, _)] = contents(1)
    gray = gen_content_image("shapes", 9, seed=4, channels=1)
    assert [gram_style_score(img, signature).value.hex()
            for img in (content, gray)] == [
        "0x1.926ee0462d773p-1", "0x1.a7662fe8521c8p-1"]


def test_convergence_script_runs(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    _script("convergence_experiment").main(
        ["--pretrain-steps", "2", "--max-iters", "100", "--seeds", "3",
         "--out", str(out)])
    table = capsys.readouterr().out
    for variant in ("ssam", "sanet", "adaattn"):
        assert variant in table
    assert len(out.read_text().splitlines()) == 1 + 3 * 3


def test_structure_script_runs(capsys):
    _script("structure_preservation_experiment").main(
        ["--pretrain-steps", "2", "--entry-steps", "2", "--n-content", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "mean ssim_inversion", "mean ssim_random", "mean style_content",
        "mean style_inversion", "mean style_droptext", "mean style_random"]
