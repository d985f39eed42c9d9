"""The desk rig's determinism and the experiment scripts that build on it."""

import importlib.util
from pathlib import Path

from artbank import desk
from artbank.bank import bank_bytes
from artbank.diffusion import checkpoint_bytes

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
