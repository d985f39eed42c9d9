"""The library calls the benchmark makes, kept working.

``bench/workloads.py`` encodes prompts as ``encode_prompt(template, artist,
width=...)`` and reads the result's ``tokens``; its set-up pretrains a
backbone and trains bank entries; a traced run's kernel table drives the
tape ops and ``Tensor.backward`` directly. A change to those calls fails
here, in the default test run, and not only in a traced benchmark run.

    python3 -m pytest tests/test_bench_contract.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from artbank.errors import ArtBankError  # noqa: E402
from tracing import NullTracer  # noqa: E402


def test_condition_rows():
    # "a painting by <artist> *": four text rows, then the style rows.
    assert workloads.condition_rows() == 4 + workloads.POSITIONS


def test_set_up_and_probe_pass(tmp_path):
    ledger = checks.Ledger((ArtBankError,))
    rig = workloads.set_up(workloads.WORKLOADS["stylize"], 1, tmp_path,
                           NullTracer(), ledger)
    workloads.probe_pass(rig, NullTracer())
    assert ledger.failed == 0, ledger.messages


def test_kernel_table():
    # The traced run's kernel table: a Tensor.backward sweep over a one-conv
    # graph, im2col, sum_all, gelu, softmax_rows and matmul.
    table = workloads.kernel_table(workloads.condition_rows())
    assert len(table) == 8
    for name, (value, unit) in table.items():
        assert math.isfinite(value) and value > 0, (name, value, unit)
