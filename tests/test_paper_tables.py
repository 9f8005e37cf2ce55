"""The paper-table sweeps of ``benchmarks/bench_paper.py``, exercised on ``tiny``.

The tables themselves take minutes on the Cora and Citeseer stand-ins; here
every spec runs with the dataset rewritten to ``tiny`` and every epoch count
set to 1, which checks that each spec resolves and runs and that each row
builder understands its records.  The shape gates are not asserted: they
describe the paper's claims, not a one-epoch run on 60 nodes.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from typing import Any

import pytest

from repro import cli
from repro.api import RunRecord, SweepSpec, run_sweep

from test_service import assert_records_identical

BENCH_PAPER = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_paper.py"


def _load_bench_paper():
    spec = importlib.util.spec_from_file_location("bench_paper", BENCH_PAPER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


bench_paper = _load_bench_paper()
TABLES = bench_paper.TABLES

#: Cells per table: the product of its axes, summed over its sweeps.
EXPECTED_CELLS = {
    "table2": 8,
    "table3": 6,
    "table4": 6,
    "table5": 6,
    "table6": 4,
    "table7": 12,
    "table8": 6,
    "fig1": 4,
    "fig4": 6,
    "fig5": 4,
    "fig6": 4,
    "fig8": 8,
    "trigger_scale": 4,
    "detection": 3,
    "transfer": 9,
}


def _one_epoch(value: Any, key: str = "") -> Any:
    """``value`` with every ``*epochs`` setting (scalar or axis) set to 1."""
    if isinstance(value, dict):
        return {k: _one_epoch(v, k) for k, v in value.items()}
    if key.endswith("epochs"):
        return [1] * len(value) if isinstance(value, list) else 1
    if isinstance(value, list):
        return [_one_epoch(item) for item in value]
    return value


def on_tiny(sweep: SweepSpec) -> SweepSpec:
    """The sweep on the ``tiny`` dataset with one epoch everywhere."""
    payload = _one_epoch(sweep.to_dict())
    payload["base"]["dataset"] = "tiny"
    return SweepSpec.from_dict(payload)


def test_every_table_is_listed():
    assert list(TABLES) == list(EXPECTED_CELLS)


@pytest.mark.parametrize("name", list(EXPECTED_CELLS))
def test_specs_round_trip_and_expand(name):
    sweeps = TABLES[name].sweeps
    for sweep in sweeps:
        assert SweepSpec.from_json(sweep.to_json()) == sweep
        assert sweep.seed == 0
        if name != "transfer":  # a TransferSweepSpec derives one seed per cell
            assert {spec.seed for spec in sweep.expand()} == {0}
    assert sum(len(sweep.expand()) for sweep in sweeps) == EXPECTED_CELLS[name]


@pytest.mark.parametrize("name", list(EXPECTED_CELLS))
def test_table_runs_on_tiny(name):
    table = TABLES[name]
    records = [record for sweep in table.sweeps for record in run_sweep(on_tiny(sweep))]
    assert len(records) == EXPECTED_CELLS[name]
    assert all(record.ok for record in records)
    rows = table.rows(records)
    assert rows
    assert all(row.keys() == rows[0].keys() for row in rows)


@pytest.mark.parametrize("name", list(EXPECTED_CELLS))
def test_table_dumped_to_json_runs_through_cli_sweep(name, tmp_path, capsys):
    """A table's sweep dumped with ``to_json`` runs under ``repro sweep --spec``
    (the documented way to widen a grid) to the records ``run_sweep`` gives."""
    sweep = on_tiny(TABLES[name].sweeps[0])
    spec_path = tmp_path / "sweep.json"
    out_path = tmp_path / "records.jsonl"
    spec_path.write_text(sweep.to_json())
    assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    expected = run_sweep(sweep)
    assert len(lines) == len(expected)
    for record, line in zip(expected, lines):
        assert_records_identical(record, RunRecord.from_dict(json.loads(line)))


def test_table_is_bit_identical_serial_vs_pool():
    sweep = on_tiny(TABLES["table4"].sweeps[0])
    serial = run_sweep(sweep)
    pooled = run_sweep(sweep, execution={"backend": "pool", "workers": 2})
    assert len(serial) == len(pooled) == EXPECTED_CELLS["table4"]
    for expected, actual in zip(serial, pooled):
        assert_records_identical(expected, actual)
