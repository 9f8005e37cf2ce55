"""The paper's tables and figures as declarative sweeps.

Every table or figure is data: a list of :class:`~repro.api.SweepSpec`\\ s
run through :func:`~repro.api.run_sweep` — the same path ``repro sweep``
takes — a row builder over the resulting :class:`~repro.api.RunRecord`\\ s,
and a shape gate asserting the paper's qualitative claim (who wins,
approximate factors, trends).  The paper's full grid (4 datasets x
4 condensers x 3 ratios x 1000 condensation epochs on a GPU) is far beyond a
pure-numpy CPU run, so every cell starts from :data:`BASE`, a reduced
setting on the Cora and Citeseer stand-ins.

Every cell runs at spec seed 0 (a one-value ``seed`` axis), so the cells of
a table differ only in the axes under study.

Run every table, or one::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_paper.py -s
    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_paper.py -s -k table4

A wider grid is one more axis value: dump a sweep with
``SweepSpec.to_json()``, edit it and run it with ``repro sweep --spec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np
import pytest

from repro.api import ExperimentSpec, RunRecord, SweepSpec, TransferSweepSpec, run_sweep
from repro.datasets import statistics_table
from repro.datasets.base import get_spec
from repro.evaluation.reporting import (
    format_percent,
    format_table,
    transfer_cell_metrics,
    transfer_matrix,
)

#: Condensation ratio per dataset (the paper's middle setting each).
RATIOS: Dict[str, float] = {"cora": 0.026, "citeseer": 0.018}
DATASETS = ("cora", "citeseer")

#: Poisoned-node selection shared by every trigger-generating attack.
SELECTION = {"selection.num_clusters": 3, "selection.selector_epochs": 60}

BGC_ATTACK = {
    "name": "bgc",
    "overrides": {
        "poison_ratio": 0.1,
        "epochs": 12,
        "surrogate_steps": 20,
        "generator_steps": 2,
        "update_batch_size": 10,
        **SELECTION,
    },
}

#: The cell every table starts from: GCond on Cora, BGC at poison ratio 0.1.
BASE: Dict[str, Any] = {
    "dataset": "cora",
    "model": "gcn",
    "condenser": {"name": "gcond", "overrides": {"epochs": 12, "ratio": RATIOS["cora"]}},
    "attack": BGC_ATTACK,
    "trigger": {"overrides": {"trigger_size": 4}},
    "evaluation": {"overrides": {"epochs": 60, "hidden": 32}},
    "seed": 0,
}


def table_sweeps(
    name: str,
    axes: Mapping[str, list],
    datasets: Sequence[str] = ("cora",),
    changes: Optional[Mapping[str, Any]] = None,
) -> List[SweepSpec]:
    """One sweep per dataset: :data:`BASE` with ``changes`` applied, over ``axes``.

    ``changes`` maps sweep-axis names to single values (see
    :meth:`ExperimentSpec.with_axis_value`).
    """
    sweeps = []
    for data in datasets:
        base = ExperimentSpec.from_dict(BASE)
        assignments = {"dataset": data, "condenser.ratio": RATIOS[data], **(changes or {})}
        for axis, value in assignments.items():
            base = base.with_axis_value(axis, value)
        sweeps.append(
            SweepSpec(base=base, axes={**axes, "seed": [0]}, seed=0, name=f"{name}-{data}")
        )
    return sweeps


Rows = List[Dict[str, Any]]
RowBuilder = Callable[[List[RunRecord]], Rows]


@dataclass(frozen=True)
class Table:
    """One paper table: its sweeps, how records become rows, and its gate."""

    title: str
    sweeps: List[SweepSpec]
    rows: RowBuilder
    gate: Callable[[Rows], None]


TABLES: Dict[str, Table] = {}


def table(key: str, title: str, sweeps: List[SweepSpec], rows: RowBuilder):
    """Register the decorated shape gate as table ``key`` of :data:`TABLES`."""

    def register(gate: Callable[[Rows], None]) -> Callable[[Rows], None]:
        TABLES[key] = Table(title, sweeps, rows, gate)
        return gate

    return register


def run_table(table: Table) -> List[RunRecord]:
    """Every record of a table, in sweep then canonical grid order."""
    return [record for sweep in table.sweeps for record in run_sweep(sweep)]


def print_header(title: str) -> None:
    """Print a visually distinct section header for benchmark output."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_rows(rows: List[Dict[str, object]]) -> None:
    """Print result rows as an aligned table with percentages."""
    rendered = []
    for row in rows:
        formatted = {}
        for key, value in row.items():
            if isinstance(value, float) and key not in ("ratio", "feature_scale"):
                formatted[key] = format_percent(value)
            else:
                formatted[key] = value
        rendered.append(formatted)
    print(format_table(rendered))


# ------------------------------------------------------------------ #
# Row builders
# ------------------------------------------------------------------ #
Column = Callable[[RunRecord], Any]


def dataset(record: RunRecord) -> str:
    return record.spec.dataset.name


def condenser(record: RunRecord) -> str:
    return record.spec.condenser.name


CLEAN_CTA: Dict[str, Column] = {"C-CTA": lambda record: record.clean_cta}
CLEAN_ASR: Dict[str, Column] = {"C-ASR": lambda record: record.clean_asr}


def attack_rows(columns: Mapping[str, Column]) -> RowBuilder:
    """One row per record: ``columns``, then the attacked victim's CTA / ASR."""

    def rows(records: List[RunRecord]) -> Rows:
        return [
            {
                **{name: column(record) for name, column in columns.items()},
                "CTA": record.attack_cta,
                "ASR": record.attack_asr,
            }
            for record in records
        ]

    return rows


def defended(record: RunRecord) -> Dict[str, float]:
    """CTA / ASR after the cell's defense (the attacked numbers without one)."""
    cta, asr = transfer_cell_metrics(record)
    return {"CTA": cta, "ASR": asr}


def _relative_change(defended: float, undefended: float) -> float:
    if undefended == 0:
        return 0.0
    return (defended - undefended) / undefended


# ------------------------------------------------------------------ #
# Table I — dataset statistics (no runner: a plain test)
# ------------------------------------------------------------------ #
def test_table1_dataset_statistics():
    rows = []
    for row in statistics_table(["cora", "citeseer", "flickr", "reddit"], seed=0):
        spec = get_spec(str(row["name"]))
        rows.append(
            {
                "dataset": row["name"],
                "nodes": int(row["nodes"]),
                "edges": int(row["edges"]),
                "classes": int(row["classes"]),
                "features": int(row["features"]),
                "train": int(row["train"]),
                "val": int(row["val"]),
                "test": int(row["test"]),
                "reference_nodes": spec.reference_nodes,
            }
        )
    print_header("Table I: dataset statistics (synthetic stand-ins)")
    print_rows(rows)
    assert len(rows) == 4


@table(
    "table2",
    "Table II: model utility (CTA) and attack performance (ASR)",
    table_sweeps("table2", {"condenser": ["dc-graph", "gcond", "gcond-x", "gc-sntk"]}, DATASETS),
    attack_rows(
        {
            "dataset": dataset,
            "condenser": condenser,
            "ratio": lambda record: record.spec.condenser.overrides["ratio"],
            **CLEAN_CTA,
            **CLEAN_ASR,
        }
    ),
)
def table2_gate(rows: Rows) -> None:
    for row in rows:
        # The attack succeeds everywhere (paper: >95%; GC-SNTK is the hardest
        # condenser to backdoor both in the paper and here, so the floor is
        # set below the gradient-matching condensers' near-100% ASR).
        floor = 0.7 if row["condenser"] == "gc-sntk" else 0.9
        assert row["ASR"] > floor, f"ASR too low for {row}"
        # ...while a clean model stays near chance level on triggered inputs...
        assert row["C-ASR"] < 0.5, f"C-ASR too high for {row}"
        # ...and utility stays in the neighbourhood of the clean baseline.
        assert row["CTA"] > row["C-CTA"] - 0.25, f"CTA collapsed for {row}"


@table(
    "table3",
    "Table III: backdoor transfer across GNN architectures (cora, GCond)",
    table_sweeps("table3", {"model": ["gcn", "sage", "sgc", "mlp", "appnp", "cheby"]}),
    attack_rows({"architecture": lambda record: record.spec.model.name, **CLEAN_CTA}),
)
def table3_gate(rows: Rows) -> None:
    # Shape check: the attack transfers to a majority of architectures.
    successful = sum(1 for row in rows if row["ASR"] > 0.8)
    assert successful >= len(rows) // 2


DEFENSE_LABELS = {None: "none", "prune": "Prune", "randsmooth": "Randsmooth"}


def table4_rows(records: List[RunRecord]) -> Rows:
    rows = []
    for record in records:
        metrics = defended(record)
        rows.append(
            {
                "condenser": condenser(record),
                "defense": DEFENSE_LABELS[record.spec.defense.name],
                **metrics,
                "dCTA": _relative_change(metrics["CTA"], record.attack_cta),
                "dASR": _relative_change(metrics["ASR"], record.attack_asr),
            }
        )
    return rows


@table(
    "table4",
    "Table IV: BGC against Prune and Randsmooth (cora)",
    table_sweeps(
        "table4",
        {
            "condenser": ["gcond", "gcond-x"],
            "defense": [
                None,
                {"name": "prune", "overrides": {"prune_fraction": 0.2}},
                {"name": "randsmooth", "overrides": {"num_samples": 5, "keep_probability": 0.7}},
            ],
        },
    ),
    table4_rows,
)
def table4_gate(rows: Rows) -> None:
    # Shape check: neither defense fully removes the backdoor (ASR stays high).
    for row in rows:
        if row["defense"] != "none":
            assert row["ASR"] > 0.5, f"defense unexpectedly eliminated the backdoor: {row}"


@table(
    "table5",
    "Table V: trigger-generator encoder ablation (GCond)",
    table_sweeps("table5", {"trigger": ["mlp", "gcn", "transformer"]}, DATASETS),
    attack_rows({"dataset": dataset, "generator": lambda record: record.spec.trigger.name}),
)
def table5_gate(rows: Rows) -> None:
    # Shape check: the paper finds every encoder reaches a high ASR.
    for row in rows:
        assert row["ASR"] > 0.7, f"encoder {row['generator']} failed to attack"


@table(
    "table6",
    "Table VI: directed attack ablation (GCond)",
    table_sweeps("table6", {"attack.directed": [False, True]}, DATASETS, {"attack.source_class": 1}),
    attack_rows(
        {
            "dataset": dataset,
            "variant": lambda record: (
                "Directed" if record.spec.attack.overrides["directed"] else "BGC"
            ),
        }
    ),
)
def table6_gate(rows: Rows) -> None:
    for row in rows:
        assert np.isfinite(row["CTA"]) and np.isfinite(row["ASR"])
        assert row["ASR"] > 0.5


@table(
    "table7",
    "Table VII: poisoning budget sweep",
    table_sweeps(
        "table7",
        {"attack.poison_ratio": [0.10, 0.15, 0.20], "condenser": ["dc-graph", "gcond"]},
        DATASETS,
    ),
    attack_rows(
        {
            "dataset": dataset,
            "poison": lambda record: (
                f"poison_ratio={record.spec.attack.overrides['poison_ratio']}"
            ),
            "condenser": condenser,
        }
    ),
)
def table7_gate(rows: Rows) -> None:
    # Shape check: the attack succeeds across the whole budget range.
    for row in rows:
        assert row["ASR"] > 0.7, f"ASR collapsed at {row['poison']} on {row['dataset']}"


@table(
    "table8",
    "Table VIII: downstream GNN depth (GCond)",
    table_sweeps("table8", {"evaluation.num_layers": [1, 2, 3]}, DATASETS),
    attack_rows(
        {
            "dataset": dataset,
            "layers": lambda record: record.spec.evaluation.overrides["num_layers"],
        }
    ),
)
def table8_gate(rows: Rows) -> None:
    # Shape check: the attack succeeds regardless of model depth.
    for row in rows:
        assert row["ASR"] > 0.7


NAIVE_ATTACK = {"name": "naive", "overrides": {"target_class": 0, "poison_fraction": 0.6}}


def fig1_rows(records: List[RunRecord]) -> Rows:
    by_dataset: Dict[str, Dict[str, RunRecord]] = {}
    for record in records:
        by_dataset.setdefault(dataset(record), {})[record.spec.attack.name] = record
    return [
        {
            "dataset": name,
            "Clean Model CTA": attacks["bgc"].clean_cta,
            "Naive Poison CTA": attacks["naive"].attack_cta,
            "BGC CTA": attacks["bgc"].attack_cta,
        }
        for name, attacks in by_dataset.items()
    ]


@table(
    "fig1",
    "Figure 1: Clean Model vs Naive Poison vs BGC (CTA)",
    table_sweeps("fig1", {"attack": [NAIVE_ATTACK, BGC_ATTACK]}, DATASETS),
    fig1_rows,
)
def fig1_gate(rows: Rows) -> None:
    # Shape check: naive poisoning must hurt utility more than BGC does.
    for row in rows:
        assert row["Naive Poison CTA"] <= row["Clean Model CTA"]
        assert row["BGC CTA"] >= row["Naive Poison CTA"] - 0.05
    mean_naive = sum(row["Naive Poison CTA"] for row in rows) / len(rows)
    mean_bgc = sum(row["BGC CTA"] for row in rows) / len(rows)
    assert mean_bgc >= mean_naive


GTA_ATTACK = {
    "name": "gta",
    "overrides": {"poison_ratio": 0.1, "generator_epochs": 12, "update_batch_size": 10, **SELECTION},
}
DOORPING_ATTACK = {
    "name": "doorping",
    "overrides": {
        "poison_ratio": 0.1,
        "epochs": 12,
        "trigger_steps": 2,
        "update_batch_size": 10,
        "surrogate_steps": 20,
        **SELECTION,
    },
}


@table(
    "fig4",
    "Figure 4: BGC vs adapted graph backdoor baselines (GCond)",
    table_sweeps("fig4", {"attack": [GTA_ATTACK, DOORPING_ATTACK, BGC_ATTACK]}, DATASETS),
    attack_rows({"dataset": dataset, "attack": lambda record: record.spec.attack.name.upper()}),
)
def fig4_gate(rows: Rows) -> None:
    # Shape check: BGC's ASR is at least as good as both baselines per dataset.
    by_dataset = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], {})[row["attack"]] = row
    for dataset, attacks in by_dataset.items():
        assert attacks["BGC"]["ASR"] >= attacks["GTA"]["ASR"] - 0.05
        assert attacks["BGC"]["ASR"] >= attacks["DOORPING"]["ASR"] - 0.05


@table(
    "fig5",
    "Figure 5: representative vs random poisoned-node selection (DC-Graph)",
    table_sweeps(
        "fig5", {"attack.use_random_selection": [False, True]}, DATASETS, {"condenser": "dc-graph"}
    ),
    attack_rows(
        {
            "dataset": dataset,
            "variant": lambda record: (
                "BGC_Rand" if record.spec.attack.overrides["use_random_selection"] else "BGC"
            ),
        }
    ),
)
def fig5_gate(rows: Rows) -> None:
    # Shape check: representative selection is at least competitive with random.
    by_dataset = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], {})[row["variant"]] = row
    for dataset, variants in by_dataset.items():
        assert variants["BGC"]["ASR"] >= variants["BGC_Rand"]["ASR"] - 0.1


@table(
    "fig6",
    "Figure 6: ASR vs condensation epochs (cora, GCond)",
    table_sweeps("fig6", {"attack.epochs": [2, 6, 12, 25]}),
    attack_rows({"epochs": lambda record: record.spec.attack.overrides["epochs"]}),
)
def fig6_gate(rows: Rows) -> None:
    # Shape check: ASR at the largest budget is at least as high as the smallest.
    assert rows[-1]["ASR"] >= rows[0]["ASR"] - 0.05


@table(
    "fig8",
    "Figure 8: trigger-size sweep (cora)",
    table_sweeps("fig8", {"condenser": ["dc-graph", "gcond"], "trigger.trigger_size": [1, 2, 3, 4]}),
    attack_rows(
        {
            "condenser": condenser,
            "trigger size": lambda record: record.spec.trigger.overrides["trigger_size"],
        }
    ),
)
def fig8_gate(rows: Rows) -> None:
    # Shape check: the largest trigger attacks at least as well as the smallest.
    by_condenser = {}
    for row in rows:
        by_condenser.setdefault(row["condenser"], []).append(row)
    for condenser, series in by_condenser.items():
        assert series[-1]["ASR"] >= series[0]["ASR"] - 0.05


# Generated trigger features are bounded to ``TriggerConfig.feature_scale``
# of the host graph's feature range.  Small bounds give the paper's regime:
# a backdoor only the poisoned condensed graph encodes (high ASR,
# chance-level C-ASR).  Large bounds turn the trigger into a test-time
# adversarial perturbation that fools clean models too (C-ASR -> 100%).
@table(
    "trigger_scale",
    "Extension: trigger magnitude sweep (cora, GCond)",
    table_sweeps("trigger-scale", {"trigger.feature_scale": [0.05, 0.1, 0.5, 1.0]}),
    attack_rows(
        {"feature_scale": lambda record: record.spec.trigger.overrides["feature_scale"], **CLEAN_ASR}
    ),
)
def trigger_scale_gate(rows: Rows) -> None:
    # The backdoor works at every magnitude...
    for row in rows:
        assert row["ASR"] > 0.9, f"ASR collapsed at scale {row['feature_scale']}"
    # ...but only large-magnitude triggers fool a clean model: C-ASR must grow
    # substantially from the smallest to the largest bound.
    assert rows[-1]["C-ASR"] > rows[0]["C-ASR"] + 0.2


def detection_rows(records: List[RunRecord]) -> Rows:
    return [
        {
            "variant": (
                f"remove {record.spec.defense.name.replace('-', ' ')} flags"
                if record.spec.defense.is_set
                else "no defense"
            ),
            **defended(record),
        }
        for record in records
    ]


# The paper argues detection-based defenses fail against BGC because no
# explicit trigger is present in the condensed graph: removing the nodes two
# detectors flag must leave the backdoor in place.
@table(
    "detection",
    "Extension: anomaly detection on the poisoned condensed graph (cora, GCond-X)",
    table_sweeps(
        "detection",
        {
            "defense": [
                None,
                {"name": "feature-outlier", "overrides": {"contamination": 0.15}},
                {"name": "spectral-signature", "overrides": {"contamination": 0.15}},
            ]
        },
        changes={"condenser": "gcond-x"},
    ),
    detection_rows,
)
def detection_gate(rows: Rows) -> None:
    # The paper's claim: detection-based cleaning does not remove the backdoor.
    undefended = rows[0]["ASR"]
    for row in rows[1:]:
        assert row["ASR"] > 0.5, f"detector unexpectedly removed the backdoor: {row}"
    assert undefended > 0.9


TRANSFER_MODELS = ["gcn", "gat", "mlp"]
TRANSFER = TransferSweepSpec(
    base=ExperimentSpec.from_dict(dict(BASE, attack="naive", trigger=None)),
    models=TRANSFER_MODELS,
    defenses=[None, "prune", "dropedge"],
    seed=0,
    name="bench-transfer",
)


@table(
    "transfer",
    "Extension: transfer matrix (cora, naive poison, GCond surrogate)",
    [TRANSFER.to_sweep()],
    lambda records: transfer_matrix(records)["cells"],
)
def transfer_gate(rows: Rows) -> None:
    assert list(dict.fromkeys(row["model"] for row in rows)) == TRANSFER_MODELS
    assert list(dict.fromkeys(row["defense"] for row in rows)) == ["none", "prune", "dropedge"]
    # Every cell of the grid must complete — a failed cell means a defense or
    # architecture broke under the declarative path.
    assert all(row["status"] == "ok" for row in rows)


@pytest.mark.parametrize("name", list(TABLES))
def test_paper_table(name):
    table = TABLES[name]
    rows = table.rows(run_table(table))
    print_header(table.title)
    print_rows(rows)
    table.gate(rows)
