"""The four benchmark workloads' output CSVs at seeds 1 and 2, pinned.

Each workload is run in-process through ``cli.main`` exactly as the
benchmark runs it, from the specs written out below (not read from
``bench/``, so an edit there cannot move a golden silently), and its CSV is
compared with ``tests/golden/<workload>-seed<k>.csv``: text and integer
cells exactly, other numbers to a relative 1e-12, ``wall_time_s`` not at
all.  A change that means to move outputs regenerates every file with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved cells in its change notes.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from privdet import cli
from privdet.model import generate_correlated_model, save_model, table3_model

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (1, 2)
UNPINNED = ("wall_time_s",)

#: workload -> (model maker, seed -> spec fields other than the model); None runs the bound suite
WORKLOADS = {
    "parametric-s6": (
        lambda: generate_correlated_model(seed=0, s=6, x_size=6),
        lambda seed: {"architectures": ["ldp", "ill", "lip", "inp"], "eps_i": [1.0],
                      "eps_ld": [0.5, 1.0], "seeds": [seed]},
    ),
    "paper-x11": (
        lambda: table3_model(4),
        lambda seed: {"architectures": ["ldp", "lip", "identity"], "eps_i": [1.0],
                      "eps_ld": [0.5, 1.0], "seeds": [0],
                      "design": {"z_size": 3, "restarts": 1}},
    ),
    "empirical": (
        lambda: generate_correlated_model(seed=0, s=4, x_size=8),
        lambda seed: {"architectures": ["e-ldp", "epic"], "eps_ld": [0.5, 1.0], "r": [0.9],
                      "seeds": [0], "epic": {"n_train": 40, "max_sweeps": 2}},
    ),
    "relations": None,
}


def run_workload(name: str, seed: int, out: Path) -> Path:
    """Run one workload's subcommand into ``out``; the CSV it wrote."""
    csv_path = out / f"{name}-seed{seed}.csv"
    if WORKLOADS[name] is None:
        argv = ["relations", "--seed", str(seed), "--trials", "1000"]
    else:
        make_model, grid = WORKLOADS[name]
        model_path, spec_path = out / "model.json", out / "spec.json"
        save_model(make_model(), model_path)
        spec = {"model": {"file": str(model_path)}, **grid(seed)}
        spec_path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
        argv = ["sweep", "--spec", str(spec_path), "--jobs", "1"]
    cli.main([*argv, "--out", str(csv_path)])
    return csv_path


def _read(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _same(want: str, got: str) -> bool:
    """Equal text, or two non-integer numbers within a relative 1e-12."""
    if want == got:
        return True
    if want.lstrip("-").isdigit():
        return False
    try:
        return math.isclose(float(want), float(got), rel_tol=1e-12)
    except ValueError:
        return False


def mismatches(want: list, got: list) -> list:
    """(row, column, golden, new) of every pinned cell that differs; row 0 is the header."""
    if want[0] != got[0] or len(want) != len(got):
        return [(0, "header and row count", (want[0], len(want)), (got[0], len(got)))]
    pinned = [j for j, col in enumerate(want[0]) if col not in UNPINNED]
    return [
        (i, want[0][j], w[j], g[j])
        for i, (w, g) in enumerate(zip(want[1:], got[1:]), start=1)
        for j in pinned
        if len(w) != len(g) or not _same(w[j], g[j])
    ]


def test_the_comparison_pins_text_and_integers_exactly_and_floats_to_1e_12():
    want = [["arch", "n", "x", "wall_time_s"], ["ldp", "3", "0.1", "1.0"]]
    assert mismatches(want, [want[0], ["ldp", "3", repr(0.1 * (1 + 1e-13)), "9.0"]]) == []
    assert mismatches(want, [want[0], ["ldp", "3", repr(0.1 * (1 + 1e-11)), "1.0"]])
    assert mismatches(want, [want[0], ["lip", "3", "0.1", "1.0"]])
    assert mismatches(want, [want[0], ["ldp", "4", "0.1", "1.0"]])
    assert mismatches(want, [want[0], ["ldp", "3", "0.1", "1.0"], want[1]])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_workload_writes_its_golden_csv(tmp_path, name, seed):
    got = _read(run_workload(name, seed, tmp_path))
    assert mismatches(_read(GOLDEN / f"{name}-seed{seed}.csv"), got) == []


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                rows = _read(run_workload(name, seed, Path(tmp)))
            blank = [j for j, col in enumerate(rows[0]) if col in UNPINNED]
            for row in rows[1:]:
                for j in blank:
                    row[j] = ""
            with open(GOLDEN / f"{name}-seed{seed}.csv", "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
