"""Workload definitions shared by the harness and its worker processes.

A workload is the list of CLI configs under ``configs/<workload>/``.  The
seed fixes the order of the experiments inside each pass; every pass runs
every experiment once, so the mix is the same in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
WORKLOADS = ("survey", "paths", "fields")


@dataclass(frozen=True)
class Experiment:
    name: str        # "<workload>/<config stem>"
    kind: str        # CLI subcommand, read from the config's `kind = ...`
    config: Path

    def argv(self, out_dir) -> list:
        """Arguments for ``nmhl.cli.main`` (and ``python -m nmhl``)."""
        return [self.kind, "--config", str(self.config), "--out", str(out_dir)]


def _kind_of(path: Path) -> str:
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == "kind":
            return value.strip()
    raise ValueError(f"{path}: no experiment kind")


def load(workload: str) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    paths = sorted((CONFIG_DIR / workload).glob("*.cfg"))
    if not paths:
        raise FileNotFoundError(f"no configs under {CONFIG_DIR / workload}")
    return [Experiment(f"{workload}/{p.stem}", _kind_of(p), p) for p in paths]


def pass_order(experiments: list, seed: int, phase: str, index: int) -> list:
    """The experiments of pass ``index`` of ``phase``, shuffled by the seed."""
    order = list(experiments)
    random.Random(f"{seed}:{phase}:{index}").shuffle(order)
    return order
