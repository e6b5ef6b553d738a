"""Per-figure goldens: every registry figure's result, byte for byte.

``golden_figures.json`` holds the sha256 of ``encode_value(result)`` for
every key of :data:`repro.runner.registry.FIGURES`, at ``--quick`` scale
on both engine tiers and at full scale on the compiled tier. A figure
whose value is the same on both tiers has one entry; a figure that
differs between them (``study``, which names the tier it ran on) has one
entry per tier. Every other output check in the suite is relative (one
tier against the other, ``--jobs 1`` against ``--jobs N``, cold against
warm); these pin the values themselves, so a change that moves both
tiers alike — a timing constant, a power formula, a summation order —
fails here.

A change meant to move outputs regenerates the file with
``PYTHONPATH=src python tests/test_golden_figures.py`` and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Union

import pytest

from repro.perf._kernel.loader import (
    DISABLE_ENV,
    kernel_available,
    reset_kernel_loader,
)
from repro.perf.engine import clear_engine_memos
from repro.runner.executor import execute_plan
from repro.runner.job import encode_value
from repro.runner.registry import FIGURES

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_figures.json")
TIERS = ("compiled", "reference")

Entry = Union[str, Dict[str, str]]


def figure_digest(key: str, quick: bool) -> str:
    """sha256 of the encoded result of figure ``key`` on this process's tier."""
    result = execute_plan(FIGURES[key].plan(quick=quick))
    return hashlib.sha256(encode_value(result).encode()).hexdigest()


def _set_tier(tier: str) -> None:
    if tier == "reference":
        os.environ[DISABLE_ENV] = "1"
    else:
        os.environ.pop(DISABLE_ENV, None)
    reset_kernel_loader()
    clear_engine_memos()


def _expected(entry: Entry, tier: str) -> str:
    return entry if isinstance(entry, str) else entry[tier]


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Entry]]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def tier(request, monkeypatch):
    """Run the test body on the requested engine tier, in the repo root
    (the study figure reads its grid by relative path)."""
    monkeypatch.chdir(REPO_ROOT)
    if request.param == "reference":
        monkeypatch.setenv(DISABLE_ENV, "1")
    reset_kernel_loader()
    clear_engine_memos()
    if not kernel_available() and request.param == "compiled":
        pytest.skip("compiled tier unavailable (kernel masked or unbuilt)")
    yield request.param
    monkeypatch.undo()
    reset_kernel_loader()
    clear_engine_memos()


def test_golden_file_covers_every_figure(golden):
    assert set(golden) == {"quick", "full"}
    for scale in golden.values():
        assert set(scale) == set(FIGURES)
    for entry in golden["full"].values():
        assert isinstance(entry, str), "full scale runs on the compiled tier only"


@pytest.mark.parametrize("tier", TIERS, indirect=True)
def test_quick_figures_match_goldens(golden, tier):
    moved = {
        key: digest
        for key in FIGURES
        if (digest := figure_digest(key, quick=True))
        != _expected(golden["quick"][key], tier)
    }
    assert not moved, f"--quick figures moved on the {tier} tier: {moved}"


@pytest.mark.parametrize("tier", ["compiled"], indirect=True)
def test_full_scale_figures_match_goldens(golden, tier):
    moved = {
        key: digest
        for key in FIGURES
        if (digest := figure_digest(key, quick=False)) != golden["full"][key]
    }
    assert not moved, f"full-scale figures moved: {moved}"


def _generate() -> Dict[str, Dict[str, Entry]]:
    os.chdir(REPO_ROOT)
    quick: Dict[str, Entry] = {}
    for key in FIGURES:
        by_tier = {}
        for tier in TIERS:
            _set_tier(tier)
            by_tier[tier] = figure_digest(key, quick=True)
        values = set(by_tier.values())
        quick[key] = values.pop() if len(values) == 1 else by_tier
    _set_tier("compiled")
    assert kernel_available(), "full-scale goldens need the compiled tier"
    full = {key: figure_digest(key, quick=False) for key in FIGURES}
    return {"quick": quick, "full": full}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_generate(), indent=2, sort_keys=True) + "\n")
