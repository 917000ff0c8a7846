"""Each point set is enumerated once per analyzed config and once per search."""

import sys

import pytest

from support import random_config

from equilines import geometry
from equilines.bounds import BoundTheorem
from equilines.generators import grid, hesse
from equilines.geometry import GREEN, configuration
from equilines.reports import analysis_document
from equilines.search import EXHAUSTIVE, LOCAL, SearchSpec, run_search


@pytest.fixture
def enumerations(monkeypatch):
    """Sizes of the point sets passed to geometry.enumerate_lines, with the
    counter installed in every equilines module that holds the function."""
    calls = []
    original = geometry.enumerate_lines

    def counting(points):
        calls.append(len(points))
        return original(points)

    for name, module in list(sys.modules.items()):
        if name.startswith("equilines"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_analysis_enumerates_once_per_config(enumerations):
    configs = [
        configuration(hesse(), (GREEN,) * 9, -3),
        configuration(grid(4), (GREEN,) * 16, 5),
        random_config(7, max_total=12),
    ]
    for config in configs:
        analysis_document(config)
    assert enumerations == [config.total for config in configs]


@pytest.mark.parametrize("mode", [EXHAUSTIVE, LOCAL])
def test_search_enumerates_once_per_spec(enumerations, mode):
    spec = SearchSpec(
        points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200
    )
    result = run_search(spec, backend="numpy")
    assert result.best_report is not None
    assert enumerations == [9]
