"""Each point set is enumerated once per analyzed config and once per search,
and each analyzed config's profile is tallied once."""

import sys

import pytest

from support import random_config

from equilines import geometry, profiles
from equilines.bounds import BoundTheorem
from equilines.generators import grid, hesse
from equilines.geometry import GREEN, configuration
from equilines.reports import analysis_document
from equilines.search import EXHAUSTIVE, LOCAL, SearchSpec, run_search


def install(monkeypatch, original, replacement):
    """Put ``replacement`` in every equilines module that holds ``original``."""
    for name, module in list(sys.modules.items()):
        if name.startswith("equilines"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def enumerations(monkeypatch):
    """Sizes of the point sets passed to geometry.enumerate_lines."""
    calls = []
    original = geometry.enumerate_lines

    def counting(points):
        calls.append(len(points))
        return original(points)

    install(monkeypatch, original, counting)
    return calls


def analyzed_configs():
    return [
        configuration(hesse(), (GREEN,) * 9, -3),
        configuration(grid(4), (GREEN,) * 16, 5),
        random_config(7, max_total=12),
    ]


def test_analysis_enumerates_once_per_config(enumerations):
    configs = analyzed_configs()
    for config in configs:
        analysis_document(config)
    assert enumerations == [config.total for config in configs]


def test_analysis_profiles_once_per_config(monkeypatch):
    tallied = []
    original = profiles.compute_profile

    def counting(config, *args, **kwargs):
        tallied.append(config)
        return original(config, *args, **kwargs)

    install(monkeypatch, original, counting)
    configs = analyzed_configs()
    for config in configs:
        analysis_document(config)
    assert len(tallied) == len(configs)
    assert all(seen is config for seen, config in zip(tallied, configs))


@pytest.mark.parametrize("mode", [EXHAUSTIVE, LOCAL])
def test_search_enumerates_once_per_spec(enumerations, mode):
    spec = SearchSpec(
        points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200
    )
    result = run_search(spec, backend="numpy")
    assert result.best_report is not None
    assert enumerations == [9]
