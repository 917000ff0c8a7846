"""Each point set is enumerated once per analyzed config and once per
search, into one ``geometry.Incidence``, and ``kernels.build_incidence``
adapts it once per search and never in an analysis; each analyzed
config's profile is tallied, and its counting identities summed, once;
parsing a config does no field arithmetic; no run adds an attribute (a
point-to-lines transpose, say) to an incidence; the kernels' arrays view
the enumeration's buffers and grow with the incidences, not with lines
times points; and the names that perfbench pins in the package still
resolve."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from support import KERNEL_PARAMS, PATHS, random_config, use_kernels, use_path

from equilines import geometry, kernels, profiles
from equilines.generators import grid, hesse, random_rational
from equilines.geometry import Incidence, enumerate_lines
from equilines.points import GREEN, configuration
from equilines.quadfield import QuadElement, parse_element
from equilines.reports import analysis_document, config_document, dump_json, parse_config
from equilines.search import EXHAUSTIVE, LOCAL, SearchSpec, run_search
from equilines.tables import BoundTheorem


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

    def counting(points, **kwargs):
        calls.append(len(points))
        return original(points, **kwargs)

    install(monkeypatch, original, counting)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """Point counts of the incidences passed to kernels.build_incidence."""
    calls = []
    original = kernels.build_incidence

    def counting(incidence):
        calls.append(incidence.total_points)
        return original(incidence)

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


def test_analysis_verifies_identities_once_per_config(monkeypatch):
    checked = []
    original = profiles.verify_identities

    def counting(profile):
        checked.append(profile)
        return original(profile)

    install(monkeypatch, original, counting)
    configs = analyzed_configs()
    for config in configs:
        analysis_document(config)
    assert len(checked) == len(configs)


def test_parse_config_does_no_field_arithmetic(monkeypatch):
    # Points with sqrt parts over d < 0 and d > 0, and points at infinity.
    configs = analyzed_configs() + [random_config(seed) for seed in range(20)]
    texts = [
        dump_json(config_document(c.points, c.colors, c.discriminant.d)) for c in configs
    ]
    calls = []
    for name in ("__mul__", "invert"):
        original = getattr(QuadElement, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(QuadElement, name, counting)
    for config, text in zip(configs, texts):
        assert parse_config(text).points == config.points
    assert calls == []
    x = parse_element("1+sqrt(5)", 5)
    assert x * x.invert() == parse_element("1", 5)
    assert calls == ["invert", "__mul__"]


@pytest.mark.parametrize("mode", [EXHAUSTIVE, LOCAL])
def test_search_enumerates_once_per_spec(enumerations, mode):
    spec = SearchSpec(
        points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200
    )
    result = run_search(spec)
    assert result.best_report is not None
    assert enumerations == [9]


def test_analysis_builds_arrays_once_per_config(builds, monkeypatch):
    # Neither tally needs the kernels' adapter: the block tally reads the
    # sort path's numpy buffers as they are.
    for path in PATHS:
        use_path(monkeypatch, path)
        for config in analyzed_configs():
            analysis_document(config)
    assert builds == []


@pytest.mark.parametrize("mode", [EXHAUSTIVE, LOCAL])
@pytest.mark.parametrize("which", KERNEL_PARAMS)
def test_search_builds_arrays_once_per_spec(builds, monkeypatch, mode, which):
    use_kernels(monkeypatch, which)
    spec = SearchSpec(
        points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200
    )
    result = run_search(spec)
    assert result.best_report is not None
    assert builds == [9]


@pytest.fixture
def built(monkeypatch):
    """The incidences kernels.build_incidence returns, in call order."""
    arrays = []
    original = kernels.build_incidence

    def recording(incidence):
        arrays.append(original(incidence))
        return arrays[-1]

    install(monkeypatch, original, recording)
    return arrays


def test_no_analyze_or_search_run_adds_an_attribute_to_incidence_arrays(built, monkeypatch):
    # Nothing is cached on an incidence: in particular no run builds a
    # point-to-lines transpose.
    incidences = []
    for path in PATHS:
        use_path(monkeypatch, path)
        for config in analyzed_configs():
            analysis_document(config)
            incidences.append(config.incidence)
    for mode in (EXHAUSTIVE, LOCAL):
        spec = SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200)
        assert run_search(spec).best_report is not None
    assert len(built) == 2
    fields = {field.name for field in dataclasses.fields(Incidence)}
    incidences += built
    assert [vars(incidence).keys() for incidence in incidences] == [fields] * len(incidences)


def test_incidence_arrays_grow_with_incidences(monkeypatch):
    # Two int64 words per incidence, point and line at most; a dense
    # lines-by-points matrix (L * N bytes even as uint8) cannot fit.
    for path in PATHS:
        use_path(monkeypatch, path)
        base = enumerate_lines(random_rational(60, seed=0, bound=9))
        csr = kernels.build_incidence(base)
        # The arrays view the enumeration's CSR buffers: nothing is new.
        buffers = (base.indptr, base.points)
        assert all(map(np.shares_memory, (csr.indptr, csr.points), buffers))
        incidences = csr.points.shape[0]
        n_lines, n_points = len(base), base.total_points
        assert n_lines * n_points > 16 * (incidences + n_points + n_lines)
        held = sum(len(b) * b.itemsize for b in buffers)
        assert held <= 16 * (incidences + n_points + n_lines)


def test_perfbench_pins_resolve():
    # perfbench/traced.py wraps package functions by name and reads the
    # results of two of them; a rename in the package breaks it silently.
    root = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_traced", root / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for layer, names in traced.TRACED.items():
        module = importlib.import_module(f"equilines.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    assert kernels.resolve_backend() in json.loads((root / "digests.json").read_text())
    incidence = enumerate_lines(grid(3))
    assert len(incidence) == sum(incidence.size_counts.values())  # "lines" reads it
    arrays = kernels.build_incidence(incidence)
    assert all(hasattr(vars(arrays).get(name), "nbytes") for name in ("indptr", "points"))
    assert traced.ATTRIBUTES["kernels.build_incidence"]((incidence,), arrays) == {
        "bytes": 4 * (len(incidence) + 1 + len(incidence.points))
    }
