"""Each point set is enumerated, and its CSR arrays built, once per analyzed
config and once per search; each analyzed config's profile is tallied,
and its counting identities summed, once; parsing a config does no field
arithmetic; no DeterminedLine is built unless a line is read; no run
adds an attribute (a point-to-lines transpose, say) to the CSR arrays;
and the arrays grow with the incidences, not with lines times points."""

import dataclasses
import sys

import numpy as np
import pytest

from support import KERNEL_PARAMS, random_config, use_kernels

from equilines import geometry, kernels, profiles
from equilines.generators import grid, hesse, random_rational
from equilines.geometry import Incidence
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

    def counting(points):
        calls.append(len(points))
        return original(points)

    install(monkeypatch, original, counting)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """Point counts passed to kernels.build_incidence."""
    calls = []
    original = kernels.build_incidence

    def counting(lines, n_points):
        calls.append(n_points)
        return original(lines, n_points)

    install(monkeypatch, original, counting)
    return calls


@pytest.fixture
def line_objects(monkeypatch):
    """Arguments of every geometry.DeterminedLine construction."""
    built = []
    original = geometry.DeterminedLine

    def counting(*args):
        built.append(args)
        return original(*args)

    install(monkeypatch, original, counting)
    return built


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


def test_analysis_builds_no_line_objects(line_objects):
    configs = analyzed_configs()
    for config in configs:
        analysis_document(config)
    assert line_objects == []
    # Reading a line is what builds one.
    assert configs[0].incidence.lines[0].size == 3
    assert len(line_objects) == 1


@pytest.mark.parametrize("mode", [EXHAUSTIVE, LOCAL])
def test_search_builds_no_line_objects(line_objects, mode):
    spec = SearchSpec(
        points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200
    )
    assert run_search(spec).best_report is not None
    assert line_objects == []


def test_analysis_builds_arrays_once_per_config(builds):
    configs = analyzed_configs()
    for config in configs:
        analysis_document(config)
    assert builds == [config.total for config in configs]


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
    """The arrays kernels.build_incidence returns, in call order."""
    arrays = []
    original = kernels.build_incidence

    def recording(lines, n_points):
        arrays.append(original(lines, n_points))
        return arrays[-1]

    install(monkeypatch, original, recording)
    return arrays


def test_no_analyze_or_search_run_adds_an_attribute_to_incidence_arrays(built):
    # Nothing is cached on the arrays: in particular no run builds a
    # point-to-lines transpose.
    configs = analyzed_configs()
    for config in configs:
        analysis_document(config)
    for mode in (EXHAUSTIVE, LOCAL):
        spec = SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200)
        assert run_search(spec).best_report is not None
    fields = {field.name for field in dataclasses.fields(kernels.IncidenceArrays)}
    assert len(built) == len(configs) + 2
    assert [vars(csr).keys() for csr in built] == [fields] * len(built)


def test_incidence_arrays_grow_with_incidences():
    # Two int64 words per incidence, point and line at most; a dense
    # lines-by-points matrix (L * N bytes even as uint8) cannot fit.
    base = Incidence.of(random_rational(60, seed=0, bound=9))
    csr = base.csr
    # Each distinct array once: the lines and csr share their CSR arrays.
    arrays = {
        id(v): v
        for obj in (base, csr, base.lines)
        for v in vars(obj).values()
        if isinstance(v, np.ndarray)
    }
    incidences = csr.line_points.shape[0]
    n_lines, n_points = len(base.lines), base.total_points
    assert n_lines * n_points > 16 * (incidences + n_points + n_lines)
    assert sum(a.nbytes for a in arrays.values()) <= 16 * (incidences + n_points + n_lines)
