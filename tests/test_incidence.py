"""Each point set is enumerated once per analyzed config and once per
search, into one ``geometry.Incidence``, and ``kernels.build_incidence``
adapts it once per exhaustive search and never in an analysis or a local
search; each analyzed
config's profile is tallied, on the incidence the analysis enumerated,
and its counting identities summed, once; parsing a config does no
field arithmetic; no run adds an attribute (a point-to-lines transpose,
say) to an incidence, nor one (its lines, say) to a configuration, and
no search builds a configuration; the kernels' arrays view
the enumeration's buffers and grow with the incidences, not with lines
times points; and the names that perfbench pins in the package still
resolve."""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from support import KERNEL_PARAMS, PATHS, random_config, use_kernels, use_path

from equilines import geometry, kernels, profiles
from equilines.generators import grid, hesse, random_rational
from equilines.geometry import Incidence, enumerate_lines
from equilines.points import GREEN, ColoredConfiguration, configuration
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


@pytest.fixture
def enumerated(monkeypatch):
    """The incidences geometry.enumerate_lines returns, in call order."""
    incidences = []
    original = geometry.enumerate_lines

    def recording(points):
        incidences.append(original(points))
        return incidences[-1]

    install(monkeypatch, original, recording)
    return incidences


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


def test_analysis_profiles_once_per_config(enumerated, monkeypatch):
    tallied = []
    original = profiles.compute_profile

    def counting(incidence, colors):
        tallied.append((incidence, colors))
        return original(incidence, colors)

    install(monkeypatch, original, counting)
    configs = analyzed_configs()
    for config in configs:
        analysis_document(config)
    assert len(tallied) == len(enumerated) == len(configs)
    # The tally reads the very incidence the analysis enumerated.
    assert all(seen is incidence for (seen, _), incidence in zip(tallied, enumerated))
    assert [colors for _, colors in tallied] == [config.colors for config in configs]


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
    # Neither tally needs the kernels' adapter: the block sums read the
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
    # Only the exhaustive scan reads numpy views; the local replay reads the
    # enumeration's buffers as they are.
    assert builds == ([9] if mode == EXHAUSTIVE else [])


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


def test_no_analyze_or_search_run_adds_an_attribute_to_incidence_arrays(
    built, enumerated, monkeypatch
):
    # Nothing is cached on an incidence: in particular no run builds a
    # point-to-lines transpose.
    for path in PATHS:
        use_path(monkeypatch, path)
        for config in analyzed_configs():
            analysis_document(config)
    incidences = list(enumerated)
    replayed = []
    replay = kernels.descent_replay
    install(monkeypatch, replay, lambda incidence, *args: replayed.append(incidence)
            or replay(incidence, *args))
    for mode in (EXHAUSTIVE, LOCAL):
        spec = SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200)
        assert run_search(spec).best_report is not None
    # The exhaustive scan reads the arrays built for it, the local replay
    # the enumeration's own incidence.
    assert len(built) == len(replayed) == 1
    fields = set(inspect.signature(Incidence).parameters)
    incidences += built + replayed
    assert [vars(incidence).keys() for incidence in incidences] == [fields] * len(incidences)


def test_analysis_adds_no_attribute_to_its_config(monkeypatch):
    # The analysis passes its incidence down: the configuration keeps only
    # what its constructor stored.
    fields = {"discriminant", "points", "colors", "colors_swapped"}
    for path in PATHS:
        use_path(monkeypatch, path)
        for config in analyzed_configs():
            assert vars(config).keys() == fields
            analysis_document(config)
            assert vars(config).keys() == fields


@pytest.mark.parametrize("mode", (EXHAUSTIVE, LOCAL))
def test_search_builds_no_configuration(monkeypatch, mode):
    # The recount tallies the winner on the base set's incidence itself.
    made = []
    init = ColoredConfiguration.__init__
    monkeypatch.setattr(ColoredConfiguration, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    spec = SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode, budget=200)
    assert run_search(spec).best_report is not None
    assert made == []
    configuration(spec.points, (GREEN,) * spec.total, 5)  # the count is live
    assert len(made) == 1


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
