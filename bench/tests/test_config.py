"""Validation of ``BENCHMARK.json``."""

import copy

import pytest

from bench import config


def valid() -> dict:
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": 10,
        "workloads": [
            {"name": "a", "why": "one reason"},
            {"name": "b", "why": "another reason"},
        ],
        "end_to_end": [
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        ],
        "per_layer": [{"name": "x.hits", "unit": "count", "better": "higher"}],
    }


def test_committed_benchmark_json_is_valid():
    assert config.validate(config.load()) == []


def test_minimal_document_is_valid():
    assert config.validate(valid()) == []


def broken(change) -> list[str]:
    document = copy.deepcopy(valid())
    change(document)
    return config.validate(document)


@pytest.mark.parametrize(
    "name", ["bad name", "-leading", "", "x" * 65, "a/b", "ünï"]
)
def test_names_must_match_the_name_pattern(name):
    problems = broken(
        lambda d: d["per_layer"].append(
            {"name": name, "unit": "ms", "better": "lower"}
        )
    )
    assert any("bad name" in problem for problem in problems)


def test_at_most_16_end_to_end_metrics():
    def many(document):
        document["end_to_end"] += [
            {"name": f"m{i}", "unit": "ms", "better": "lower", "bound": 0.1}
            for i in range(15)
        ]

    assert any("end_to_end must list" in p for p in broken(many))


def test_at_most_128_per_layer_metrics():
    def many(document):
        document["per_layer"] = [
            {"name": f"m{i}", "unit": "ms", "better": "lower"}
            for i in range(129)
        ]

    assert any("per_layer must list" in p for p in broken(many))


@pytest.mark.parametrize("key", ["unit", "better", "bound"])
def test_end_to_end_metrics_need_unit_direction_and_bound(key):
    problems = broken(lambda d: d["end_to_end"][0].pop(key))
    assert any("must have exactly the keys" in p for p in problems)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("bound", 0.3, "bound must lie"),
        ("bound", -0.1, "bound must lie"),
        ("better", "faster", "better must be"),
        ("unit", "milli seconds", "bad unit"),
    ],
)
def test_end_to_end_values_are_checked(field, value, message):
    problems = broken(lambda d: d["end_to_end"][0].__setitem__(field, value))
    assert any(message in p for p in problems)


def test_setup_time_is_required():
    problems = broken(lambda d: d["end_to_end"].pop())
    assert any("setup_s" in p for p in problems)


def test_names_are_used_once():
    problems = broken(
        lambda d: d["per_layer"].append(
            {"name": "x.hits", "unit": "count", "better": "higher"}
        )
    )
    assert any("more than once" in p for p in problems)


def test_only_the_documented_top_level_keys():
    problems = broken(lambda d: d.__setitem__("digests", {}))
    assert any("top-level keys" in p for p in problems)


@pytest.mark.parametrize("path", ["/abs", "../out", "a b"])
def test_paths_stay_inside_the_repository(path):
    assert broken(lambda d: d.__setitem__("paths", [path]))


def test_workload_count_is_limited():
    assert broken(lambda d: d["workloads"].pop())
