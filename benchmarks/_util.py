"""Shared helper for the per-artifact benchmarks."""

from repro.experiments.runner import run_experiment


def regenerate(benchmark, exp_id: str):
    """Time one fast-mode regeneration of ``exp_id`` and print its table."""
    result = benchmark.pedantic(
        run_experiment, args=(exp_id,), kwargs={"fast": True},
        iterations=1, rounds=1,
    )
    print()
    print(result.format_table())
    return result
