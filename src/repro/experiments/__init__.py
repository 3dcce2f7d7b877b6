"""One module per paper table/figure; see DESIGN.md's experiment index.

Run any experiment with ``python -m repro.experiments <id>`` or
programmatically via :func:`repro.experiments.runner.run_experiment`.
Importing this package loads nothing: the registry
(:func:`repro.experiments.base.registry`) imports the experiment modules
only when the runner needs them.
"""
