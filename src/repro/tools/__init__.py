"""Repository maintenance gates run from CI.

* :mod:`repro.tools.validate_cli_json` — run one ``--json``
  invocation per CLI subcommand and validate each document against
  its schema (:mod:`repro.experiments.schemas`) plus the unified
  results round-trip.
* :mod:`repro.tools.lint` — the determinism linter behind
  ``repro lint-code``.
"""
