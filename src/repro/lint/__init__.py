"""Pluggable simulation-safety static analysis (``repro lint``).

The reproduction's headline guarantees — byte-identical replay bundles,
worker-count-invariant campaign reports, cross-backend differential
agreement — all rest on one convention: every event-emitting path is a
pure function of the seed and the simulated clock.  This package turns
that convention (and its serialization/picklability corollaries) into a
first-class, self-tested analyzer, the same way :mod:`repro.verify`
turned wiring invariants into certified checks.

Layout:

* :mod:`repro.lint.findings` — the :class:`Finding` model;
* :mod:`repro.lint.rules` — the :class:`Rule` registry and catalog;
* :mod:`repro.lint.engine` — single-parse multi-rule visitor plus
  ``# repro-lint: ignore[rule-id]`` suppression handling;
* :mod:`repro.lint.selftest` — the seeded-violation diagonal;
* :mod:`repro.lint.cli` — the ``repro lint`` subcommand.

See DESIGN.md §12 for the architecture and the full rule catalog.
"""
