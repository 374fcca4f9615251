"""Analysis tools: max-flow/bisection, backup-link accounting, path audits."""
