"""Parallel experiment campaigns with deterministic sharding.

The sweep subsystem the ROADMAP's "as fast as the hardware allows" goal
needs: declare a grid of independent trials (:mod:`repro.campaign.spec`),
fan them out over worker processes with per-trial timeouts, crash retry
and partial-results aggregation (:mod:`repro.campaign.runner`), and get
one deterministic report back (:mod:`repro.campaign.report`) — identical
bytes whether the campaign ran on 1 worker or 16.

Quick use::

    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import TrialSpec

    specs = [
        TrialSpec.make("recovery", topology=t, scenario="C1", seed=s)
        for t in ("fat-tree", "f2tree") for s in (1, 2, 3)
    ]
    report = run_campaign(specs, name="c1-sweep", workers=4, timeout=120)
    print(report.render())
    open("report.json", "w").write(report.to_json())

or from the command line: ``python -m repro sweep spf-timer --workers 4``.
"""
