"""The campaign runner: fan independent trials out over worker processes.

Every trial is hermetic — it builds its own :class:`~repro.sim.engine.Simulator`
and draws randomness only from its spec's seed — so trials can execute in
any process, in any order, and still produce the results a serial run
would.  The runner adds the robustness a long sweep needs:

* **per-trial timeout** — enforced *inside* the executing process with an
  interval timer, so a wedged trial cannot poison the worker pool; a
  timeout that cannot be armed (a serial run off the main thread) fails
  the trial instead of being dropped;
* **one retry on crash** — a trial that raises is re-run once (crashes of
  the worker process itself are also retried once);
* **partial results** — failed/timed-out trials are recorded in the
  report with their error instead of aborting the campaign.

``workers <= 1`` runs everything in-process through the *same* execution
path, which is what the determinism regression test compares against.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..obs import Observability
from ..obs.spans import SpanError, build_recovery_spans, counters_from_metrics
from ..sim.randomness import RandomStreams
from .report import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    CampaignReport,
    TrialRecord,
)
from .spec import CampaignError, TrialContext, TrialSpec, resolve_seeds, trial_runner

#: retries granted to a crashed (raising) trial; timeouts never retry.
DEFAULT_RETRIES = 1


class TrialTimeout(Exception):
    """Raised inside a worker when a trial exceeds its wall-clock budget."""


@dataclass
class TrialOutcome:
    """What one execution attempt returns across the process boundary."""

    trial_id: str
    status: str
    payload: Optional[dict] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    metrics: Optional[dict] = None
    #: serialised span tree (telemetry mode; a plain dict so it pickles)
    spans: Optional[dict] = None
    duration_s: float = 0.0


@contextlib.contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`TrialTimeout` if the block runs longer than ``seconds``.

    Uses ``SIGALRM`` + ``setitimer``, which only works in a main thread on
    POSIX; elsewhere a requested deadline raises :class:`CampaignError`
    before the block runs, so the trial fails instead of running without
    its timeout.  Worker processes execute trials in their main thread,
    so the pool path always enforces.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    if (
        threading.current_thread() is not threading.main_thread()
        or not hasattr(signal, "setitimer")
    ):
        raise CampaignError(
            f"cannot arm the {seconds:g}s trial timeout: SIGALRM interval "
            "timers only work in the main thread on POSIX"
        )

    def _on_alarm(signum: int, frame: object) -> None:
        raise TrialTimeout(f"trial exceeded its {seconds:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _trial_spans(ctx: TrialContext) -> Optional[dict]:
    """Build the trial's span tree from its recorded trace (telemetry
    mode only); ``None`` when the trace is empty or spanless."""
    if not len(ctx.obs.trace):
        return None
    try:
        tree = build_recovery_spans(
            ctx.obs.trace,
            counters=counters_from_metrics(ctx.obs.metrics.snapshot()),
            evicted=ctx.obs.trace.evicted,
        )
    except SpanError:
        return None
    return tree.to_dict()


def execute_trial(
    spec: TrialSpec,
    default_timeout: Optional[float] = None,
    telemetry: bool = False,
) -> TrialOutcome:
    """Run one trial to completion in the current process.

    Never raises: failures and timeouts come back as outcomes, so a bad
    trial cannot take the campaign (or a pooled worker) down with it.
    ``telemetry`` runs the trial with tracing enabled and attaches the
    resulting causal span tree to the outcome (slower; opt-in).
    """
    started = time.monotonic()
    timeout = spec.timeout if spec.timeout is not None else default_timeout
    try:
        runner = trial_runner(spec.kind)
        if spec.seed is None:
            raise CampaignError(
                f"trial {spec.trial_id} has an unresolved seed; "
                "run it through run_campaign (or resolve_seeds) first"
            )
        ctx = TrialContext(
            seed=spec.seed,
            streams=RandomStreams(spec.seed),
            obs=Observability(enabled=telemetry),
        )
        with _deadline(timeout):
            payload = dict(runner(ctx, **spec.param_dict()))
        return TrialOutcome(
            trial_id=spec.trial_id,
            status=STATUS_OK,
            payload=payload,
            metrics=ctx.obs.metrics.snapshot() or None,
            spans=_trial_spans(ctx) if telemetry else None,
            duration_s=time.monotonic() - started,
        )
    except TrialTimeout as exc:
        return TrialOutcome(
            trial_id=spec.trial_id,
            status=STATUS_TIMEOUT,
            error=f"{type(exc).__name__}: {exc}",
            duration_s=time.monotonic() - started,
        )
    except BaseException as exc:  # noqa: BLE001 — the report records it
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return TrialOutcome(
            trial_id=spec.trial_id,
            status=STATUS_FAILED,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            duration_s=time.monotonic() - started,
        )


def run_campaign(
    specs: Sequence[TrialSpec],
    name: str = "campaign",
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    campaign_seed: int = 1,
    telemetry: bool = False,
) -> CampaignReport:
    """Execute every spec and aggregate the outcomes into a report.

    ``workers`` > 1 fans trials out over a :class:`ProcessPoolExecutor`;
    ``timeout`` is the default per-trial wall-clock budget in seconds
    (individual specs may override).  Specs with ``seed=None`` get a
    deterministic per-trial seed derived from ``campaign_seed`` before any
    execution, so the results are independent of worker count.
    ``telemetry`` traces every trial and ships its causal span tree back
    with the outcome; the report then carries a merged telemetry section
    (still byte-identical for any worker count).
    """
    resolved = resolve_seeds(specs, campaign_seed)
    seen: Dict[str, TrialSpec] = {}
    for spec in resolved:
        if spec.trial_id in seen:
            raise CampaignError(f"duplicate trial in campaign: {spec.trial_id}")
        seen[spec.trial_id] = spec

    started = time.monotonic()
    if workers <= 1:
        records = _run_serial(resolved, timeout, retries, telemetry)
    else:
        records = _run_parallel(resolved, workers, timeout, retries, telemetry)
    return CampaignReport(
        name=name,
        records=records,
        workers=max(1, workers),
        wall_s=time.monotonic() - started,
    )


def _record(spec: TrialSpec, outcome: TrialOutcome, attempts: int) -> TrialRecord:
    return TrialRecord(
        spec=spec,
        status=outcome.status,
        attempts=attempts,
        payload=outcome.payload,
        error=outcome.error,
        traceback=outcome.traceback,
        metrics=outcome.metrics,
        spans=outcome.spans,
        duration_s=outcome.duration_s,
    )


def _run_serial(
    specs: Sequence[TrialSpec],
    timeout: Optional[float],
    retries: int,
    telemetry: bool = False,
) -> List[TrialRecord]:
    records: List[TrialRecord] = []
    for spec in specs:
        attempts = 0
        while True:
            attempts += 1
            outcome = execute_trial(spec, timeout, telemetry)
            if outcome.status == STATUS_FAILED and attempts <= retries:
                continue
            records.append(_record(spec, outcome, attempts))
            break
    return records


def _run_parallel(
    specs: Sequence[TrialSpec],
    workers: int,
    timeout: Optional[float],
    retries: int,
    telemetry: bool = False,
) -> List[TrialRecord]:
    records: List[TrialRecord] = []
    attempts: Dict[str, int] = {spec.trial_id: 0 for spec in specs}
    remaining = list(specs)
    # One future per not-yet-settled trial and round; a fresh pool per
    # round recovers from a worker process dying hard (BrokenPool marks
    # every in-flight future, and the next round starts clean).  Results
    # are order-independent: the report sorts records by trial_id.
    while remaining:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(execute_trial, spec, timeout, telemetry): spec
                for spec in remaining
            }
            remaining = []
            for future in as_completed(futures):
                spec = futures[future]
                try:
                    outcome = future.result()
                except BaseException as exc:  # worker died / result unpicklable
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    outcome = TrialOutcome(
                        trial_id=spec.trial_id,
                        status=STATUS_FAILED,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                attempts[spec.trial_id] += 1
                if (
                    outcome.status == STATUS_FAILED
                    and attempts[spec.trial_id] <= retries
                ):
                    remaining.append(spec)
                else:
                    records.append(
                        _record(spec, outcome, attempts[spec.trial_id])
                    )
    return records
