"""The name ``perfbench/layers.py:28`` resolves — its only reader.

Nothing is incremental here any more: the per-origin engine is
:class:`repro.routing.spf_cache.SpfEngine`, and perfbench's tracer
target ``repro.routing.spf_incremental`` : ``IncrementalSpfEngine.compute``
cannot be edited outside a ``benchmark``-type PR.  Goes with the re-pin
of ROADMAP item 1(ii); ``tests/test_perfbench_targets.py`` fails the day
``layers.py`` stops naming this module.
"""

from .spf_cache import SpfEngine as IncrementalSpfEngine  # noqa: F401
