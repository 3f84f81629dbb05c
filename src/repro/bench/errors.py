"""Typed errors for the bench layer.

``bench/`` promises typed failures (the ``errors.typed-discipline``
lint rule): sharding already has ``MergeError(ValueError)``; this module
holds the one error the rest of the package shares.  Each class
subclasses the builtin it refines so existing ``except ValueError``
callers keep working.
"""

from __future__ import annotations


class BenchConfigError(ValueError):
    """A bench configuration (experiment, synthetic, shard count,
    timeline rendering) was constructed with invalid parameters."""
