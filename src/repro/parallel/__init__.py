"""Process-pool fan-out with deterministic, order-preserving results."""

from .executor import map_ordered

__all__ = ["map_ordered"]
