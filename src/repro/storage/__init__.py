"""Database substrate: in-memory time-series store plus the historian."""

from .historian import Historian, HistorianConfig
from .timeseries import Point, Series, TimeSeriesStore

__all__ = ["Historian", "HistorianConfig", "Point", "Series", "TimeSeriesStore"]
