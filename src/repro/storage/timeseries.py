"""An in-memory time-series store.

Stands in for the factory databases of the paper's architecture. Data is
organized as *series* identified by a name plus a tag set (machine,
workcell, variable), holding timestamped points. Queries support time
ranges and tag filters — enough for the monitoring software the
generated configuration deploys.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Point:
    timestamp: float
    value: object = field(compare=False)


def _tags_key(tags: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(tags.items()))


@dataclass
class Series:
    """One measurement series with immutable identity and sorted points."""

    name: str
    tags: dict[str, str]
    points: list[Point] = field(default_factory=list)

    def append(self, timestamp: float, value: object) -> None:
        point = Point(timestamp, value)
        if self.points and timestamp < self.points[-1].timestamp:
            index = bisect.bisect_left(
                [p.timestamp for p in self.points], timestamp)
            self.points.insert(index, point)
        else:
            self.points.append(point)

    def range(self, start: float | None = None,
              end: float | None = None) -> list[Point]:
        timestamps = [p.timestamp for p in self.points]
        low = bisect.bisect_left(timestamps, start) if start is not None else 0
        high = (bisect.bisect_right(timestamps, end)
                if end is not None else len(self.points))
        return self.points[low:high]

    @property
    def last(self) -> Point | None:
        return self.points[-1] if self.points else None

    def __len__(self) -> int:
        return len(self.points)


class TimeSeriesStore:
    """Named database holding many series."""

    def __init__(self, name: str = "factorydb"):
        self.name = name
        self._series: dict[tuple[str, tuple], Series] = {}
        self.write_count = 0

    # -- writes ------------------------------------------------------------

    def write(self, measurement: str, value: object, *,
              timestamp: float, tags: dict[str, str] | None = None) -> None:
        tags = dict(tags or {})
        key = (measurement, _tags_key(tags))
        series = self._series.get(key)
        if series is None:
            series = Series(measurement, tags)
            self._series[key] = series
        series.append(timestamp, value)
        self.write_count += 1

    # -- queries ---------------------------------------------------------------

    def series(self, measurement: str | None = None,
               tags: dict[str, str] | None = None) -> list[Series]:
        """Series matching a measurement name and/or a tag subset."""
        result = []
        for (name, _), series in self._series.items():
            if measurement is not None and name != measurement:
                continue
            if tags is not None and any(
                    series.tags.get(k) != v for k, v in tags.items()):
                continue
            result.append(series)
        return result

    def latest(self, measurement: str,
               tags: dict[str, str] | None = None) -> Point | None:
        candidates = [s.last for s in self.series(measurement, tags)
                      if s.last is not None]
        if not candidates:
            return None
        return max(candidates, key=lambda p: p.timestamp)

    # -- introspection --------------------------------------------------------------

    @property
    def series_count(self) -> int:
        return len(self._series)

    def stats(self) -> dict[str, int]:
        return {
            "series": self.series_count,
            "points": sum(len(s) for s in self._series.values()),
            "writes": self.write_count,
        }
