"""Click-pattern probabilities and count records: their sampling, merging,
aggregation and serialization.  The detector model itself, the click weights
of threshold detectors, is ``fock.click_weights``.

Count records are serialized as CSV with columns
(phase_phi_radians, pattern_bits, count, trials, seed) plus a JSON mirror
that also carries the detector declaration order; pattern bits follow that
order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import MAX_TRIALS, fits_float, read_json

PROBABILITY_SUM_TOL = 1e-10

ClickPattern = tuple[int, ...]


class RecordIntegrityError(ValueError):
    """A count record failed an internal consistency check."""


@dataclass(frozen=True)
class JointProbabilities:
    """Exact pattern probabilities for a fixed detector declaration order."""

    detector_ids: tuple[str, ...]
    probabilities: Mapping[ClickPattern, float]

    def __post_init__(self):
        total = 0.0
        for pattern, p in self.probabilities.items():
            if len(pattern) != len(self.detector_ids):
                raise ValueError("pattern length must match detector count")
            if not -PROBABILITY_SUM_TOL <= p <= 1.0 + PROBABILITY_SUM_TOL:  # NaN fails this too
                raise ValueError(f"probability {p} outside [0, 1]")
            total += p
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"pattern probabilities sum to {total}, not 1")

    def __getitem__(self, pattern: ClickPattern) -> float:
        return self.probabilities.get(tuple(pattern), 0.0)

    def items(self):
        return self.probabilities.items()


@dataclass(frozen=True)
class CountRecord:
    """Tallies of click patterns over ``trials`` repeated preparations."""

    detector_ids: tuple[str, ...]
    trials: int
    tally: Mapping[ClickPattern, int]
    phase: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if not all(isinstance(detector, str) for detector in self.detector_ids):
            raise RecordIntegrityError(f"detector ids {self.detector_ids!r} are not all strings")
        for name, n in [("trials", self.trials), *((f"count of {pattern}", n) for pattern, n in self.tally.items())]:
            if isinstance(n, bool) or not isinstance(n, Integral):
                raise RecordIntegrityError(f"{name} has the wrong type: {n!r} is not an integer")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise RecordIntegrityError(f"trials must be >= 1 and <= {MAX_TRIALS}, got {self.trials}")
        phase = self.phase
        if phase is not None and (isinstance(phase, bool) or not isinstance(phase, Real) or not fits_float(phase)):
            raise RecordIntegrityError(f"phase {phase!r} is not a finite real number")
        seed = self.seed
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0):
            raise RecordIntegrityError(f"seed {seed!r} is not a non-negative integer")
        total = sum(self.tally.values())
        if total != self.trials:
            raise RecordIntegrityError(f"tally sums to {total}, trials is {self.trials}")
        for pattern, n in self.tally.items():
            if len(pattern) != len(self.detector_ids):
                raise RecordIntegrityError("pattern length must match detector count")
            if any(bit not in (0, 1) for bit in pattern):
                raise RecordIntegrityError(f"pattern {pattern} has bits other than 0/1")
            if n < 0:
                raise RecordIntegrityError(f"pattern {pattern} has negative count {n}")

    def items(self):
        return self.tally.items()


def merge_counts(a: CountRecord, b: CountRecord) -> CountRecord:
    """Associative merge of two records of the same measurement setting."""
    if a.detector_ids != b.detector_ids or a.phase != b.phase:
        raise RecordIntegrityError("records describe different measurement settings")
    tally = dict(a.tally)
    for pattern, n in b.tally.items():
        tally[pattern] = tally.get(pattern, 0) + n
    return CountRecord(a.detector_ids, a.trials + b.trials, tally, phase=a.phase, seed=None)


# ---------------------------------------------------------------------------
# aggregation of the split detector pair


def aggregate_split_detector(
    probs: JointProbabilities | CountRecord, pair: tuple[str, str]
) -> dict[tuple[int, ...], float]:
    """Collapse a detector pair behind a splitter into photon-count classes.

    The two binary outcomes of ``pair`` are replaced by n = (number of
    detectors in the pair that clicked) in {0, 1, 2}; remaining detectors keep
    their binary outcome and position.  Marginals over the untouched
    detectors are preserved exactly.  Probabilities sum to probabilities,
    the counts of a record to integer counts.
    """
    ia = probs.detector_ids.index(pair[0])
    ib = probs.detector_ids.index(pair[1])
    out: dict[tuple[int, ...], float] = {}
    for pattern, p in probs.items():
        rest = tuple(b for k, b in enumerate(pattern) if k not in (ia, ib))
        key = rest[: min(ia, ib)] + (pattern[ia] + pattern[ib],) + rest[min(ia, ib):]
        out[key] = out.get(key, 0) + p
    return out


# ---------------------------------------------------------------------------
# sampling


def substream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream id); the reproducibility contract."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def sample_counts(
    probs: JointProbabilities,
    trials: int,
    seed: int,
    stream: int = 0,
    phase: float | None = None,
) -> CountRecord:
    """Multinomial draw of ``trials`` shots from exact pattern probabilities."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    patterns = sorted(probs.probabilities)
    pvals = np.array([max(probs.probabilities[p], 0.0) for p in patterns])
    pvals = pvals / pvals.sum()
    rng = substream_rng(seed, stream)
    draws = rng.multinomial(trials, pvals)
    tally = {pattern: int(n) for pattern, n in zip(patterns, draws)}
    return CountRecord(tuple(probs.detector_ids), trials, tally, phase=phase, seed=seed)


# ---------------------------------------------------------------------------
# serialization


def write_count_records_csv(records: Iterable[CountRecord], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase_phi_radians", "pattern_bits", "count", "trials", "seed"])
        for record in records:
            phase = "" if record.phase is None else repr(float(record.phase))
            seed = "" if record.seed is None else str(record.seed)
            for pattern in sorted(record.tally):
                bits = "".join(str(b) for b in pattern)
                writer.writerow([phase, bits, record.tally[pattern], record.trials, seed])


def _count_records(path: str | Path, fields: Iterable[tuple]) -> list[CountRecord]:
    """A ``CountRecord`` of each tuple of its fields; its errors name the file and the record."""
    records = []
    for index, args in enumerate(fields):
        try:
            records.append(CountRecord(*args))
        except RecordIntegrityError as exc:
            raise RecordIntegrityError(f"{path}: record {index}: {exc}") from exc
    return records


def read_count_records_csv(path: str | Path, detector_ids: Sequence[str]) -> list[CountRecord]:
    """Parse a count CSV; rows sharing (phase, trials, seed) form one record.

    The CSV carries no detector ids, so the caller names them in pattern-bit
    order."""
    path = Path(path)
    groups: dict[tuple, dict[ClickPattern, int]] = {}
    try:  # csv.Error: a field beyond the csv module's size limit
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh)) or [None]
    except (OSError, ValueError, csv.Error) as exc:
        raise RecordIntegrityError(f"{path}: invalid CSV ({exc})") from exc
    if header is None:
        raise RecordIntegrityError(f"{path}: empty record file")
    if header[:5] != ["phase_phi_radians", "pattern_bits", "count", "trials", "seed"]:
        raise RecordIntegrityError(f"{path}: unexpected header {header}")
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            phase = float(row[0]) if row[0] != "" else None
            pattern = tuple(int(ch) for ch in row[1])
            count = int(row[2])
            trials = int(row[3])
            seed = int(row[4]) if row[4] != "" else None
        except (ValueError, IndexError) as exc:
            raise RecordIntegrityError(f"{path}:{lineno}: malformed row {row!r}") from exc
        tally = groups.setdefault((phase, trials, seed), {})
        tally[pattern] = tally.get(pattern, 0) + count
    if not groups:
        raise RecordIntegrityError(f"{path}: no data rows")
    return _count_records(path, ((tuple(detector_ids), trials, tally, phase, seed) for (phase, trials, seed), tally in groups.items()))


def write_count_records_json(records: Iterable[CountRecord], path: str | Path) -> None:
    payload = []
    for record in records:
        payload.append(
            {
                "detector_ids": list(record.detector_ids),
                "trials": record.trials,
                "phase_phi_radians": record.phase,
                "seed": record.seed,
                "tally": {"".join(str(b) for b in k): v for k, v in sorted(record.tally.items())},
            }
        )
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# a file's structure; ``CountRecord`` checks the values
_RECORDS_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "properties": {"detector_ids": {"type": "array"}, "tally": {"type": "object"}},
        "required": ["detector_ids", "trials", "tally"],
    },
}


def read_count_records_json(path: str | Path) -> list[CountRecord]:
    def fields(entry: dict) -> tuple:
        tally = {tuple(int(ch) if ch in "01" else ch for ch in bits): n for bits, n in entry["tally"].items()}  # CountRecord rejects other bits
        return tuple(entry["detector_ids"]), entry["trials"], tally, entry.get("phase_phi_radians"), entry.get("seed")
    return _count_records(path, map(fields, read_json(path, _RECORDS_SCHEMA, RecordIntegrityError)))
