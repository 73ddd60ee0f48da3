"""Feature-bag data model, on-disk formats, and synthetic cohort generation.

A bag is one slide's patch-embedding matrix plus the patch coordinates. Bags
are stored in a little-endian binary container (magic ``TDAMBAG1``) with a
JSON sidecar for the slide id and free-form metadata, so payloads roundtrip
bit-exactly and stay language-neutral.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import optimize

from .errors import (
    DataError,
    DegenerateError,
    FormatError,
    ParseError,
    TruncatedError,
)
from .rng import substream

log = logging.getLogger(__name__)

BAG_MAGIC = b"TDAMBAG1"

# Synthetic time model: T ~ Exp(rate) with rate = RATE_BASE * exp(RATE_GAIN * s),
# s the planted signal fraction. Recorded in every generated manifest.
RATE_BASE = 0.004
RATE_GAIN = 12.0
SIGNAL_SHIFT = 1.5
SIGNAL_DIMS = 8
PATCH_PITCH = 256


@dataclass
class FeatureBag:
    """One slide: N patch embeddings (float32) and their level-0 coordinates."""

    slide_id: str
    features: np.ndarray
    coords: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.coords = np.ascontiguousarray(self.coords, dtype=np.int32)

    @property
    def n_patches(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise DataError(f"features must be a non-empty 2-D matrix, got {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise DataError("features contain NaN or Inf")
        if self.coords.shape != (self.features.shape[0], 2):
            raise DataError(
                f"coords shape {self.coords.shape} does not match {self.features.shape[0]} patches"
            )


@dataclass
class SurvivalRecord:
    """Per-patient follow-up: time in months, event flag, optional covariates."""

    patient_id: str
    time: float
    event: int
    covariates: dict[str, float | None] = field(default_factory=dict)

    def validate(self) -> None:
        if not (self.time > 0):
            raise DataError(f"{self.patient_id}: follow-up time must be positive")
        if self.event not in (0, 1):
            raise DataError(f"{self.patient_id}: event must be 0 or 1")


@dataclass
class Cohort:
    records: list[SurvivalRecord]
    bag_paths: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        ids = [r.patient_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate patient_id in cohort")
        for r in self.records:
            r.validate()
        known = set(ids)
        for pid in self.bag_paths:
            if pid not in known:
                raise DataError(f"bag path for unknown patient {pid}")

    def __len__(self) -> int:
        return len(self.records)

    def times(self) -> np.ndarray:
        return np.array([r.time for r in self.records], dtype=np.float64)

    def events(self) -> np.ndarray:
        return np.array([r.event for r in self.records], dtype=np.int64)


# -- bag container ----------------------------------------------------------


def save_bag(bag: FeatureBag, path: str | Path) -> None:
    """Write a bag (and its JSON sidecar) after checking invariants."""
    bag.validate()
    path = Path(path)
    n, d = bag.features.shape
    with open(path, "wb") as fh:
        fh.write(BAG_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(bag.features.astype("<f4", copy=False).tobytes())
        fh.write(bag.coords.astype("<i4", copy=False).tobytes())
    sidecar = {"slide_id": bag.slide_id, "meta": bag.meta}
    with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


def load_bag(path: str | Path) -> FeatureBag:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(BAG_MAGIC) + 8 or raw[: len(BAG_MAGIC)] != BAG_MAGIC:
        raise FormatError(f"{path}: missing {BAG_MAGIC.decode()} header")
    n, d = struct.unpack_from("<II", raw, len(BAG_MAGIC))
    body = raw[len(BAG_MAGIC) + 8 :]
    want = n * d * 4 + n * 2 * 4
    if len(body) != want:
        raise TruncatedError(f"{path}: payload is {len(body)} bytes, header implies {want}")
    features = np.frombuffer(body[: n * d * 4], dtype="<f4").reshape(n, d)
    coords = np.frombuffer(body[n * d * 4 :], dtype="<i4").reshape(n, 2)
    if not np.isfinite(features).all():
        raise DataError(f"{path}: payload contains NaN or Inf")
    sidecar_path = path.with_suffix(path.suffix + ".json")
    slide_id, meta = path.stem, {}
    if sidecar_path.exists():
        try:
            side = json.loads(sidecar_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise FormatError(f"{sidecar_path}: unreadable bag sidecar ({type(exc).__name__}: {exc})") from exc
        if not isinstance(side, dict):
            raise FormatError(f"{sidecar_path}: bag sidecar is not a JSON object")
        slide_id = side.get("slide_id", slide_id)
        meta = side.get("meta", {})
    return FeatureBag(slide_id=slide_id, features=features.copy(), coords=coords.copy(), meta=meta)


# -- synthetic cohorts --------------------------------------------------------


def grid_coords(n: int) -> np.ndarray:
    """Row-major patch coordinates on a square grid with a fixed pixel pitch."""
    side = math.ceil(math.sqrt(n))
    idx = np.arange(n)
    return np.stack([(idx % side) * PATCH_PITCH, (idx // side) * PATCH_PITCH], axis=1).astype(np.int32)


@dataclass
class SynthCohort:
    cohort: Cohort
    bags: dict[str, FeatureBag]
    manifest: dict


def synth_cohort(
    n_patients: int,
    n_patches_range: tuple[int, int],
    d: int = 512,
    signal_fraction_range: tuple[float, float] = (0.0, 1.0),
    censor_rate: float = 0.25,
    seed: int = 0,
) -> SynthCohort:
    """Generate a cohort with a planted bag-level signal.

    Each bag holds a fraction ``s`` of "signal" patches whose embeddings are
    shifted Gaussians; survival time is exponential with a hazard that grows
    with ``s``, so higher signal means shorter survival. Censoring times are
    independent exponentials with the rate tuned so the expected censored
    fraction matches ``censor_rate``. Fully deterministic in ``seed``.
    """
    if n_patients < 10:
        raise DataError("synthetic cohorts need at least 10 patients")
    lo_n, hi_n = n_patches_range
    if not (1 <= lo_n <= hi_n):
        raise DataError(f"invalid n_patches_range {n_patches_range}")
    lo_s, hi_s = signal_fraction_range
    if not (0.0 <= lo_s <= hi_s <= 1.0):
        raise DataError(f"invalid signal_fraction_range {signal_fraction_range}")
    if not (0.0 <= censor_rate <= 1.0):
        raise DataError(f"censor_rate must lie in [0, 1], got {censor_rate}")
    if censor_rate >= 1.0:
        raise DegenerateError("censor_rate = 1 leaves no events to learn from")

    sig_dims = min(SIGNAL_DIMS, d)
    bags: dict[str, FeatureBag] = {}
    fractions = np.empty(n_patients)
    rates = np.empty(n_patients)
    event_times = np.empty(n_patients)

    for i in range(n_patients):
        rng = substream(seed, "cohort", i)
        pid = f"P{i:04d}"
        n_patches = int(rng.integers(lo_n, hi_n + 1))
        s = float(rng.uniform(lo_s, hi_s))
        n_signal = int(round(s * n_patches))
        features = rng.standard_normal((n_patches, d))
        if n_signal > 0:
            which = rng.choice(n_patches, size=n_signal, replace=False)
            features[np.ix_(which, np.arange(sig_dims))] += SIGNAL_SHIFT
        rate = RATE_BASE * math.exp(RATE_GAIN * s)
        event_times[i] = rng.exponential(1.0 / rate)
        fractions[i] = s
        rates[i] = rate
        bags[pid] = FeatureBag(
            slide_id=pid,
            features=features,
            coords=grid_coords(n_patches),
            meta={"signal_fraction": s},
        )

    if censor_rate > 0.0:
        # E[P(C < T)] over the realized hazards equals the target rate.
        def gap(rc):
            return float(np.mean(rc / (rc + rates))) - censor_rate

        rate_c = optimize.brentq(gap, 1e-12, 1e12, xtol=1e-12, rtol=1e-12)
        rng_c = substream(seed, "cohort-censor")
        censor_times = rng_c.exponential(1.0 / rate_c, size=n_patients)
    else:
        rate_c = 0.0
        censor_times = np.full(n_patients, np.inf)

    records = []
    for i in range(n_patients):
        pid = f"P{i:04d}"
        t_event, t_cens = event_times[i], censor_times[i]
        event = int(t_event <= t_cens)
        records.append(
            SurvivalRecord(
                patient_id=pid,
                time=float(min(t_event, t_cens)),
                event=event,
                covariates={"signal_fraction": float(fractions[i])},
            )
        )
    cohort = Cohort(records=records)
    cohort.validate()
    manifest = {
        "n_patients": n_patients,
        "n_patches_range": [lo_n, hi_n],
        "d": d,
        "signal_fraction_range": [lo_s, hi_s],
        "censor_rate": censor_rate,
        "censor_hazard": rate_c,
        "rate_base": RATE_BASE,
        "rate_gain": RATE_GAIN,
        "signal_shift": SIGNAL_SHIFT,
        "signal_dims": sig_dims,
        "seed": seed,
    }
    return SynthCohort(cohort=cohort, bags=bags, manifest=manifest)


# -- cohort manifest (CSV) ----------------------------------------------------

_MISSING = {"", "na", "nan", "null", "none"}


def read_csv_rows(path: str | Path) -> list[list[str]]:
    """The non-empty rows of a UTF-8 CSV file, ``#`` comment rows dropped."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: unreadable CSV ({type(exc).__name__}: {exc})") from exc


def finite_float(text: str) -> float:
    """A CSV cell or command-line value as a float; ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _finite_cell(csv_path: Path, lineno: int, col: str, cell: str) -> float:
    try:
        return finite_float(cell)
    except ValueError as exc:
        raise ParseError(f"{csv_path}:{lineno}: column {col} has {cell!r}, not a finite number") from exc


def load_cohort_manifest(csv_path: str | Path) -> Cohort:
    """Parse a cohort CSV with header patient_id,time,event[,bag_path,...].

    Extra columns become named covariates: missing cells are None, others finite numbers.
    Times must be finite; rows with non-positive follow-up time are excluded,
    mirroring the usual zero-OS-time exclusion applied when cohorts are assembled.
    """
    csv_path = Path(csv_path)
    rows = read_csv_rows(csv_path)
    if not rows:
        raise ParseError(f"{csv_path}: empty manifest")
    header = [h.strip() for h in rows[0]]
    repeated = [h for h, k in Counter(header).items() if k > 1]
    if repeated:
        raise ParseError(f"{csv_path}: column {repeated[0]!r} appears more than once in the header")
    for needed in ("patient_id", "time", "event"):
        if needed not in header:
            raise ParseError(f"{csv_path}: missing required column {needed!r}")
    covar_cols = [h for h in header if h not in ("patient_id", "time", "event", "bag_path")]
    idx = {h: i for i, h in enumerate(header)}

    records: list[SurvivalRecord] = []
    bag_paths: dict[str, str] = {}
    seen: set[str] = set()
    n_excluded = 0
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{csv_path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        pid = row[idx["patient_id"]].strip()
        if pid in seen:
            raise DataError(f"{csv_path}:{lineno}: duplicate patient_id {pid!r}")
        seen.add(pid)
        time = _finite_cell(csv_path, lineno, "time", row[idx["time"]].strip())
        raw_event = row[idx["event"]].strip()
        if raw_event not in ("0", "1"):
            raise ParseError(f"{csv_path}:{lineno}: event must be 0 or 1, got {raw_event!r}")
        if time <= 0:
            n_excluded += 1
            continue
        covariates: dict[str, float | None] = {}
        for col in covar_cols:
            cell = row[idx[col]].strip()
            covariates[col] = None if cell.lower() in _MISSING else _finite_cell(csv_path, lineno, col, cell)
        records.append(SurvivalRecord(pid, time, int(raw_event), covariates))
        if "bag_path" in idx and row[idx["bag_path"]].strip():
            bag_paths[pid] = row[idx["bag_path"]].strip()
    if n_excluded:
        log.info("%s: excluded %d rows with non-positive follow-up time", csv_path, n_excluded)
    cohort = Cohort(records=records, bag_paths=bag_paths)
    cohort.validate()
    return cohort


def write_cohort_csv(cohort: Cohort, path: str | Path, header_comment: str | None = None) -> None:
    covar_cols = sorted({k for r in cohort.records for k in r.covariates})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        cols = ["patient_id", "time", "event"] + covar_cols
        if cohort.bag_paths:
            cols.append("bag_path")
        writer.writerow(cols)
        for r in cohort.records:
            row = [r.patient_id, repr(r.time), r.event]
            row += ["" if r.covariates.get(c) is None else repr(r.covariates[c]) for c in covar_cols]
            if cohort.bag_paths:
                row.append(cohort.bag_paths.get(r.patient_id, ""))
            writer.writerow(row)


def load_bags(cohort: Cohort, root: str | Path | None = None) -> dict[str, FeatureBag]:
    """Load every bag referenced by a cohort into memory."""
    out = {}
    for pid, rel in cohort.bag_paths.items():
        path = Path(rel)
        if root is not None and not path.is_absolute():
            path = Path(root) / path
        out[pid] = load_bag(path)
    return out
