"""Datasets, CSV loading, canonical preprocessing, splits, screening checks.

A ChoiceDataset is a float64 feature matrix with named columns plus an
availability mask and a chosen-alternative index per row.  Generated and
derived datasets round-trip through CSV with one ``AV_<label>`` column per
alternative and a 0-based ``CHOICE`` column.
"""

from __future__ import annotations

import ast
import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numcore import prng

SWISSMETRO_SCALED = ("TRAIN_TT", "SM_TT", "CAR_TT", "TRAIN_CO", "SM_CO", "CAR_CO",
                     "TRAIN_HE", "SM_HE")
CORR_ADVISORY = 0.8  # |corr| between an X and a Q column above which a fit is warned


class DataError(ValueError):
    """Malformed input data; message carries the file location when known."""


@dataclass
class ChoiceDataset:
    columns: list[str]
    values: np.ndarray  # (n, D) float64
    avail: np.ndarray  # (n, I) float64, each entry 0 or 1
    choice: np.ndarray  # (n,) int64, -1 marks a missing response
    alt_labels: list[str]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.avail = np.ascontiguousarray(self.avail, dtype=np.float64)
        self.choice = np.ascontiguousarray(self.choice, dtype=np.int64)
        if len(self.columns) != len(set(self.columns)):
            raise DataError("duplicate column names")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise DataError("values shape does not match column names")
        n = self.values.shape[0]
        if self.avail.shape != (n, len(self.alt_labels)) or self.choice.shape != (n,):
            raise DataError("avail/choice shapes do not match")
        bad = (self.avail != 0.0) & (self.avail != 1.0)  # NaN too
        if bad.any():
            row, alt = np.argwhere(bad)[0]
            raise DataError(f"row {row}, alternative {self.alt_labels[alt]!r}: "
                            f"availability {float(self.avail[row, alt])!r} is not 0 or 1")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_alts(self) -> int:
        return len(self.alt_labels)

    def col_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None

    def col(self, name: str) -> np.ndarray:
        return self.values[:, self.col_index(name)]

    def validate_choices(self) -> None:
        """Every row must choose an available alternative."""
        if (self.choice < 0).any() or (self.choice >= self.n_alts).any():
            bad = int(np.flatnonzero((self.choice < 0) | (self.choice >= self.n_alts))[0])
            raise DataError(f"row {bad}: choice index out of range")
        rows = np.arange(self.n_rows)
        ok = self.avail[rows, self.choice] > 0
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise DataError(f"row {bad}: chosen alternative is unavailable")
        if not (self.avail.sum(axis=1) > 0).all():
            bad = int(np.flatnonzero(self.avail.sum(axis=1) == 0)[0])
            raise DataError(f"row {bad}: no available alternative")

    def subset(self, rows: np.ndarray) -> "ChoiceDataset":
        return ChoiceDataset(list(self.columns), self.values[rows], self.avail[rows],
                             self.choice[rows], list(self.alt_labels), dict(self.meta))

    def with_columns(self, names: list[str], values: np.ndarray) -> "ChoiceDataset":
        """Dataset with extra columns appended."""
        stacked = np.hstack([self.values, np.atleast_2d(values.T).T.reshape(self.n_rows, -1)])
        return ChoiceDataset(list(self.columns) + list(names), stacked, self.avail,
                             self.choice, list(self.alt_labels), dict(self.meta))

    def to_csv(self, path: str) -> None:
        header = list(self.columns) + [f"AV_{a}" for a in self.alt_labels] + ["CHOICE"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.n_rows):
                row = [repr(float(x)) for x in self.values[i]]
                row += [str(int(a)) for a in self.avail[i]]
                row.append(str(int(self.choice[i])))
                writer.writerow(row)


@dataclass(frozen=True)
class CsvSchema:
    """How to read a raw CSV into a ChoiceDataset."""

    alt_labels: tuple[str, ...]
    choice_column: str = "CHOICE"
    avail_columns: tuple[str, ...] | None = None  # parallel to alt_labels; None = all available
    choice_base: int = 0  # first alternative's code; Swissmetro uses 1 with 0 = missing


def generic_schema(alt_labels: tuple[str, ...]) -> CsvSchema:
    return CsvSchema(alt_labels=tuple(alt_labels),
                     avail_columns=tuple(f"AV_{a}" for a in alt_labels))


def swissmetro_schema() -> CsvSchema:
    return CsvSchema(alt_labels=("Train", "SM", "Car"), choice_column="CHOICE",
                     avail_columns=("TRAIN_AV", "SM_AV", "CAR_AV"), choice_base=1)


def optima_schema() -> CsvSchema:
    return CsvSchema(alt_labels=("PT", "Car", "SlowModes"), choice_column="Choice",
                     avail_columns=None, choice_base=0)


def _sniff_delimiter(sample: str) -> str:
    counts = {d: sample.count(d) for d in ("\t", ",", ";")}
    return max(counts, key=counts.get) if max(counts.values()) > 0 else ","


def load_csv(path: str, schema: CsvSchema, validate: bool = True) -> ChoiceDataset:
    """Read a delimited text file; errors carry the offending row and column."""
    with open(path, newline="") as fh:
        sample = fh.readline()
        if not sample.strip():
            raise DataError(f"{path}: empty file")
        delim = _sniff_delimiter(sample)
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delim)
        header = [h.strip() for h in next(reader)]
        raw_rows = [r for r in reader if any(cell.strip() for cell in r)]
    if schema.choice_column not in header:
        raise DataError(f"{path}: missing choice column {schema.choice_column!r}")
    special = {schema.choice_column}
    if schema.avail_columns is not None:
        missing = [c for c in schema.avail_columns if c not in header]
        if missing:
            raise DataError(f"{path}: missing availability columns {missing}")
        special |= set(schema.avail_columns)
    feat_cols = [h for h in header if h not in special]
    col_pos = {h: j for j, h in enumerate(header)}

    n, n_alts = len(raw_rows), len(schema.alt_labels)
    values = np.empty((n, len(feat_cols)))
    avail = np.ones((n, n_alts))
    choice = np.empty(n, dtype=np.int64)

    def parse(cell: str, i: int, name: str) -> float:
        try:
            return float(cell)
        except ValueError:
            raise DataError(f"{path}: row {i + 2}, column {name!r}: "
                            f"non-numeric value {cell.strip()!r}") from None

    for i, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2}: expected {len(header)} fields, got {len(row)}")
        for j, name in enumerate(feat_cols):
            values[i, j] = parse(row[col_pos[name]], i, name)
        if schema.avail_columns is not None:
            for k, name in enumerate(schema.avail_columns):
                avail[i, k] = 1.0 if parse(row[col_pos[name]], i, name) > 0 else 0.0
        cell = row[col_pos[schema.choice_column]]
        raw_choice = parse(cell, i, schema.choice_column)
        if not (raw_choice.is_integer() and abs(raw_choice) < 2.0 ** 62):  # int64 after the shift
            raise DataError(f"{path}: row {i + 2}, column {schema.choice_column!r}: "
                            f"choice code {cell.strip()!r} is not a valid integer code")
        choice[i] = int(raw_choice) - schema.choice_base
        if validate and not 0 <= choice[i] < n_alts:
            raise DataError(f"{path}: row {i + 2}, column {schema.choice_column!r}: "
                            f"choice code {cell.strip()!r} is out of range")

    ds = ChoiceDataset(feat_cols, values, avail, choice, list(schema.alt_labels))
    if validate:
        ds.validate_choices()
    return ds


def split(ds: ChoiceDataset, train_fraction: float, seed: int) -> tuple[ChoiceDataset, ChoiceDataset]:
    """Deterministic row shuffle, then ceil(f*n) training rows, rest test."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = ds.n_rows
    target = train_fraction * n
    n_train = int(round(target)) if abs(target - round(target)) < 1e-6 else int(np.ceil(target))
    if not 0 < n_train < n:
        raise ValueError(f"train_fraction {train_fraction} of {n} rows leaves an empty part")
    keys = prng.uniforms(prng.derive_seed(seed, 7), 0, n)
    perm = np.argsort(keys)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


def correlation_matrix(ds: ChoiceDataset, columns: list[str] | None = None) -> tuple[np.ndarray, list[str]]:
    """Pearson correlations; zero-variance columns get 0 with a warning."""
    cols = columns if columns is not None else list(ds.columns)
    x = np.stack([ds.col(c) for c in cols], axis=1)
    sd = x.std(axis=0)
    dead = sd == 0.0
    if dead.any():
        names = [c for c, d in zip(cols, dead) if d]
        warnings.warn(f"zero-variance columns in correlation matrix: {names}")
    centered = x - x.mean(axis=0)
    sd_safe = np.where(dead, 1.0, sd)
    normed = centered / sd_safe
    corr = normed.T @ normed / x.shape[0]
    corr[dead, :] = 0.0
    corr[:, dead] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr, cols


@dataclass
class PartitionReport:
    ok: bool
    errors: list[str]
    advisories: list[str]


def validate_partition(ds: ChoiceDataset, x_columns: tuple[str, ...],
                       q_columns: tuple[str, ...]) -> PartitionReport:
    """Check the interpretability split of columns into linear X and net Q.

    Overlap or unknown columns are errors; an absolute correlation above
    CORR_ADVISORY between an X column and a Q column is an advisory, since a
    nearly collinear net input can proxy for the linear term and bias it.
    """
    errors: list[str] = []
    advisories: list[str] = []
    overlap = sorted(set(x_columns) & set(q_columns))
    if overlap:
        errors.append(f"columns in both X and Q break the interpretability "
                      f"condition dV_net/dx = 0: {overlap}")
    for c in list(x_columns) + list(q_columns):
        if c not in ds.columns:
            errors.append(f"unknown column {c!r}")
    if not errors and x_columns and q_columns:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            corr, cols = correlation_matrix(ds, list(dict.fromkeys(list(x_columns) + list(q_columns))))
        pos = {c: i for i, c in enumerate(cols)}
        for xc in x_columns:
            for qc in q_columns:
                r = corr[pos[xc], pos[qc]]
                if abs(r) > CORR_ADVISORY:
                    advisories.append(f"|corr({xc}, {qc})| = {abs(r):.2f} exceeds "
                                      f"{CORR_ADVISORY}; the net input can proxy for the "
                                      f"linear term and bias its coefficient")
    return PartitionReport(not errors, errors, advisories)


def preprocess_swissmetro(ds: ChoiceDataset, ga_cost_adjust: bool = False) -> ChoiceDataset:
    """Canonical Swissmetro cleanup; idempotent.

    Drops rows with a missing response (raw CHOICE 0) and rows where not all
    three alternatives are available, then scales travel time, cost and
    headway columns by 1/100.  With ``ga_cost_adjust`` the rail fares of
    season-ticket holders (GA = 1) are set to zero.
    """
    if ds.meta.get("preprocessed"):
        return ds
    keep = ds.choice >= 0
    keep &= ds.avail.sum(axis=1) == ds.n_alts
    out = ds.subset(np.flatnonzero(keep))
    for name in SWISSMETRO_SCALED:
        out.values[:, out.col_index(name)] /= 100.0
    if ga_cost_adjust:
        ga = out.col("GA") == 1
        out.values[ga, out.col_index("TRAIN_CO")] = 0.0
        out.values[ga, out.col_index("SM_CO")] = 0.0
    out.meta["preprocessed"] = True
    out.validate_choices()
    return out


OPTIMA_REQUIRED = ("TimePT", "TimeCar", "MarginalCostPT", "CostCarCHF", "distance_km",
                   "TripPurpose", "NbChild", "NbCar", "NbBicy", "OccupStat", "UrbRur",
                   "LangCode", "age", "HouseType", "Gender", "Education", "FamilSitu",
                   "ScaledIncome", "OwnHouse", "MotherTongue", "SocioProfCat")


def preprocess_optima(ds: ChoiceDataset) -> ChoiceDataset:
    """Optima cleanup; idempotent.

    Drops rows with a missing response or a -1 in any used field, derives
    income-normalised costs (MCost_PT, MCost_Car), and maps category fields
    to the indicator columns Work, French, Student, Urban per the public
    codebook (TripPurpose 1, LangCode 1, OccupStat 8, UrbRur 1).
    """
    if ds.meta.get("preprocessed"):
        return ds
    keep = ds.choice >= 0
    for name in OPTIMA_REQUIRED:
        keep &= ds.col(name) != -1.0
    keep &= ds.col("ScaledIncome") > 0
    out = ds.subset(np.flatnonzero(keep))
    income = out.col("ScaledIncome")
    derived = {
        "MCost_PT": out.col("MarginalCostPT") / income,
        "MCost_Car": out.col("CostCarCHF") / income,
        "Work": (out.col("TripPurpose") == 1).astype(float),
        "French": (out.col("LangCode") == 1).astype(float),
        "Student": (out.col("OccupStat") == 8).astype(float),
        "Urban": (out.col("UrbRur") == 1).astype(float),
    }
    out = out.with_columns(list(derived), np.stack(list(derived.values()), axis=1))
    out.meta["preprocessed"] = True
    out.validate_choices()
    return out


def save_truth(path: str, truth: dict) -> None:
    """Sidecar with the generating parameter values, one key=value per line."""
    with open(path, "w") as fh:
        for k, v in truth.items():
            fh.write(f"{k}={v!r}\n")


def load_truth(path: str) -> dict:
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            k, _, v = line.partition("=")
            try:
                out[k.strip()] = ast.literal_eval(v.strip())
            except (ValueError, SyntaxError):
                out[k.strip()] = v.strip()
    return out
