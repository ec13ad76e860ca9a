"""Datasets, CSV loading, canonical preprocessing, splits, screening checks.

A ChoiceDataset is a float64 feature matrix with named columns plus an
availability mask and a chosen-alternative index per row.  Generated and
derived datasets round-trip through CSV with one ``AV_<label>`` column per
alternative and a 0-based ``CHOICE`` column.
"""

from __future__ import annotations

import codecs
import csv
import warnings
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .numcore import prng
from .numcore.program import choice_fault

SWISSMETRO_SCALED = ("TRAIN_TT", "SM_TT", "CAR_TT", "TRAIN_CO", "SM_CO", "CAR_CO",
                     "TRAIN_HE", "SM_HE")
CORR_ADVISORY = 0.8  # |corr| between an X and a Q column above which a fit is warned
LOAD_CELLS = 2**13  # cells `load_csv` holds as strings at once: one block of rows
READ_BYTES = 2**16  # bytes `load_csv` reads at once while it checks the encoding
# a block holding one of these is read by the csv reader, not numpy's: a quote is
# csv syntax, and numpy strips \x1c-\x1f around a number as whitespace, float does not
CSV_ONLY_CHARS = '"\x1c\x1d\x1e\x1f'


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
        """Every row must choose an available alternative (`choice_fault`'s rules)."""
        if fault := choice_fault(~(self.avail > 0), self.choice):
            raise DataError(fault)

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
        avail = self.avail.astype(np.int64)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            # csv writes a Python float by repr, so every value round-trips exactly
            writer.writerows(v.tolist() + a.tolist() + [c]
                             for v, a, c in zip(self.values, avail, self.choice.tolist()))


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


def _cell_value(cell: str, at: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"{at}: non-numeric value {cell.strip()!r}") from None


def _line_ends(path: str) -> int:
    """The count of line ends in the file, once its bytes are known to be UTF-8 text.

    Raises the located DataError of the first byte that is not UTF-8.  The
    file is read in chunks of READ_BYTES.  Each record but the last ends in a
    line end (LF, CR or CR LF) and the header is a record, so the count bounds
    the number of data rows.  A CR LF split between two chunks counts twice,
    which keeps it a bound.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()  # a byte-order mark is UTF-8 too
    newlines = lone_cr = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(READ_BYTES)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is this chunk after the bytes held back from the last
                # one, which are part of one character and so hold no newline
                line = newlines + exc.object[:exc.start].count(b"\n") + 1
                raise DataError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
            if not chunk:
                return newlines + lone_cr
            byte = np.frombuffer(chunk, np.uint8)
            lf, cr = byte == ord("\n"), byte == ord("\r")
            newlines += int(np.count_nonzero(lf))
            lone_cr += int(np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & lf[1:]))


def _records(reader, path: str, before: int = 0):
    """The rows of a ``csv.reader`` that reads the file from after line ``before``,
    its own errors (such as a field over the field size limit) raised as
    ``<path>: line L: <reason>``."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {before + reader.line_num}: {exc}") from None


def load_csv(path: str, schema: CsvSchema, validate: bool = True) -> ChoiceDataset:
    """Read a delimited text file into a dataset; errors carry the offending row and column.

    The format: a header row of unique names, then one row per observation
    with as many fields as the header.  The delimiter (tab, comma or
    semicolon) is the one the header uses most; cells may be quoted and
    padded with whitespace; a UTF-8 byte-order mark before the header is
    dropped.  Rows whose cells are all empty or whitespace are skipped.
    Every cell is read as Python's ``float`` reads it, so ``nan``, ``inf``
    and ``1_000`` are accepted.  The schema's availability cells must be 0 or 1
    and its choice cells integer codes, shifted by ``choice_base`` to a
    0-based index; with ``validate`` each code must name an alternative that
    is available in its row (``validate=False`` keeps other codes, such as
    a missing response, for a preprocessor to drop).  Every column the
    schema does not claim is a feature.

    A byte that is not UTF-8 is reported first, as ``<path>: line L: not
    UTF-8 text``, and an error of the csv reader itself, such as a field
    over its size limit, as ``<path>: line L: <reason>``.  Otherwise the
    first bad row is reported, as ``<path>: row R[, column 'C']: ...`` with
    the header as row 1 and skipped blank rows not counted.  Within a row
    the checks run in the order: field count, features, availability,
    choice code, code range, chosen alternative available.

    The file is read twice: once in fixed chunks to check its encoding and
    count its lines, then in blocks of LOAD_CELLS // width lines, each
    converted and checked into the output arrays before the next is read.  So
    memory is the output arrays and one block, whatever the file's
    length or width.  A block without a quote is converted by numpy's C
    reader, which parses a cell with the routine ``float`` uses, so its
    values are bit for bit those of ``float``.  Any other block (one holding
    a character of CSV_ONLY_CHARS or a line over the csv field size limit,
    one numpy refuses, such as ``1_000``, or one with a bad row) goes through
    the csv reader and ``float`` cell by cell, and every error is raised
    from that path, so the messages are the same on either.
    """
    capacity = _line_ends(path)
    with open(path, encoding="utf-8-sig", newline="") as text:
        sample = text.readline()
        if not sample.strip():
            raise DataError(f"{path}: empty file")
        text.seek(0)
        delimiter = _sniff_delimiter(sample)
        reader = csv.reader(text, delimiter=delimiter)
        header = [h.strip() for h in next(_records(reader, path))]
        for j, name in enumerate(header):
            if name in header[:j]:
                raise DataError(f"{path}: duplicate column {name!r}")
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
        av_cols = list(schema.avail_columns or ())
        feat_idx, av_idx = [col_pos[h] for h in feat_cols], [col_pos[h] for h in av_cols]
        width, n_alts = len(header), len(schema.alt_labels)

        def row_error(i: int, row: list[str]) -> None:
            """Raise the located error of data row ``i``, if it has one, in the checks' order."""
            where = f"{path}: row {i + 2}"
            if len(row) != width:
                raise DataError(f"{where}: expected {width} fields, got {len(row)}")
            for name in feat_cols:
                _cell_value(row[col_pos[name]], f"{where}, column {name!r}")
            for name in av_cols:
                cell, at = row[col_pos[name]], f"{where}, column {name!r}"
                if _cell_value(cell, at) not in (0.0, 1.0):
                    raise DataError(f"{at}: availability {cell.strip()!r} is not 0 or 1")
            cell = row[col_pos[schema.choice_column]]
            at = f"{where}, column {schema.choice_column!r}"
            raw_choice = _cell_value(cell, at)
            if not (raw_choice.is_integer() and abs(raw_choice) < 2.0 ** 62):  # int64 after the shift
                raise DataError(f"{at}: choice code {cell.strip()!r} is not a valid integer code")
            code = int(raw_choice) - schema.choice_base
            if validate and not 0 <= code < n_alts:
                raise DataError(f"{at}: choice code {cell.strip()!r} is out of range")
            if validate and av_cols and float(row[col_pos[av_cols[code]]]) == 0.0:
                raise DataError(f"{at}: chosen alternative {schema.alt_labels[code]!r} "
                                f"is unavailable")

        def first_error(block: list[list[str]], first: int, start: int = 0) -> DataError:
            """The error of the first bad row of ``block``, whose row 0 is data row ``first``."""
            for i in range(start, len(block)):
                try:
                    row_error(first + i, block[i])
                except DataError as err:
                    return err
            raise AssertionError("a flagged row passed its checks")

        def numpy_table(lines: list[str]) -> np.ndarray | None:
            """``lines`` as a table by numpy's C reader, which parses each cell with
            the routine ``float`` uses; None where only the csv reader may read them."""
            joined = "".join(lines)
            if (not joined.strip() or any(c in joined for c in CSV_ONLY_CHARS)
                    or max(map(len, lines)) > csv.field_size_limit()):
                return None
            try:
                table = np.loadtxt(lines, np.float64, delimiter=delimiter, comments=None,
                                   ndmin=2)
            except ValueError:  # a cell float may still read, or a bad row to locate
                return None
            return table if table.shape[1] == width else None

        def csv_block(lines: list[str], before: int) -> tuple[list[list[str]], int]:
            """The non-blank records that begin in ``lines``, the file's lines after
            line ``before``, by the csv reader; and the count of lines they span, more
            than ``len(lines)`` when the last one's quoted line end reads on into the file."""
            block_reader = csv.reader(chain(lines, text), delimiter=delimiter)
            records, block = _records(block_reader, path, before), []
            while block_reader.line_num < len(lines):
                if any(map(str.strip, row := next(records))):
                    block.append(row)
            return block, block_reader.line_num

        def float_table(block: list[list[str]], first: int) -> np.ndarray:
            """``block`` as a table by ``float``, cell by cell, or its first bad row's error."""
            k = len(block)
            if any(len(row) != width for row in block):
                raise first_error(block, first)
            try:
                return np.fromiter(map(float, chain.from_iterable(block)), np.float64,
                                   k * width).reshape(k, width)
            except ValueError:
                raise first_error(block, first) from None

        values = np.empty((capacity, len(feat_cols)))
        avail = np.empty((capacity, n_alts))
        choice = np.empty(capacity, np.int64)
        n, line = 0, reader.line_num  # data rows stored, lines of the file read
        while lines := list(islice(text, max(1, LOAD_CELLS // width))):
            block, spanned = None, len(lines)  # block: the csv reader's records, once read
            table = numpy_table(lines)
            if table is None:
                block, spanned = csv_block(lines, line)
                table = float_table(block, n)
            k = len(table)
            rows_here = slice(n, n + k)
            values[rows_here] = table[:, feat_idx]
            av = table[:, av_idx] if av_cols else np.ones((k, n_alts))
            bad = ~((av == 0.0) | (av == 1.0)).all(axis=1)
            avail[rows_here] = av == 1.0
            raw_choice = table[:, col_pos[schema.choice_column]]
            integral = (np.abs(raw_choice) < 2.0 ** 62) & (raw_choice == np.trunc(raw_choice))
            bad |= ~integral
            code = np.where(integral, raw_choice, 0.0).astype(np.int64) - schema.choice_base
            choice[rows_here] = code
            if validate:
                in_range = (code >= 0) & (code < n_alts)
                chosen = avail[rows_here][np.arange(k), np.where(in_range, code, 0)]
                bad |= ~in_range | (chosen == 0.0)
            if bad.any():
                if block is None:
                    block = csv_block(lines, line)[0]
                raise first_error(block, n, int(np.argmax(bad)))
            n += k
            line += spanned
            del lines, block  # before the next block is read

    # the spare rows of the line-end bound stay allocated behind these views
    return ChoiceDataset(feat_cols, values[:n], avail[:n], choice[:n], list(schema.alt_labels))


def split(ds: ChoiceDataset, train_fraction: float, seed: int) -> tuple[ChoiceDataset, ChoiceDataset]:
    """Deterministic row shuffle, then ceil(f*n) training rows, rest test."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = ds.n_rows
    target = train_fraction * n
    n_train = int(round(target)) if abs(target - round(target)) < 1e-6 else int(np.ceil(target))
    if not 0 < n_train < n:
        raise ValueError(f"train_fraction {train_fraction} of {n} rows leaves an empty part")
    perm = np.argsort(prng.Stream(seed, prng.StreamId.SPLIT).draw(n))
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


def validate_partition(ds: ChoiceDataset, x_columns: tuple[str, ...],
                       q_columns: tuple[str, ...]) -> list[str]:
    """Advisories on the split of columns into linear X and net Q.

    An absolute correlation above CORR_ADVISORY between an X column and a Q
    column is an advisory, since a nearly collinear net input can proxy for
    the linear term and bias it.  The split's errors, columns in both X and
    Q or unknown to ``ds``, are `build_model`'s and the model program's.
    """
    if not (x_columns and q_columns):
        return []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        corr, cols = correlation_matrix(ds, list(dict.fromkeys(list(x_columns) + list(q_columns))))
    pos = {c: i for i, c in enumerate(cols)}
    return [f"|corr({xc}, {qc})| = {abs(r):.2f} exceeds {CORR_ADVISORY}; the net input "
            f"can proxy for the linear term and bias its coefficient"
            for xc in x_columns for qc in q_columns
            if abs(r := corr[pos[xc], pos[qc]]) > CORR_ADVISORY]


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
