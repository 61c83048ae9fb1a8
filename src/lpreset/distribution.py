"""Historical price ingestion and the stationary next-price distribution h(k).

h(k) is the probability that the price moves k bins in one time step,
estimated as a normalized histogram of percent changes over 2*k_max+1 bins
of width ``bin_width_pct`` centered on zero.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import InputError

__all__ = [
    "PriceSeries",
    "NextPriceDistribution",
    "load_price_csv",
    "percent_changes",
    "fit_distribution",
    "stability_correlation",
]

DEFAULT_K_MAX = 64
DEFAULT_BIN_WIDTH_PCT = 6.0 / 128.0  # 129 bins spanning [-3%, 3%]
# characters on which numpy's reader and ``csv`` + ``float`` could disagree: a
# quote (csv quoting) and U+001C..U+001F (whitespace to numpy, not to float)
NOT_PLAIN = '"\x1c\x1d\x1e\x1f'


@dataclass(frozen=True)
class PriceSeries:
    """Uniformly sampled price observations (timestamps in epoch seconds)."""

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        px = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)
        if ts.shape != px.shape:
            raise InputError("timestamps and prices must have the same length")
        if len(px) < 2:
            raise InputError("need at least 2 price observations")
        if not np.all(np.isfinite(ts)):
            raise InputError("timestamps must be finite")
        if not np.all(np.isfinite(px)):
            raise InputError("prices must be finite")
        if not np.all(np.diff(ts) > 0):
            raise InputError("timestamps must be strictly increasing")
        if not np.all(px > 0):
            raise InputError("prices must be strictly positive")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class NextPriceDistribution:
    """Binned percent-change law h(k) over relative offsets k in [-k_max, k_max]."""

    k_max: int
    probs: np.ndarray  # ordered from k = -k_max to +k_max
    bin_width_pct: float
    source_rows: int = 0

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if self.k_max < 1:
            raise InputError(f"k_max must be >= 1, got {self.k_max}")
        if not 0 < self.bin_width_pct < math.inf:
            raise InputError(f"bin_width_pct must be finite and > 0, got {self.bin_width_pct}")
        if p.shape != (2 * self.k_max + 1,):
            raise InputError(
                f"probs must have length {2 * self.k_max + 1}, got {p.shape}"
            )
        if not np.all(p >= 0.0):  # NaN fails too; inf fails the sum below
            raise InputError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise InputError(f"probabilities must sum to 1, got {p.sum()!r}")

    def prob(self, k: int) -> float:
        """h(k); zero outside the support."""
        return float(self.probs[k + self.k_max]) if abs(k) <= self.k_max else 0.0

    def prob_array(self, ks: np.ndarray) -> np.ndarray:
        """Vectorized h over arbitrary integer offsets (zero outside support)."""
        return at_offsets(self.probs, ks)

    def to_json_dict(self) -> dict:
        return {
            "k_max": int(self.k_max),
            "bin_width_pct": float(self.bin_width_pct),
            "probs": [float(p) for p in self.probs],
            "source_rows": int(self.source_rows),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NextPriceDistribution":
        try:
            return cls(
                k_max=json_count(doc["k_max"]),
                probs=np.array([json_number(p) for p in doc["probs"]]),
                bin_width_pct=json_number(doc["bin_width_pct"]),
                source_rows=json_count(doc.get("source_rows", 0)),
            )
        except KeyError as exc:
            raise InputError(f"distribution document missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad distribution document: {exc}") from exc

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "NextPriceDistribution":
        return cls.from_json_dict(read_json(path))


def centred(values: np.ndarray, n: int) -> np.ndarray:
    """A new array of v(j) for |j| <= n, zero past the stored half-width.

    ``values`` holds v(j) for |j| <= m, centred at index m. The copy is
    zeros and one slice, which is twice as fast as ``np.pad`` on the E_u path.
    """
    m = (len(values) - 1) // 2
    k = min(n, m)
    out = np.zeros(2 * n + 1)
    out[n - k : n + k + 1] = values[m - k : m + k + 1]
    return out


def at_offsets(values: np.ndarray, js) -> np.ndarray:
    """v(j) of a centred vector at integer offsets ``js``; those past it read 0.

    ``js`` is clipped to one past the stored half-width, so no array grows
    with the largest offset.
    """
    n = (len(values) + 1) // 2
    return centred(values, n)[np.clip(js, -n, n) + n]


def read_json(path: str):
    """The JSON document at ``path``; text that is not JSON is an InputError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InputError(f"{path}: not a JSON document ({exc})") from exc


def json_number(value) -> float:
    """A JSON number as a float; a string or a bool is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def json_count(value) -> int:
    """A JSON number with a whole value, as an int."""
    if not json_number(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _parse_timestamp(raw: str) -> float:
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise InputError(f"unparseable timestamp {raw!r}") from exc
    if stamp.tzinfo is None:  # naive timestamps are UTC, whatever the local zone
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def load_price_csv(path: str) -> PriceSeries:
    """Read a ``timestamp,price`` CSV (ISO-8601 or epoch-second timestamps).

    The header is read with ``csv``: the two columns are found by name, in
    any order and among other columns. The data rows go through numpy's C
    reader in one call; it converts a field with the same
    ``PyOS_string_to_double`` as ``float``, so an accepted field has the
    same value. A file it refuses (an ISO-8601 timestamp, a bad or missing
    field) or whose text could split or convert otherwise under ``csv``
    (see ``NOT_PLAIN``) takes the row-by-row ``_parse_rows``, which reports
    the first bad field in file order. Blank lines are skipped either way.
    Bytes that the file's encoding cannot decode are an InputError that
    names their position in the file.
    """
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from exc
        if header is None or not {"timestamp", "price"} <= set(header):
            raise InputError(f"{path}: expected header with 'timestamp,price'")
        # a repeated column name means its last column, as in a dict of the row
        column = {name: i for i, name in enumerate(header)}
        ti, pi = column["timestamp"], column["price"]
        data = _read_plain(fh, ti, pi)
        if data is None:
            fh.seek(0)
            rows = filter(None, csv.reader(fh))  # a blank line reads as []
            next(rows)  # the header
            try:
                data = np.fromiter(_parse_rows(path, rows, ti, pi), dtype=np.float64)
            except UnicodeDecodeError as exc:
                raise _undecodable(path, exc) from exc
            data = data.reshape(-1, 2)
    if len(data) < 2:
        raise InputError(f"{path}: need at least 2 rows")
    timestamps, prices = data.T.copy()
    return PriceSeries(timestamps, prices)


def _undecodable(path: str, exc: UnicodeDecodeError) -> InputError:
    """The InputError for text of ``path`` that its encoding cannot decode.

    A text file decodes chunk by chunk, so ``exc`` counts its position from
    the start of a chunk; decoding the whole file again finds the same first
    bad byte at its offset in the file.
    """
    with open(path, "rb") as fh:
        try:
            fh.read().decode(exc.encoding)
        except UnicodeDecodeError as whole:
            exc = whole
    return InputError(f"{path}: {exc}")


def _read_plain(fh, ti: int, pi: int) -> np.ndarray | None:
    """(timestamp, price) rows of the rest of ``fh`` by numpy's reader.

    None when the reader refuses them or when the text holds one of
    ``NOT_PLAIN``, which is looked for in bounded chunks.
    """
    try:
        with warnings.catch_warnings():  # a file without data rows is our error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(
                fh, delimiter=",", comments=None, usecols=(ti, pi),
                dtype=np.float64, ndmin=2,
            )
    except ValueError:  # UnicodeDecodeError too: the csv pass raises it in order
        return None
    fh.seek(0)
    while chunk := fh.read(1 << 16):
        if any(map(chunk.__contains__, NOT_PLAIN)):
            return None
    return data


def _parse_rows(path: str, rows, ti: int, pi: int):
    """The timestamp, then the price, of each data row, parsed one row at a time."""
    need = max(ti, pi) + 1
    for n, row in enumerate(rows, start=1):
        if len(row) < need:
            raise InputError(f"{path}: data row {n} has {len(row)} fields, need {need}")
        timestamp = _parse_timestamp(row[ti])
        try:
            price = float(row[pi])
        except ValueError as exc:
            raise InputError(f"{path}: bad price {row[pi]!r}") from exc
        yield timestamp
        yield price


def percent_changes(series: PriceSeries) -> np.ndarray:
    """Per-step percent change, 100 * (P_{n+1} - P_n) / P_n."""
    px = series.prices
    return 100.0 * np.diff(px) / px[:-1]


def fit_distribution(
    changes: np.ndarray,
    k_max: int = DEFAULT_K_MAX,
    bin_width_pct: float = DEFAULT_BIN_WIDTH_PCT,
    clamp_tails: bool = True,
) -> NextPriceDistribution:
    """Histogram percent changes into 2*k_max+1 bins centered on zero.

    Bin k covers [(k-0.5)*w, (k+0.5)*w); an edge value belongs to the higher
    bin. With ``clamp_tails`` the out-of-range mass folds into the edge bins,
    otherwise it is dropped before normalization.
    """
    changes = np.asarray(changes, dtype=float)
    if changes.size == 0:
        raise InputError("no percent changes to fit")
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    if not 0 < bin_width_pct < math.inf:
        raise InputError(f"bin_width_pct must be finite and > 0, got {bin_width_pct}")
    if not np.all(np.isfinite(changes)):
        raise InputError("percent changes must be finite")

    # clamped or dropped in float: at a tiny width a bin number passes the
    # int range (or the float range, as inf), where the cast gives INT_MIN
    with np.errstate(over="ignore"):
        ks = np.floor(changes / bin_width_pct + 0.5)
    if clamp_tails:
        ks = np.clip(ks, -k_max, k_max)
    else:
        ks = ks[np.abs(ks) <= k_max]
        if ks.size == 0:
            raise InputError("all samples fell outside the binned range")
    ks = ks.astype(int)
    counts = np.bincount(ks + k_max, minlength=2 * k_max + 1).astype(float)
    return NextPriceDistribution(
        k_max=k_max,
        probs=counts / counts.sum(),
        bin_width_pct=bin_width_pct,
        source_rows=int(ks.size),
    )


def stability_correlation(
    d1: NextPriceDistribution, d2: NextPriceDistribution
) -> float:
    """Pearson correlation of two probability vectors (square for the r^2 diagnostic)."""
    if d1.k_max != d2.k_max or d1.bin_width_pct != d2.bin_width_pct:
        raise InputError("distributions must share k_max and bin width")
    x, y = d1.probs, d2.probs
    xc, yc = x - x.mean(), y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise InputError("degenerate (constant) distribution has no correlation")
    return float(xc @ yc) / denom
