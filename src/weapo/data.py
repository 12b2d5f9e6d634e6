"""Columnar dataset, vote-pattern compression, and JSON Lines persistence.

A dataset holds its records as columns: a tuple of ids, an (N, M) int8
matrix of labeling-function votes (1 = fire positive, 0 = abstain),
optional (N, F) float features, and (N,) gold labels in {-1, +1} with 0
marking a record that has none. ``Record`` and ``Dataset.from_records``
build a dataset by hand; nothing in the package iterates over records.

Because every function either fires or abstains, each label model sees a
record only through its vote row. ``Dataset.patterns`` compresses the
rows once into the table every fit and metric reads: the K distinct
patterns in key order, their record and class counts, and an inverse.

``load_dataset`` and ``save_dataset`` read and write JSON Lines files.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, NoReturn, Sequence

import numpy as np

from .payload import not_utf8

VoteVector = tuple[int, ...]
"""Vote bits of one record, in labeling-function index order."""

_RECORD_KEYS = frozenset(("id", "votes", "features", "label"))
_META_KEYS = frozenset(("num_lfs", "lf_names"))


class DatasetFormatError(ValueError):
    """A dataset file or record violates the format contract."""


@dataclass(frozen=True)
class Record:
    """One hand-built data point for ``Dataset.from_records``."""

    id: str
    votes: VoteVector
    features: tuple[float, ...] | None = None
    gold: int | None = None


@dataclass(frozen=True)
class Prior:
    """Known positive-class prevalence P(y = +1), strictly inside (0, 1)."""

    p_plus: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_plus < 1.0):
            raise ValueError(f"p_plus must lie strictly in (0, 1), got {self.p_plus}")


@dataclass(frozen=True, eq=False)
class VotePatterns:
    """Distinct 0/1 vote rows in key order, each with its weights.

    ``rows`` is (K, M) int8, sorted lexicographically, function 0 first.
    ``weights`` (float64) holds each row's record count, or a probability,
    and ``pos`` and ``neg`` the part of it labelled +1 and -1. Fits read
    ``rows`` and ``weights``, metrics ``rows``, ``pos`` and ``neg``, and
    ``rows[inverse]`` rebuilds the votes (None: a table of no records).
    """

    rows: np.ndarray
    weights: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    inverse: np.ndarray | None


def compress_votes(votes: np.ndarray, gold: np.ndarray | None = None) -> VotePatterns:
    """Compress an (N, M) matrix whose entries are positive where a vote
    fired; ``gold`` (+1, -1 or 0 per record) fills ``pos`` and ``neg``.

    Each row is packed to bits and keyed as big-endian unsigned integers:
    one word of 1, 2, 4 or 8 bytes, or 8-byte words past M = 64. One
    ``np.lexsort`` of the keys, first word first, sorts them in key order.
    """
    bits = np.asarray(votes) > 0
    nbytes = -(-bits.shape[1] // 8)
    word = min(8, 1 << (nbytes - 1).bit_length())
    packed = np.zeros((len(bits), -(-nbytes // word) * word), dtype=np.uint8)
    packed[:, :nbytes] = np.packbits(bits, axis=1)
    keys = packed.view(f">u{word}")
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(bits), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty_like(order)
    group[order] = np.cumsum(starts) - 1
    gold = np.zeros(len(bits), dtype=np.int8) if gold is None else np.asarray(gold)
    return VotePatterns(
        rows=bits[order[starts]].astype(np.int8),
        weights=np.bincount(group).astype(np.float64),
        pos=np.bincount(group, weights=gold > 0),
        neg=np.bincount(group, weights=gold < 0),
        inverse=group,
    )


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable columnar dataset with a fixed labeling-function count.

    Parameters
    ----------
    ids : sequence of str
        Record ids, unique, in file/application order.
    votes_matrix : (N, M) array over {0, 1}
        One row of vote bits per record; M is the labeling-function count.
    features_matrix : (N, F) array, optional
        Finite dense features, present for every record or for none.
    gold : (N,) array over {-1, 0, +1}, optional
        Gold labels, 0 where a record has none; omitted means no labels.
    lf_names : sequence of str, optional
        Human-readable labeling-function names, length M when present.

    Notes
    -----
    Validation happens at construction, for hand-built data and for both
    readers of ``load_dataset``: a vote outside {0, 1}, gold outside
    {-1, +1}, non-finite features or a duplicate id (each named by record
    id), lf_names other than a sequence of strings (a bare string
    included), or inconsistent widths raise ``DatasetFormatError``. The
    arrays are stored read-only, so the cached pattern compression stays
    valid.
    """

    ids: tuple[str, ...]
    votes_matrix: np.ndarray
    features_matrix: np.ndarray | None = None
    gold: np.ndarray | None = None
    lf_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        votes = np.asarray(self.votes_matrix)
        if votes.ndim != 2:
            raise DatasetFormatError("votes_matrix must be an (N, M) array")
        if votes.shape[1] < 1:
            raise DatasetFormatError("num_lfs must be at least 1")
        n, m = votes.shape
        if len(ids) != n:
            raise DatasetFormatError(f"{len(ids)} ids for {n} vote rows")
        if not all(isinstance(i, str) for i in ids):
            raise DatasetFormatError("record ids must be strings")
        names = self.lf_names
        if names is not None:
            strings = isinstance(names, Sequence) and all(isinstance(s, str) for s in names)
            if isinstance(names, str) or not strings:
                raise DatasetFormatError("lf_names must be a sequence of strings")
            if len(names) != m:
                raise DatasetFormatError(f"{len(names)} lf_names for {m} labeling functions")
        bad = ~((votes == 0) | (votes == 1)).all(axis=1)
        if bad.any():
            raise DatasetFormatError(f"record {ids[bad.argmax()]!r} has a vote outside {{0, 1}}")
        if len(set(ids)) != n:
            seen: set[str] = set()
            duplicate = next(i for i in ids if i in seen or seen.add(i))
            raise DatasetFormatError(f"duplicate record id {duplicate!r}")
        gold = np.zeros(n, dtype=np.int8) if self.gold is None else np.asarray(self.gold)
        if gold.shape != (n,):
            raise DatasetFormatError(f"gold must have shape ({n},), got {gold.shape}")
        bad = (gold != -1) & (gold != 0) & (gold != 1)
        if bad.any():
            raise DatasetFormatError(f"record {ids[bad.argmax()]!r} has gold outside {{-1, +1}}")
        features = self.features_matrix
        if features is not None:
            features = np.array(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != n:
                raise DatasetFormatError(f"features must have shape ({n}, F)")
            bad = ~np.isfinite(features).all(axis=1)
            if bad.any():
                raise DatasetFormatError(f"record {ids[bad.argmax()]!r} has non-finite features")
            features = _frozen(features)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "votes_matrix", _frozen(votes.astype(np.int8)))
        object.__setattr__(self, "features_matrix", features)
        object.__setattr__(self, "gold", _frozen(gold.astype(np.int8)))
        if names is not None:
            object.__setattr__(self, "lf_names", tuple(names))

    @classmethod
    def from_records(
        cls,
        records: Iterable[Record],
        lf_names: Sequence[str] | None = None,
    ) -> "Dataset":
        """Build a dataset, inferring the labeling-function count from the data."""
        recs = tuple(records)
        if not recs:
            raise DatasetFormatError("cannot infer num_lfs from an empty record list")
        m = len(recs[0].votes)
        has_features = recs[0].features is not None
        feature_dim = len(recs[0].features) if has_features else 0
        for rec in recs:
            if len(rec.votes) != m:
                raise DatasetFormatError(
                    f"record {rec.id!r} has {len(rec.votes)} votes, expected {m}"
                )
            if (rec.features is not None) != has_features:
                raise DatasetFormatError(
                    f"record {rec.id!r} disagrees with the rest of the dataset "
                    "on feature presence"
                )
            if has_features and len(rec.features) != feature_dim:
                raise DatasetFormatError(
                    f"record {rec.id!r} has {len(rec.features)} features, "
                    f"expected {feature_dim}"
                )
        return cls(
            ids=tuple(rec.id for rec in recs),
            votes_matrix=np.array([rec.votes for rec in recs]).reshape(len(recs), m),
            features_matrix=(
                np.array([rec.features for rec in recs], dtype=np.float64).reshape(
                    len(recs), feature_dim
                )
                if has_features
                else None
            ),
            gold=np.array([rec.gold or 0 for rec in recs]),
            lf_names=lf_names,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if (self.features_matrix is None) != (other.features_matrix is None):
            return False
        return (
            self.ids == other.ids
            and self.lf_names == other.lf_names
            and np.array_equal(self.votes_matrix, other.votes_matrix)
            and np.array_equal(self.gold, other.gold)
            and (
                self.features_matrix is None
                or np.array_equal(self.features_matrix, other.features_matrix)
            )
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def num_lfs(self) -> int:
        return int(self.votes_matrix.shape[1])

    @property
    def gold_array(self) -> np.ndarray | None:
        """(N,) int8 gold labels, or None unless every record has one."""
        if len(self) == 0 or not self.gold.all():
            return None
        return self.gold

    @cached_property
    def patterns(self) -> VotePatterns:
        """The table of the vote rows and gold labels, computed once per dataset."""
        return compress_votes(self.votes_matrix, self.gold)


def vote_patterns(votes: Dataset | VotePatterns | np.ndarray) -> VotePatterns:
    """The table a fit or scorer reads: a table as it is, the cached
    patterns of a dataset, or those of a checked signed (N, M) array over
    {-1, +1}, which have no labels."""
    if isinstance(votes, VotePatterns):
        return votes
    if isinstance(votes, Dataset):
        return votes.patterns
    signed = np.asarray(votes)
    if signed.ndim != 2 or signed.shape[0] == 0 or signed.shape[1] == 0:
        raise ValueError("signed votes must be a non-empty (N, M) array")
    if not np.isin(signed, (-1, 1)).all():
        raise ValueError("signed votes must take values in {-1, +1}")
    return compress_votes(signed)


def record_scores(
    score: Callable[[VotePatterns], np.ndarray], votes: Dataset | VotePatterns | np.ndarray
) -> np.ndarray:
    """The ``score`` of each row of the table of ``votes``, gathered to its records."""
    pats = vote_patterns(votes)
    if pats.inverse is None or pats.inverse.size == 0:
        raise ValueError("dataset has no records")
    return score(pats)[pats.inverse]


def coverage_mask(dataset: Dataset) -> np.ndarray:
    """Boolean (N,) mask, true where at least one labeling function fired;
    ``x[coverage_mask(dataset)]`` selects the covered records of ``x``."""
    return dataset.votes_matrix.any(axis=1)


def _parse_meta(obj: dict) -> tuple[int | None, Any]:
    """The declared ``num_lfs`` and the ``lf_names`` of the meta line, which
    ``Dataset`` checks; a key given as null is a fault, not a key left out."""
    meta = obj["meta"]
    if len(obj) != 1:
        raise DatasetFormatError("line 1: the meta line holds only the meta key")
    if not isinstance(meta, dict):
        raise DatasetFormatError("line 1: meta must be an object")
    if not meta.keys() <= _META_KEYS:
        unknown = sorted(meta.keys() - _META_KEYS)[0]
        raise DatasetFormatError(f"line 1: unknown meta key {unknown!r}")
    num_lfs, lf_names = meta.get("num_lfs"), meta.get("lf_names")
    if "num_lfs" in meta and (type(num_lfs) is not int or num_lfs < 1):
        raise DatasetFormatError("line 1: meta num_lfs must be a positive integer")
    if "lf_names" in meta and lf_names is None:
        raise DatasetFormatError("line 1: meta lf_names must be a list of strings")
    return num_lfs, lf_names


_raw_decode = json.JSONDecoder().raw_decode
# What may follow a line's JSON value for the value to be the whole line.
_LINE_ENDS = ("\n", "")


def _loads(line: str, lineno: int) -> Any:
    """``json.loads(line)``, with its errors reported against ``lineno``."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as err:
        raise DatasetFormatError(f"line {lineno}: invalid JSON ({err.msg})") from None
    # json raises RecursionError on input nested deeper than the stack, and
    # ValueError on an integer with more digits than int() converts.
    except (RecursionError, ValueError) as err:
        raise DatasetFormatError(f"line {lineno}: invalid JSON ({err})") from None


def _read_values(lines: Iterable[str]) -> tuple[list, list[int]]:
    """The JSON value of every non-blank line, and the numbers of the blank lines.

    Each line costs one ``raw_decode``, whose value is taken when only the
    line end follows it. Any other line (blank, whitespace around the
    value, two values, a BOM, invalid JSON or nesting deeper than the
    stack) goes through ``json.loads``, which returns the line's value or
    raises the error that names the line.
    """
    values: list = []
    append = values.append
    blank_lines: list[int] = []
    decode = _raw_decode
    for lineno, line in enumerate(lines, start=1):
        try:
            value, end = decode(line)
            if line[end:] in _LINE_ENDS:
                append(value)
                continue
        except (ValueError, RecursionError):
            pass
        if line.isspace():
            blank_lines.append(lineno)
        else:
            append(_loads(line, lineno))
    return values, blank_lines


class _Columns:
    """Record objects of one file, checked column by column.

    Each check runs over a whole column; only when it fails does a loop
    look for the first offending record, whose line number it reports.
    ``objs[i]`` sits on the i-th non-blank line from ``first_line`` on.
    """

    def __init__(self, objs: list, first_line: int, blank_lines: list[int]) -> None:
        self.objs = objs
        self.first_line = first_line
        self.blank_lines = blank_lines

    def fail(self, index: int, message: str) -> NoReturn:
        lineno = self.first_line + index
        # Blank lines are ascending and none precedes first_line.
        for blank in self.blank_lines:
            if blank <= lineno:
                lineno += 1
        raise DatasetFormatError(f"line {lineno}: {message}")

    def check_shape(self) -> None:
        """Every record is a JSON object whose keys are record keys."""
        objs = self.objs
        if set(map(type, objs)) <= {dict} and set().union(*objs) <= _RECORD_KEYS:
            return
        for i, obj in enumerate(objs):
            if type(obj) is not dict:
                self.fail(i, "expected a JSON object")
            if not obj.keys() <= _RECORD_KEYS:
                if "meta" in obj:
                    self.fail(i, "meta only allowed on line 1")
                self.fail(i, f"unknown record key {sorted(obj.keys() - _RECORD_KEYS)[0]!r}")

    def required(self, key: str, kind: type, message: str) -> list:
        values = [obj.get(key) for obj in self.objs]
        if not set(map(type, values)) <= {kind}:
            i = next(i for i, v in enumerate(values) if type(v) is not kind)
            self.fail(i, f"missing key {key!r}" if key not in self.objs[i] else message)
        return values

    def optional(self, key: str) -> tuple[np.ndarray, list]:
        present = np.array([key in obj for obj in self.objs], dtype=bool)
        return present, [obj[key] for obj in self.objs if key in obj]

    def matrix(
        self, rows: list, width: int | None, kinds: set[type], dtype: type, noun: str
    ) -> np.ndarray:
        """Stack one list of numbers per record into an array, or name the
        first bad line. ``width`` is the required row length (the first
        row's when None).
        """
        message = f"{noun} must be a list of " + (
            "0/1 integers" if kinds == {int} else "finite numbers"
        )
        if not set(map(type, rows)) <= {list}:
            self.fail(next(i for i, r in enumerate(rows) if type(r) is not list), message)
        if width is None:
            width = len(rows[0]) if rows else 0
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        if (lengths != width).any():
            i = int((lengths != width).argmax())
            self.fail(i, f"record has {lengths[i]} {noun}, expected {width}")
        if not set(map(type, chain.from_iterable(rows))) <= kinds:
            bad = next(i for i, r in enumerate(rows) if not set(map(type, r)) <= kinds)
            self.fail(bad, message)
        try:
            flat = np.fromiter(chain.from_iterable(rows), dtype, count=len(rows) * width)
        except OverflowError:
            for i, row in enumerate(rows):
                try:
                    np.fromiter(row, dtype, count=width)
                except OverflowError:
                    self.fail(i, message)
        return flat.reshape(len(rows), width)


def _dataset_from_values(values: list, blank_lines: list[int]) -> Dataset:
    """Check the JSON values of a file's non-blank lines and build the dataset."""
    declared_m: int | None = None
    lf_names: Any = None
    first_line = 1
    if (
        values
        and blank_lines[:1] != [1]
        and type(values[0]) is dict
        and "meta" in values[0]
    ):
        declared_m, lf_names = _parse_meta(values[0])
        del values[0]
        first_line = 2
    if declared_m is None and not values:
        if first_line == 2:
            raise DatasetFormatError("line 1: the meta line lacks num_lfs and no records follow")
        raise DatasetFormatError("no records and no meta line")
    cols = _Columns(values, first_line, blank_lines)
    cols.check_shape()
    n = len(values)
    ids = cols.required("id", str, "id must be a string")
    vote_rows = cols.required("votes", list, "votes must be a list of 0/1 integers")
    votes = cols.matrix(vote_rows, declared_m, {int}, np.int8, "votes")
    labelled, labels = cols.optional("label")
    gold = np.zeros(n, dtype=np.int8)
    if labels:
        where = np.flatnonzero(labelled)
        if not set(map(type, labels)) <= {int}:
            cols.fail(where[next(i for i, g in enumerate(labels) if type(g) is not int)],
                      "label must be the integer -1 or 1")
        if not set(labels) <= {-1, 1}:
            cols.fail(where[next(i for i, g in enumerate(labels) if g not in (-1, 1))],
                      "label must be the integer -1 or 1")
        gold[labelled] = labels
    featured, feature_rows = cols.optional("features")
    features = None
    if feature_rows:
        if not featured.all():
            cols.fail(int((featured != featured[0]).argmax()),
                      "record disagrees with the rest of the dataset on feature presence")
        features = cols.matrix(feature_rows, None, {int, float}, np.float64, "features")
    return Dataset(
        ids=tuple(ids),
        votes_matrix=votes,
        features_matrix=features,
        gold=gold,
        lf_names=lf_names,
    )


# A feature number as ``repr(float)`` writes it: JSON number syntax with a
# fraction or an exponent, so json parses it with ``float()`` too. The
# integer form is left to json, which reads ``-0`` as +0.0.
_FLOAT = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"


def _differ(body: np.ndarray, at: np.ndarray, text: bytes) -> bool:
    """Whether some ``body[at[i] : at[i] + len(text)]`` is not ``text``."""
    windows = np.lib.stride_tricks.sliding_window_view(body, len(text))[at]
    return bool((windows != np.frombuffer(text, dtype=np.uint8)).any())


def _spans(body: np.ndarray, begin: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The bytes ``body[begin[i] : stop[i]]`` of ascending disjoint spans, concatenated."""
    edges = np.column_stack((begin, stop)).ravel()
    inside = np.arange(len(edges) + 1) % 2 == 1
    return body[np.repeat(inside, np.diff(edges, prepend=0, append=len(body)))]


def _feature_matrix(body: np.ndarray, opens: np.ndarray, closes: np.ndarray) -> np.ndarray | None:
    """The floats between ``[`` at ``opens`` and ``]`` at ``closes``, or None
    unless each row holds as many in ``repr`` form as the first. A regex ``sub``
    checks them (``fullmatch`` keeps state per repetition, 20x the text), and
    one numpy parse, by ``float``'s own parser, reads them with no object each."""
    text = _spans(body, opens + 1, closes + 1).tobytes()
    n, width = len(opens), text.count(b",", 0, closes[0] - opens[0]) + (closes[0] > opens[0] + 1)
    if text.count(b"]") != n or re.sub(b",".join([_FLOAT] * width) + rb"\]", b"", text):
        return None
    floats = np.fromstring(text.replace(b"]", b","), np.float64, n * width, sep=",")
    return floats.reshape(n, width)


def _canonical_dataset(data: bytes) -> Dataset | None:
    """The dataset of a file's bytes in the canonical layout ``save_dataset``
    writes, or None for any other: a meta line with ``num_lfs``, then one
    line per record with compact separators, keys in the order ``id``,
    ``votes``, ``features``, ``label``, an id without escapes or control
    characters, 0/1 digit votes, float-form features of one width, and a
    newline after every line. The bytes are read column-wise: each line is
    cut from its end (tail, features, fixed-width votes, whose first quote
    closes the id), a gathered window per line checks each fixed part, all
    ids are cut out with one gather, one decode and one split, and the
    ``Dataset`` constructor checks the values."""
    meta_end = data.find(b"\n")
    if meta_end < 0 or not data.endswith(b"\n"):
        return None
    try:
        num_lfs, lf_names = _parse_meta(json.loads(data[:meta_end].decode("utf-8")))
    except (KeyError, TypeError, ValueError, RecursionError):  # not JSON with a meta key
        return None
    if num_lfs is None:
        return None
    body = np.frombuffer(data, dtype=np.uint8)[meta_end + 1 :]
    if not len(body):
        return Dataset(ids=(), votes_matrix=np.empty((0, num_lfs)), lf_names=lf_names)
    ends = np.flatnonzero(body == ord("\n"))
    starts = np.append(0, ends[:-1] + 1)
    segment = b'","votes":[' + b",".join([b"0"] * num_lfs) + b"]"
    if (ends - starts < 8 + len(segment)).any():
        return None
    # A line ends in "}", ',"label":1}' or ',"label":-1}', from closes on.
    labelled = body[ends - 2] == ord("1")
    negative = labelled & (body[ends - 3] == ord("-"))
    closes = ends - 1 - 10 * labelled - negative
    featured = b'],"features":[' in data[meta_end : meta_end + 1 + ends[0]]
    if featured:
        opens = np.flatnonzero(body == ord("["))
        opens = opens[np.maximum(np.searchsorted(opens, closes - 1) - 1, 0)]
    id_ends = (opens - 12 if featured else closes) - len(segment)
    # Each gather runs once the checks before it keep it inside its line.
    if (
        (id_ends < starts + 7).any()
        or (body[ends - 1] != ord("}")).any()
        or _differ(body, closes[labelled], b',"label":')
        or _differ(body, starts, b'{"id":"')
        or featured and (body[closes - 1] != ord("]")).any()
        or featured and _differ(body, opens - 12, b',"features":[')
    ):
        return None
    votes = np.lib.stride_tricks.sliding_window_view(body, len(segment))[id_ends]
    digits = votes[:, 11::2] - ord("0")
    votes[:, 11::2] = ord("0")
    # Each id with its closing quote, which no id holds.
    id_text = _spans(body, starts + 7, id_ends + 1)
    features = _feature_matrix(body, opens, closes - 1) if featured else None
    if (
        (digits > 1).any()
        or (votes != np.frombuffer(segment, dtype=np.uint8)).any()
        or ((id_text < 0x20) | (id_text == ord("\\"))).any()
        or np.count_nonzero(id_text == ord('"')) != len(ends)
        or featured and features is None
    ):
        return None
    # Every byte outside the ids is ASCII by now, so a byte that is not UTF-8
    # fails here as it would in the whole file: same byte, same reason.
    ids = id_text.tobytes().decode("utf-8")[:-1].split('"')
    return Dataset(ids=ids, votes_matrix=digits, features_matrix=features,
                   gold=labelled - 2 * negative, lf_names=lf_names)


def load_dataset(path: str) -> Dataset:
    """Read a dataset from a JSON Lines file.

    The first line may be a meta object ``{"meta": {"num_lfs": M,
    "lf_names": [...]}}``; every other non-blank line is one record object
    with keys ``id`` (a string), ``votes`` (a list of the integers 0 and
    1), and optionally ``features`` (a list of finite numbers, on every
    record or on none) and ``label`` (the integer -1 or 1). Any other key,
    a JSON ``true``/``false`` or ``null`` where a number belongs, and a
    non-integer label are errors. Blank lines and whitespace around a
    line's object are allowed.

    The file is opened and read once, so ``path`` may be a pipe. A file in
    the canonical layout ``save_dataset`` writes is read column-wise over
    its bytes (see ``_canonical_dataset``), any other by the JSON reader:
    one ``raw_decode`` per line, then checks column by column. Both give
    the same dataset. The cyclic garbage collector is paused while either
    runs: they make many new containers and no cycles, so a collection
    would only re-scan them.

    Raises
    ------
    DatasetFormatError
        With a message that starts with ``path``. Bytes that are not UTF-8
        are refused before any line is parsed. Then, named by the first
        offending line: invalid JSON on any line; the meta line and the
        shape of each record (not an object, an unknown key, a meta object
        after line 1); one column at a time, ``id``, ``votes``, ``label``,
        ``features``, for JSON types, widths and integer overflow. Last,
        the value checks of ``Dataset``, which name a record by its id.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:  # line ends as text mode reads them
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        dataset = _canonical_dataset(data)
        if dataset is None:
            # Only "\n" ends a line, not U+2028 and the others str.splitlines
            # splits at; io.StringIO would copy the text at 4 bytes a character.
            lines = (line[0] for line in re.finditer(r".*\n|.+", data.decode("utf-8")))
            del data
            dataset = _dataset_from_values(*_read_values(lines))
        return dataset
    except DatasetFormatError as err:
        raise DatasetFormatError(f"{path}: {err}") from None
    except UnicodeDecodeError as err:
        raise DatasetFormatError(f"{path}: {not_utf8(err)}") from None
    finally:
        if gc_was_enabled:
            gc.enable()


def _json_list(values: Sequence) -> str:
    return "[" + ",".join(map(repr, values)) + "]"


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset as JSON Lines, meta line first.

    Output is canonical (fixed key order, compact separators, shortest
    round-tripping float repr), so saving the same dataset twice produces
    byte-identical files. The text of each distinct vote row is built
    once and shared by every record carrying it; the file is one write.
    """
    pats = dataset.patterns
    vote_text = [',"votes":' + _json_list(row) for row in pats.rows.tolist()]
    features = (
        [',"features":' + _json_list(row) for row in dataset.features_matrix.tolist()]
        if dataset.features_matrix is not None
        else repeat("")
    )
    label_text = {-1: ',"label":-1', 0: "", 1: ',"label":1'}
    meta: dict = {"num_lfs": dataset.num_lfs}
    if dataset.lf_names is not None:
        meta["lf_names"] = list(dataset.lf_names)
    records = zip(dataset.ids, pats.inverse.tolist(), features, dataset.gold.tolist())
    lines = [json.dumps({"meta": meta}, separators=(",", ":")) + "\n"] + [
        f'{{"id":{encode_basestring_ascii(rid)}{vote_text[k]}{feature}{label_text[g]}}}\n'
        for rid, k, feature, g in records
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
