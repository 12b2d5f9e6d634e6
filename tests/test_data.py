"""Dataset construction, vote compression, coverage, and JSONL round-trips."""

import gc
import importlib.util
import json
import os
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weapo import data
from weapo import (
    Dataset,
    DatasetFormatError,
    Prior,
    Record,
    coverage_mask,
    load_dataset,
    save_dataset,
)
from weapo.data import compress_votes
from oracles import compress_votes_void, load_dataset_per_line, make_dataset


class TestValidation:
    def test_minimal_dataset(self):
        ds = make_dataset([(1, 0), (0, 1)])
        assert ds.num_lfs == 2
        assert len(ds) == 2

    def test_duplicate_id_rejected(self):
        with pytest.raises(DatasetFormatError, match="duplicate record id"):
            Dataset.from_records(
                [Record(id="a", votes=(1,)), Record(id="a", votes=(0,))]
            )

    def test_vote_width_mismatch_rejected(self):
        with pytest.raises(DatasetFormatError, match="expected 2"):
            Dataset.from_records(
                (Record(id="a", votes=(1, 0)), Record(id="b", votes=(1,)))
            )

    def test_non_string_id_rejected(self):
        with pytest.raises(DatasetFormatError, match="ids must be strings"):
            Dataset.from_records([Record(id=5, votes=(1,))])

    def test_vote_value_rejected(self):
        with pytest.raises(DatasetFormatError, match=r"vote outside \{0, 1\}"):
            Dataset.from_records([Record(id="a", votes=(1, 2))])

    def test_gold_value_rejected(self):
        """The constructor checks gold; a non-integer is refused, not
        truncated by a cast."""
        for gold in (2, 1.5):
            with pytest.raises(DatasetFormatError, match=r"^record 'a' has gold outside \{-1, \+1\}$"):
                Dataset.from_records([Record(id="a", votes=(1,), gold=gold)])

    def test_gold_zero_means_no_label(self):
        """As in the constructor, gold 0 is a record without a label."""
        def build(gold):
            return Dataset.from_records(
                [Record(id="a", votes=(1,), gold=gold), Record(id="b", votes=(0,), gold=1)]
            )

        assert build(0) == build(None)

    def test_mixed_feature_presence_rejected(self):
        """All records carry features or none do, in either order."""
        with pytest.raises(DatasetFormatError, match="feature presence"):
            Dataset.from_records(
                [
                    Record(id="a", votes=(1,), features=(0.5,)),
                    Record(id="b", votes=(0,)),
                ]
            )
        with pytest.raises(DatasetFormatError, match="feature presence"):
            Dataset.from_records(
                [
                    Record(id="a", votes=(1,)),
                    Record(id="b", votes=(0,), features=(0.5,)),
                ]
            )

    def test_feature_width_mismatch_rejected(self):
        with pytest.raises(DatasetFormatError, match="features"):
            Dataset.from_records(
                [
                    Record(id="a", votes=(1,), features=(0.5, 1.0)),
                    Record(id="b", votes=(0,), features=(0.5,)),
                ]
            )

    def test_lf_names_length_checked(self):
        with pytest.raises(DatasetFormatError, match="lf_names"):
            make_dataset([(1, 0)], lf_names=("only_one",))

    @pytest.mark.parametrize("lf_names", [(1,), "ab", ("a", None), {"a", "b"}])
    def test_lf_names_must_be_a_sequence_of_strings(self, lf_names):
        """Refused at construction, as the loaders refuse them in a file;
        a bare string was once split into its characters."""
        with pytest.raises(DatasetFormatError, match="lf_names must be a sequence of strings"):
            Dataset(ids=("a",), votes_matrix=np.ones((1, len(lf_names)), dtype=np.int8),
                    lf_names=lf_names)
        with pytest.raises(DatasetFormatError, match="lf_names must be a sequence of strings"):
            make_dataset([(1,) * len(lf_names)], lf_names=lf_names)

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"votes_matrix": np.ones(2)}, r"votes_matrix must be an \(N, M\) array"),
            ({"votes_matrix": np.ones((2, 0))}, "num_lfs must be at least 1"),
            ({"ids": ("a",)}, "1 ids for 2 vote rows"),
            ({"gold": np.ones((2, 1))}, r"gold must have shape \(2,\), got \(2, 1\)"),
            ({"gold": np.array([1, 2])}, r"record 'b' has gold outside \{-1, \+1\}"),
            ({"features_matrix": np.ones(2)}, r"features must have shape \(2, F\)"),
            ({"features_matrix": np.ones((3, 1))}, r"features must have shape \(2, F\)"),
        ],
    )
    def test_constructor_refusals(self, columns, message):
        """The loaders and from_records check these widths first, so only
        a direct construction reaches the constructor's own width checks;
        a gold value is checked here alone, whatever built the dataset."""
        with pytest.raises(DatasetFormatError, match=message):
            Dataset(**{"ids": ("a", "b"), "votes_matrix": np.ones((2, 2)), **columns})

    def test_from_no_records_rejected(self):
        with pytest.raises(DatasetFormatError, match="empty record list"):
            Dataset.from_records([])

    def test_prior_range(self):
        Prior(0.5)
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ValueError):
                Prior(bad)


class TestMatrices:
    def test_votes_matrix_row_per_record(self):
        ds = make_dataset([(1, 0), (0, 1), (1, 1)])
        np.testing.assert_array_equal(ds.votes_matrix, [[1, 0], [0, 1], [1, 1]])

    def test_gold_array_none_when_partial(self):
        ds = Dataset.from_records(
            [Record(id="a", votes=(1,), gold=1), Record(id="b", votes=(0,))]
        )
        assert ds.gold_array is None


class TestColumns:
    def test_equality_compares_arrays(self):
        a = Dataset.from_records(
            [Record(id="a", votes=(1, 0), features=(0.5,), gold=1),
             Record(id="b", votes=(0, 1), features=(1.5,))]
        )
        same = Dataset(
            ids=("a", "b"),
            votes_matrix=np.array([[1, 0], [0, 1]]),
            features_matrix=np.array([[0.5], [1.5]]),
            gold=np.array([1, 0]),
        )
        assert a == same and not a != same
        assert (a == "x") is False and a != object()
        for other in (
            Dataset(ids=("a", "c"), votes_matrix=a.votes_matrix,
                    features_matrix=a.features_matrix, gold=a.gold),
            Dataset(ids=a.ids, votes_matrix=[[1, 1], [0, 1]],
                    features_matrix=a.features_matrix, gold=a.gold),
            Dataset(ids=a.ids, votes_matrix=a.votes_matrix,
                    features_matrix=[[0.5], [2.5]], gold=a.gold),
            Dataset(ids=a.ids, votes_matrix=a.votes_matrix, gold=a.gold),
            Dataset(ids=a.ids, votes_matrix=a.votes_matrix,
                    features_matrix=a.features_matrix, gold=[1, -1]),
            Dataset(ids=a.ids, votes_matrix=a.votes_matrix,
                    features_matrix=a.features_matrix, gold=a.gold, lf_names=("x", "y")),
        ):
            assert a != other

    def test_arrays_are_read_only(self):
        ds = make_dataset([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            ds.votes_matrix[0, 0] = 0

    def test_compression_rebuilds_votes_in_key_order(self):
        """Rows come out distinct and sorted, function 0 first, with the
        record count and the counts of each label as float64 weights."""
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(1, 20))
            votes = (rng.random((int(rng.integers(1, 12)), m)) < 0.4).astype(np.int8)
            votes = votes[rng.integers(0, len(votes), size=n)]
            gold = rng.choice([-1, 0, 1], size=n)
            pats = compress_votes(votes, gold)
            np.testing.assert_array_equal(pats.rows[pats.inverse], votes)
            for weights, kept in ((pats.weights, np.ones(n, bool)), (pats.pos, gold == 1),
                                  (pats.neg, gold == -1)):
                assert weights.dtype == np.float64
                np.testing.assert_array_equal(
                    weights, np.bincount(pats.inverse[kept], minlength=len(pats.rows))
                )
            rows = [tuple(r) for r in pats.rows.tolist()]
            assert rows == sorted(set(rows))

    def test_signed_votes_compress_by_sign_in_key_order(self):
        pats = compress_votes(np.array([[1, -1], [-1, -1], [1, -1]]))
        np.testing.assert_array_equal(pats.rows, [[0, 0], [1, 0]])
        np.testing.assert_array_equal(pats.inverse, [1, 0, 1])
        np.testing.assert_array_equal(pats.pos + pats.neg, [0.0, 0.0])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,)], ids=["no-rows", "no-columns", "1-d"])
    def test_vote_patterns_refuses_an_empty_or_flat_array(self, shape):
        with pytest.raises(ValueError, match=r"^signed votes must be a non-empty \(N, M\) array$"):
            data.vote_patterns(np.ones(shape, dtype=np.int8))

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17, 64, 65, 100])
    @pytest.mark.parametrize("signed", [False, True], ids=["01", "signed"])
    def test_integer_keys_match_void_keys_bitwise(self, m, signed):
        """Integer words of every width, one or several per row, give the
        void-key compression's rows, counts and inverse, dtypes included:
        on duplicate-heavy votes, on all-distinct rows and on no rows."""
        rng = np.random.default_rng(m)
        few = (rng.random((int(rng.integers(1, 30)), m)) < 0.3).astype(np.int8)
        cases = [
            few[rng.integers(0, len(few), size=2000)],
            (rng.random((300, m)) < 0.5).astype(np.int8),
            np.zeros((0, m), dtype=np.int8),
        ]
        # Rows that differ only in their last vote, past every word boundary.
        ends = np.zeros((40, m), dtype=np.int8)
        ends[::2, -1] = 1
        cases.append(ends)
        for votes in cases:
            if signed:
                votes = 2 * votes - 1
            pats = compress_votes(votes)
            for got, want in zip((pats.rows, pats.weights, pats.inverse),
                                 compress_votes_void(votes)):
                np.testing.assert_array_equal(got, want, strict=True)


class TestSlices:
    def test_coverage_mask_values(self):
        ds = make_dataset([(1, 0), (0, 0), (1, 1)])
        np.testing.assert_array_equal(coverage_mask(ds), [1, 0, 1])

    def test_coverage_mask_extremes(self):
        np.testing.assert_array_equal(coverage_mask(make_dataset([(0, 0)] * 3)), [0, 0, 0])
        np.testing.assert_array_equal(coverage_mask(make_dataset([(1, 1)] * 3)), [1, 1, 1])

    def test_coverage_mask_indexing_selects_the_covered_records(self):
        """The mask is boolean, so indexing with it keeps exactly the
        covered records rather than gathering rows 0 and 1."""
        ds = make_dataset([(0, 0), (1, 0), (0, 0), (0, 1), (1, 1)])
        mask = coverage_mask(ds)
        assert mask.dtype == np.bool_
        assert [ds.ids[i] for i in np.arange(len(ds))[mask]] == ["r1", "r3", "r4"]
        np.testing.assert_array_equal(ds.votes_matrix[mask], [(1, 0), (0, 1), (1, 1)])


class TestPersistence:
    def test_load_two_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","votes":[1,0]}\n{"id":"b","votes":[0,1],"label":-1}\n'
        )
        ds = load_dataset(str(path))
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.gold, [0, -1])

    def test_meta_line_sets_names(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"meta":{"num_lfs":2,"lf_names":["a","b"]}}\n{"id":"r","votes":[1,0]}\n'
        )
        ds = load_dataset(str(path))
        assert ds.lf_names == ("a", "b")

    def test_bad_vote_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","votes":[1,0]}\n{"id":"b","votes":[1,2,0]}\n')
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(str(path))

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","votes":[1]}\nnot json\n')
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(str(path))

    def test_meta_after_first_line_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","votes":[1]}\n{"meta":{"num_lfs":1}}\n')
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(str(path))

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        records = []
        for i in range(1000):
            votes = tuple(int(b) for b in rng.integers(0, 2, 3))
            records.append(
                Record(
                    id=f"r{i}",
                    votes=votes,
                    features=tuple(float(x) for x in rng.normal(size=2)),
                    gold=int(rng.choice([-1, 1])),
                )
            )
        ds = Dataset.from_records(records, lf_names=("u", "v", "w"))
        path = tmp_path / "big.jsonl"
        save_dataset(ds, str(path))
        assert load_dataset(str(path)) == ds

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id":"b","votes":[true,0]}', "votes must be a list of 0/1 integers"),
            ('{"id":"b","votes":[1,0],"label":true}', "label must be the integer -1 or 1"),
            ('{"id":"b","votes":[1,0],"label":1.0}', "label must be the integer -1 or 1"),
            ('{"id":"b","votes":[1,0],"label":null}', "label must be the integer -1 or 1"),
            ('{"id":"b","votes":[1,0],"lable":1}', "unknown record key 'lable'"),
            ('{"id":"b","votes":[1.0,0]}', "votes must be a list of 0/1 integers"),
            ('{"id":"b","votes":[1,300]}', "votes must be a list of 0/1 integers"),
            ('{"id":"b","votes":"10"}', "votes must be a list of 0/1 integers"),
            ('{"id":7,"votes":[1,0]}', "id must be a string"),
            ('{"votes":[1,0]}', "missing key 'id'"),
            ('{"id":"b"}', "missing key 'votes'"),
            ('{"id":"b","votes":[1,0],"features":[1.0]}',
             "record disagrees with the rest of the dataset on feature presence"),
        ],
        ids=["bool-vote", "bool-label", "float-label", "null-label", "unknown-key",
             "float-vote", "big-vote", "string-votes", "int-id", "no-id", "no-votes",
             "features-on-one"],
    )
    def test_strict_record_contract(self, tmp_path, line, message):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","votes":[1,0],"label":1}\n' + line + "\n")
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: line 2: {message}"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ('"features":[true]', "line 2: features must be a list of finite numbers"),
            ('"features":[NaN]', "record 'b' has non-finite features"),
            ('"features":[1,2]', "line 2: record has 2 features, expected 1"),
            ('"features":null', "line 2: features must be a list of finite numbers"),
        ],
        ids=["bool", "nan", "width", "null"],
    )
    def test_strict_feature_contract(self, tmp_path, line, message):
        """Type and width faults are named by line, a value fault by record id."""
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","votes":[1,0],"features":[0.5]}\n{"id":"b","votes":[1,0],' + line + "}\n"
        )
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: {message}$"):
            load_dataset(str(path))

    def test_strict_meta_contract(self, tmp_path):
        path = tmp_path / "d.jsonl"
        for meta, message in (
            ('{"meta":{"num_lfs":2,"names":["a","b"]}}', "unknown meta key 'names'"),
            ('{"meta":{"num_lfs":true}}', "meta num_lfs must be a positive integer"),
            ('{"meta":{"num_lfs":2},"id":"x"}', "the meta line holds only the meta key"),
            ('{"meta":5}', "meta must be an object"),
            ('{"meta":{"num_lfs":null}}', "meta num_lfs must be a positive integer"),
            ('{"meta":{"num_lfs":2,"lf_names":null}}', "meta lf_names must be a list of strings"),
        ):
            path.write_text(meta + '\n{"id":"r","votes":[1,0]}\n')
            with pytest.raises(
                DatasetFormatError, match=f"^{re.escape(str(path))}: line 1: {message}"
            ):
                load_dataset(str(path))
            with pytest.raises(DatasetFormatError, match=f"^line 1: {message}"):
                load_dataset_per_line(str(path))

    @pytest.mark.parametrize("names", ['"ab"', '["a",2]'], ids=["string", "non-string"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "spaced"])
    def test_meta_lf_names_refused_by_dataset(self, tmp_path, names, canonical):
        """Either reader passes the meta line's lf_names to Dataset, which
        refuses them with its own message."""
        record = '{"id":"r","votes":[1,0]}' if canonical else '{"id": "r", "votes": [1, 0]}'
        path = tmp_path / "d.jsonl"
        path.write_text('{"meta":{"num_lfs":2,"lf_names":' + names + "}}\n" + record + "\n")
        with mock.patch.object(data, "_read_values", wraps=data._read_values) as json_reader:
            with pytest.raises(DatasetFormatError) as got:
                load_dataset(str(path))
        assert str(got.value) == f"{path}: lf_names must be a sequence of strings"
        assert json_reader.called is not canonical

    def test_duplicate_id_names_the_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","votes":[1]}\n{"id":"a","votes":[0]}\n')
        with pytest.raises(DatasetFormatError, match="duplicate record id 'a'"):
            load_dataset(str(path))

    def test_meta_only_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"meta":{"num_lfs":3}}\n')
        ds = load_dataset(str(path))
        assert len(ds) == 0 and ds.num_lfs == 3 and ds.gold_array is None
        copy = tmp_path / "copy.jsonl"
        save_dataset(ds, str(copy))
        assert copy.read_bytes() == path.read_bytes()

    def test_save_is_byte_stable(self, tmp_path):
        ds = make_dataset([(1, 0), (0, 1)])
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, str(p1))
        save_dataset(ds, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_writer_emits_meta_first(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(make_dataset([(1, 0)]), str(path))
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"meta": {"num_lfs": 2}}


_ids = st.lists(
    st.text(st.characters(codec="utf-8"), max_size=6), min_size=1, max_size=25, unique=True
)


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, ids=_ids, numbers=_finite_floats):
    ids = draw(ids)
    n = len(ids)
    m = draw(st.integers(1, 10))
    votes = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    gold = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    features = None
    # A file without records cannot say whether its records have features.
    if n and draw(st.booleans()):
        f = draw(st.integers(0, 3))
        features = draw(st.lists(st.lists(numbers, min_size=f, max_size=f),
                                 min_size=n, max_size=n))
    names = None
    if draw(st.booleans()):
        names = draw(st.lists(st.text(max_size=4), min_size=m, max_size=m))
    return Dataset(
        ids=ids,
        votes_matrix=np.array(votes).reshape(n, m),
        features_matrix=None if features is None else np.array(features).reshape(n, -1),
        gold=np.array(gold),
        lf_names=names,
    )


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(datasets())
def test_load_save_load_round_trip(tmp_path, ds):
    """Saving, loading and saving again gives the same bytes and arrays."""
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_dataset(ds, str(first))
    loaded = load_dataset(str(first))
    save_dataset(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()
    assert loaded == ds
    np.testing.assert_array_equal(loaded.votes_matrix, ds.votes_matrix)
    np.testing.assert_array_equal(loaded.gold, ds.gold)
    if ds.features_matrix is not None:
        np.testing.assert_array_equal(loaded.features_matrix, ds.features_matrix)


_layout_spaces = st.sampled_from(("", " ", "\t", " \t ", "\t\t"))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(datasets(), st.data())
def test_layout_variants_load_as_per_line_oracle(tmp_path, ds, data):
    """CRLF line ends, blank lines, whitespace around a record, reordered
    keys and no final newline load to the same dataset as one json.loads
    per line does."""
    saved = tmp_path / "saved.jsonl"
    save_dataset(ds, str(saved))
    lines = saved.read_text(encoding="utf-8").splitlines()
    out = []
    for lineno, line in enumerate(lines, start=1):
        if lineno > 1:
            # Blank lines may not precede the meta line, which must be line 1.
            out.extend(data.draw(st.lists(_layout_spaces, max_size=2)))
            obj = json.loads(line)
            keys = data.draw(st.permutations(list(obj)))
            separators = data.draw(st.sampled_from(((",", ":"), (", ", ": "))))
            line = json.dumps({key: obj[key] for key in keys}, separators=separators)
        out.append(data.draw(_layout_spaces) + line + data.draw(_layout_spaces))
    ends = [data.draw(st.sampled_from(("\n", "\r\n"))) for _ in out]
    if data.draw(st.booleans()):
        ends[-1] = ""
    path = tmp_path / "layout.jsonl"
    path.write_bytes("".join(map(str.__add__, out, ends)).encode("utf-8"))
    loaded = load_dataset(str(path))
    assert loaded == load_dataset_per_line(str(path))
    assert loaded == ds


class TestAgainstPerLineOracle:
    """Each file holds one fault; the loader reports it on the same line,
    with the per-line oracle's message after the file's path."""

    GOOD = (
        '{"meta":{"num_lfs":2}}',
        '{"id":"a","votes":[1,0],"label":1}',
        '{"id":"b","votes":[0,1],"label":-1}',
        '{"id":"c","votes":[1,1]}',
    )

    @pytest.mark.parametrize(
        "lineno, line",
        [
            (3, '{"id":"b","votes":[0,1]}{"id":"x","votes":[0,1]}'),
            (3, '{"id":"b","votes":[0,1]} {"id":"x","votes":[0,1]}'),
            (3, '{"id":"b","votes":[0,'),
            (1, '\ufeff{"meta":{"num_lfs":2}}'),
            (2, '{"meta":{"num_lfs":2}}'),
            (3, '{"id":"b","votes":' + "[" * 100_000 + "1" + "]" * 100_000 + "}"),
            (4, '{"id":"c","votes":[1,true]}'),
            (4, '[1, 1]'),
            (4, 'null'),
            (2, '{"id":"a","votes":[1,0],"label":2}'),
            (3, '{"id":"b","votes":[0,1],"features":[0.5]}'),
        ],
        ids=["two-objects", "two-objects-spaced", "truncated", "bom", "meta-on-line-2",
             "nested-1e5", "bool-vote", "not-an-object", "null", "label-2", "features-on-one"],
    )
    def test_same_line_same_message(self, tmp_path, lineno, line):
        lines = list(self.GOOD)
        if lineno == 2 and line.startswith('{"meta"'):
            lines.insert(1, line)
        else:
            lines[lineno - 1] = line
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError) as expected:
            load_dataset_per_line(str(path))
        assert str(expected.value).startswith(f"line {lineno}: ")
        with pytest.raises(DatasetFormatError) as got:
            load_dataset(str(path))
        assert str(got.value) == f"{path}: {expected.value}"

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"meta":{"num_lfs":2}}\n\n{"id":"a","votes":[1,0]}\n \t\n\n'
            '{"id":"b","votes":[0,1],"lable":1}\n'
        )
        with pytest.raises(DatasetFormatError) as expected:
            load_dataset_per_line(str(path))
        with pytest.raises(DatasetFormatError, match="line 6: unknown record key") as got:
            load_dataset(str(path))
        assert str(got.value) == f"{path}: {expected.value}"

    def test_meta_after_a_blank_first_line_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('\n{"meta":{"num_lfs":1}}\n{"id":"a","votes":[1]}\n')
        with pytest.raises(DatasetFormatError) as expected:
            load_dataset_per_line(str(path))
        with pytest.raises(DatasetFormatError, match="line 2: meta only allowed on line 1") as got:
            load_dataset(str(path))
        assert str(got.value) == f"{path}: {expected.value}"

    def test_integer_too_long_to_convert_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","votes":[1]}\n{"id":"b","votes":[' + "1" * 5000 + "]}\n")
        with pytest.raises(DatasetFormatError, match=r"d\.jsonl: line 2: invalid JSON \(Exceeds"):
            load_dataset(str(path))

    def test_json_errors_come_before_record_shape(self, tmp_path):
        """The documented order: invalid JSON on any line is reported
        before an unknown key on an earlier line."""
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","votes":[1]}\n{"id":"b","votes":[1],"lable":1}\n'
            '{"id":"c","votes":[1]}\n{"id":"d","votes":[0]}\nnot json\n'
        )
        with pytest.raises(DatasetFormatError, match=r": line 5: invalid JSON"):
            load_dataset(str(path))


class TestGarbageCollectorState:
    """Loading pauses the cyclic collector and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"id":"a","votes":[1,0]}\n', None),
            ('{"id":"a","votes":[1,0]}\nnot json\n', "line 2: invalid JSON"),
            ('{"id":"a","votes":[1,0]}\n{"id":"b","votes":[1,0],"lable":1}\n',
             "line 2: unknown record key"),
        ],
        ids=["loads", "bad-json", "bad-key"],
    )
    def test_state_restored(self, tmp_path, enabled, text, error):
        path = tmp_path / "d.jsonl"
        path.write_text(text)
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if error is None:
                assert len(load_dataset(str(path))) == 1
            else:
                with pytest.raises(DatasetFormatError, match=error):
                    load_dataset(str(path))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()


# Ids that save_dataset writes without escapes: printable ASCII but the
# quote and the backslash.
_canonical_ids = st.lists(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'),
            max_size=6),
    min_size=0, max_size=25, unique=True,
)
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
                -1.7976931348623157e308, 1e22, 1e16, 123456789.0)
_edge_floats = st.sampled_from(_EDGE_FLOATS)


def _same_dataset(got, expected):
    """Equal datasets whose features agree bit for bit, so -0.0 is not +0.0."""
    assert got == expected
    if expected.features_matrix is not None:
        assert got.features_matrix.tobytes() == expected.features_matrix.tobytes()


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(datasets(ids=_canonical_ids, numbers=st.one_of(_finite_floats, _edge_floats)))
def test_canonical_files_skip_the_json_reader(tmp_path, ds):
    """A file as save_dataset writes it, ids without escapes, loads in one
    regex pass to the per-line oracle's dataset."""
    path = tmp_path / "canonical.jsonl"
    save_dataset(ds, str(path))
    with mock.patch.object(data, "_read_values", wraps=data._read_values) as json_reader:
        loaded = load_dataset(str(path))
    assert not json_reader.called
    expected = load_dataset_per_line(str(path))
    _same_dataset(loaded, expected)
    _same_dataset(loaded, ds)


class TestCanonicalLayoutEdits:
    """One edit to a canonical file: the loader gives the per-line
    oracle's dataset, or its message after the file's path. A value fault
    the oracle names by line, the loader names by record id (``message``)."""

    LINES = (
        '{"meta":{"num_lfs":2}}',
        '{"id":"a","votes":[1,0],"features":[0.5,-1.25],"label":1}',
        '{"id":"b","votes":[0,1],"features":[2.0,1e-05],"label":-1}',
        '{"id":"c","votes":[1,1],"features":[-0.0,3.5]}',
    )

    @pytest.mark.parametrize(
        "lineno, old, new, canonical, message",
        [
            (None, None, None, True, None),
            (2, '"votes":', '"votes": ', False, None),
            (3, '"id":"b","votes":[0,1]', '"votes":[0,1],"id":"b"', False, None),
            (2, "0.5", "-0", False, None),
            (3, "2.0", "1E5", True, None),
            (3, "2.0", "1e999", True, "record 'b' has non-finite features"),
            (2, '"a"', '"\\u00e9"', False, None),
            (4, '"c"', '"\\\\c"', False, None),
            (3, "[0,1]", "[0,2]", False, "record 'b' has a vote outside {0, 1}"),
            (3, "[0,1]", "[0,1,1]", False, None),
            (2, "[0.5,-1.25]", "[0.5]", False, None),
            (4, "[-0.0,3.5]", "[-0.0,3.5,7.0]", False, None),
            (3, '"b"', '"a"', False, None),
            (1, "2", "3", False, None),
            (2, ',"label":1', ',"label":0', False, None),
            (2, ',"label":1', ',"label":1.0', False, None),
            (3, "[2.0,1e-05]", "[2.0]1e-05]", False, None),
            (3, "[2.0,1e-05]", "[2.0,1e-05]]", False, None),
            (3, "[2.0,1e-05]", "[2.0,[1e-05]", False, None),
            (3, "[2.0,1e-05]", "[2.0,,1e-05]", False, None),
            (3, "[2.0,1e-05]", "[2.0,1e-05,]", False, None),
            (3, "[2.0,1e-05]", "[02.0,1e-05]", False, None),
            (3, "[2.0,1e-05]", "[.2,1e-05]", False, None),
            (3, "[2.0,1e-05]", "[+2.0,1e-05]", False, None),
            (3, '"features"', '"featurez"', False, None),
            (3, '[0,1],"features":[2.0,1e-05]', '0,"features":1]', False, None),
            # After the first record's "]", a digit would read as the start
            # of the second record's first number.
            (2, "[0.5,-1.25]", "[0.5,-1.25]1", False, None),
        ],
        ids=["none", "space", "swapped-keys", "minus-zero-integer", "upper-exponent",
             "overflow", "escaped-id", "escaped-backslash", "vote-2", "vote-width",
             "short-features", "long-features", "duplicate-id", "num-lfs", "label-0",
             "label-float", "bracket-inside", "bracket-after", "open-inside", "empty-number",
             "trailing-comma", "leading-zero", "no-integer-part", "plus-sign", "features-key",
             "no-open-bracket", "text-after-features"],
    )
    def test_edit_loads_as_oracle(self, tmp_path, lineno, old, new, canonical, message):
        lines = list(self.LINES)
        if lineno is not None:
            assert old in lines[lineno - 1]
            lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
        content = ("\n".join(lines) + "\n").encode("utf-8")
        if message is None:
            self.check(tmp_path, content, canonical)
            return
        path = tmp_path / "d.jsonl"
        path.write_bytes(content)
        with pytest.raises(DatasetFormatError, match=r"^line \d+: "):
            load_dataset_per_line(str(path))
        with mock.patch.object(data, "_read_values", wraps=data._read_values) as json_reader:
            with pytest.raises(DatasetFormatError) as got:
                load_dataset(str(path))
        assert str(got.value) == f"{path}: {message}"
        assert json_reader.called is not canonical

    @pytest.mark.parametrize(
        "transform",
        [
            lambda text: text[:-1],
            lambda text: "\ufeff" + text,
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\n\n", 2),
            lambda text: text.replace("[0.5,-1.25]", "[0.5]").replace("3.5]", "3.5,7.0]"),
            lambda text: text.split("\n", 1)[1],
            lambda text: text.replace('{"meta":{"num_lfs":2}}', '{"meta":{"lf_names":["x","y"]}}'),
            lambda text: text.replace('{"num_lfs":2}', '{"num_lfs":2,"lf_names":["x"]}'),
            lambda text: text.replace('"a"', '"a\u2028\x85\x1cb"').replace(":[", ": ["),
        ],
        ids=["no-final-newline", "bom", "crlf", "blank-line", "ragged-features", "no-meta",
             "meta-without-num-lfs", "lf-names-length", "line-separators-in-id"],
    )
    def test_file_edit_loads_as_oracle(self, tmp_path, transform):
        text = "\n".join(self.LINES) + "\n"
        # CRLF ends read back as "\n", so such a file stays canonical.
        canonical = transform(text).replace("\r\n", "\n") == text
        self.check(tmp_path, transform(text).encode("utf-8"), canonical)

    def check(self, tmp_path, content, canonical):
        path = tmp_path / "d.jsonl"
        path.write_bytes(content)
        try:
            expected = load_dataset_per_line(str(path))
        except DatasetFormatError as err:
            # The oracle names the file only in errors of the constructor.
            message = str(err) if str(err).startswith(f"{path}: ") else f"{path}: {err}"
            with pytest.raises(DatasetFormatError) as got:
                load_dataset(str(path))
            assert str(got.value) == message
            return
        with mock.patch.object(data, "_read_values", wraps=data._read_values) as json_reader:
            loaded = load_dataset(str(path))
        _same_dataset(loaded, expected)
        assert json_reader.called is not canonical


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this system")
class TestSingleRead:
    """A pipe can be read only once. Read through ``/dev/fd``, it loads as
    the same bytes on disk do, or fails with the same message, in every
    layout and whichever reader refuses it."""

    TEXT = "\n".join(TestCanonicalLayoutEdits.LINES) + "\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (TEXT, None),
            ("".join(json.dumps(json.loads(line)) + "\n"
                     for line in TestCanonicalLayoutEdits.LINES), None),
            (TEXT.replace("[0,1]", "[0,2]", 1), "record 'b' has a vote outside {0, 1}"),
        ],
        ids=["canonical", "spaced", "vote-2"],
    )
    def test_pipe_loads_as_file(self, tmp_path, text, message):
        content = text.encode("utf-8")
        disk = tmp_path / "d.jsonl"
        disk.write_bytes(content)
        read_end, write_end = os.pipe()
        # The file is far smaller than a pipe's buffer, so this write does
        # not wait for the reader.
        with os.fdopen(write_end, "wb") as fh:
            fh.write(content)
        pipe = f"/dev/fd/{read_end}"
        try:
            if message is None:
                _same_dataset(load_dataset(pipe), load_dataset(str(disk)))
                return
            for path in (str(disk), pipe):
                with pytest.raises(DatasetFormatError) as got:
                    load_dataset(path)
                assert str(got.value) == f"{path}: {message}"
        finally:
            os.close(read_end)


def _perfbench_workloads():
    """The benchmark's own input generator, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds the classes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestColumnwiseReader:
    """The canonical layout is read column-wise over the file's bytes. A
    file that reader takes gives the per-line oracle's dataset without the
    JSON reader; one it refuses goes to the JSON reader, which gives the
    oracle's dataset or its message."""

    LINES = (
        '{"meta":{"num_lfs":3}}',
        '{"id":"a","votes":[1,0,1],"label":1}',
        '{"id":"b","votes":[0,0,0],"label":-1}',
        '{"id":"c","votes":[0,1,1]}',
    )

    @pytest.mark.parametrize(
        "new_id, canonical",
        [
            ("é", True),
            ("𝄞", True),
            ("a b", True),
            ("\x7f", True),
            ("", True),
            ("]", True),
            ("}", True),
            ("x]}[{", True),
            (r'\",\"votes\":[', False),
            (r',\"label\":1}', False),
        ],
        ids=["e-acute", "clef", "line-separator", "delete", "empty", "bracket", "brace",
             "brackets", "votes-key", "label-tail"],
    )
    def test_ids_load_as_oracle(self, tmp_path, new_id, canonical):
        """Raw UTF-8 ids, U+007F and the empty id take the column-wise
        reader; an id holding a quote is escaped, so its file is not
        canonical."""
        lines = list(self.LINES)
        lines[2] = lines[2].replace('"b"', f'"{new_id}"')
        TestCanonicalLayoutEdits().check(tmp_path, ("\n".join(lines) + "\n").encode(), canonical)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("[0,0,0]", "[0,0,0"),
            (',"label":-1', ',"label":0'),
            ("}", "} "),
            ('"b"', '"b\x01"'),
            ('"b"', '"b\\\\"'),
            ('"b"', '"b"b"'),
            ("[0,0,0]", '[0,0,0],"features":[1.5]'),
            ('"label":-1', '"label": -1'),
            ('"label":-1', '"label":-2'),
            ('"label":-1', '"label":--1'),
            ("[0,0,0]", "[0, 0,0]"),
            ('{"id"', '{ "id"'),
            ('{"id"', '{"ix"'),
            ('{"id"', '["id"'),
            ('"label"', '"lable"'),
            ("-1}", "-1]"),
            ("-1}", "-1}}"),
            ('{"id":"b"', '{"id":'),
        ],
        ids=["dropped-bracket", "label-0", "trailing-space", "control-byte", "backslash",
             "quote", "features-after-none", "label-space", "label-2", "label-minus-minus",
             "vote-space", "brace-space", "id-key", "open-bracket", "label-key", "close-bracket",
             "close-twice", "id-too-short"],
    )
    def test_single_edits_load_as_oracle(self, tmp_path, old, new):
        """Each edit to a record of a vote-only file makes it other than
        canonical: the JSON reader gives the oracle's dataset or message."""
        lines = list(self.LINES)
        assert old in lines[2]
        lines[2] = lines[2].replace(old, new, 1)
        TestCanonicalLayoutEdits().check(tmp_path, ("\n".join(lines) + "\n").encode(), False)

    @pytest.mark.parametrize(
        "text",
        ["\n".join(LINES), "\n".join(LINES[:1]) + "\n\n", "\n".join(LINES[:1]) + "\nab\n"],
        ids=["no-final-newline", "blank-line", "short-line"],
    )
    def test_file_edits_load_as_oracle(self, tmp_path, text):
        TestCanonicalLayoutEdits().check(tmp_path, text.encode(), False)

    @pytest.mark.parametrize(
        "raw_id, reason",
        [(b"\xff", "0xff: invalid start byte"), (b"a\xc3", "0xc3: invalid continuation byte"),
         (b"\xed\xa0\x80", "0xed: invalid continuation byte")],
        ids=["start-byte", "cut-sequence", "surrogate"],
    )
    def test_id_not_utf8_names_the_byte(self, tmp_path, raw_id, reason):
        """A byte that is not UTF-8 in the id of a canonical file is named
        as it is in any other file."""
        path = tmp_path / "d.jsonl"
        path.write_bytes("\n".join(self.LINES).encode().replace(b'"b"', b'"' + raw_id + b'"')
                         + b"\n")
        with pytest.raises(DatasetFormatError) as got:
            load_dataset(str(path))
        assert str(got.value) == f"{path}: not UTF-8 text (byte {reason})"

    def test_empty_features_on_every_line_only(self, tmp_path):
        """``"features":[]`` is canonical when every record has it."""
        lines = [line.replace("[0.5,-1.25]", "[]").replace("[2.0,1e-05]", "[]")
                 .replace("[-0.0,3.5]", "[]") for line in TestCanonicalLayoutEdits.LINES]
        check = TestCanonicalLayoutEdits().check
        check(tmp_path, ("\n".join(lines) + "\n").encode(), True)
        lines[3] = lines[3].replace("[]", "[]]")
        check(tmp_path, ("\n".join(lines) + "\n").encode(), False)

    @pytest.mark.parametrize("name", ["tall-m8", "wide-m16", "end-krr"])
    @pytest.mark.parametrize("with_features", [False, True], ids=["votes", "features"])
    def test_benchmark_files_skip_the_json_reader(self, tmp_path, name, with_features):
        """Files as the benchmark writes them, at a few hundred records,
        never reach the JSON reader: its speed is what the benchmark times."""
        workloads = _perfbench_workloads()
        sample = workloads.draw(workloads.WORKLOADS[name].law, 300, np.random.default_rng(5))
        path = tmp_path / "bench.jsonl"
        workloads.write_jsonl(path, sample, with_features)
        with mock.patch.object(data, "_read_values", wraps=data._read_values) as json_reader:
            loaded = load_dataset(str(path))
        assert not json_reader.called
        _same_dataset(loaded, load_dataset_per_line(str(path)))

    def test_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        """The peak of a load, per record of a 2e4-record file with ids like
        ``r000123``, 8 votes and a label (53.5 bytes a line). Before the
        constructor runs: the file's bytes (1x); the ids, a 56-byte string
        and a list pointer each (1.2x); four int64 line columns (0.6x); the
        27-byte votes windows (0.5x); digits, ids text and its decoding
        (0.45x): 3.75x. Then the constructor's duplicate-id set, which
        CPython grows to 2**17 slots of 16 bytes beside the 2**15 it
        replaces (2.45x), and the ids tuple (0.15x): 6.35x in all, so 7x
        bounds it. The per-record regex reader this replaced held 7.9x, and
        an N x 27 int64 index array would add 4x."""
        rng = np.random.default_rng(3)
        n = 20_000
        ds = Dataset(ids=[f"r{i:06d}" for i in range(n)],
                     votes_matrix=rng.integers(0, 2, size=(n, 8)),
                     gold=rng.choice([-1, 1], size=n))
        path = tmp_path / "tall.jsonl"
        save_dataset(ds, str(path))
        tracemalloc.start()
        try:
            loaded = load_dataset(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == ds
        assert peak < 7 * path.stat().st_size

    def test_featured_load_peak_is_a_small_multiple_of_the_file(self, tmp_path):
        """The peak of a load of a 6000-record file with ids like
        ``r000123``, 8 votes, 4 features in ``repr`` form (about 19 bytes
        each) and a label: 145 bytes a line, 80 of them the features row.
        When the features are cut out, it holds the file's bytes (1x); the
        line columns, votes windows, digits and ids text (0.65x); and
        ``_spans``' mask over the whole body (1x), its int64 edges (0.2x)
        and the gathered feature text (0.55x): 3.4x. The parse then holds
        that text, its copy with commas for brackets (0.55x each) and the
        floats (0.2x), below that. One bytes object per number, 52 bytes
        and a list pointer, adds 4 x 60 bytes a line (1.65x) to the text
        and its copy, 4.4x in all, so 4x bounds this reader and not that
        one. The edge floats load bit for bit as the per-line oracle reads
        them."""
        rng = np.random.default_rng(3)
        n = 6000
        features = rng.normal(size=(n, 4))
        features[: len(_EDGE_FLOATS), 1] = _EDGE_FLOATS
        ds = Dataset(ids=[f"r{i:06d}" for i in range(n)],
                     votes_matrix=rng.integers(0, 2, size=(n, 8)),
                     features_matrix=features, gold=rng.choice([-1, 1], size=n))
        path = tmp_path / "featured.jsonl"
        save_dataset(ds, str(path))
        tracemalloc.start()
        try:
            loaded = load_dataset(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _same_dataset(loaded, ds)
        _same_dataset(loaded, load_dataset_per_line(str(path)))
        assert peak < 4 * path.stat().st_size
