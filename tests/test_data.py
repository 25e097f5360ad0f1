import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import domain_contains

from fairprobe.data import (
    Dataset,
    Schema,
    ValueDomain,
    from_arrays,
    load_csv,
    split_train_test,
)
from fairprobe.errors import (
    EmptyData,
    InvalidCell,
    MissingHeader,
    NonBinaryLabel,
    SchemaMismatch,
    UnknownFeature,
)

SCHEMA = Schema(
    feature_names=("age", "job", "city"),
    sensitive_features=("age",),
    label_name="income",
    declared_kinds={"age": "integer", "job": "categorical", "city": "categorical"},
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaMismatch):
            Schema(("a", "a"), (), "y", {"a": "integer"})

    def test_unknown_sensitive_rejected(self):
        with pytest.raises(SchemaMismatch):
            Schema(("a",), ("b",), "y", {"a": "integer"})

    def test_label_cannot_be_feature(self):
        with pytest.raises(SchemaMismatch):
            Schema(("a",), (), "a", {"a": "integer"})

    def test_kinds_must_cover_features(self):
        with pytest.raises(SchemaMismatch):
            Schema(("a", "b"), (), "y", {"a": "integer"})
        with pytest.raises(SchemaMismatch):
            Schema(("a",), (), "y", {"a": "floating"})

    def test_index_and_unknown_feature(self):
        assert SCHEMA.index("job") == 1
        with pytest.raises(UnknownFeature):
            SCHEMA.index("nope")

    def test_from_json(self, tmp_path):
        path = write(
            tmp_path,
            '{"label": "income", "sensitive": ["age"],'
            ' "features": {"age": "integer", "job": "categorical", "city": "categorical"}}',
            "schema.json",
        )
        schema = Schema.from_json(path)
        assert schema == SCHEMA


class TestLoadCsv:
    def test_basic_load_and_encoding_order(self, tmp_path):
        path = write(
            tmp_path,
            "age,job,city,income\n"
            "30,nurse,rome,1\n"
            "40,clerk,oslo,0\n"
            "35,nurse,rome,1\n",
        )
        ds = load_csv(path, SCHEMA)
        assert ds.n_rows == 3
        # first-occurrence codes: nurse=0, clerk=1; rome=0, oslo=1
        assert ds.rows[:, 1].tolist() == [0, 1, 0]
        assert ds.rows[:, 2].tolist() == [0, 1, 0]

    def test_header_any_column_order(self, tmp_path):
        path = write(tmp_path, "income,city,age,job\n1,rome,30,nurse\n")
        ds = load_csv(path, SCHEMA)
        assert ds.rows[0].tolist() == [30, 0, 0]
        assert ds.labels.tolist() == [1]

    def test_empty_file_missing_header(self, tmp_path):
        with pytest.raises(MissingHeader):
            load_csv(write(tmp_path, ""), SCHEMA)

    def test_header_only_empty_data(self, tmp_path):
        with pytest.raises(EmptyData):
            load_csv(write(tmp_path, "age,job,city,income\n"), SCHEMA)

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(SchemaMismatch):
            load_csv(write(tmp_path, "age,job,city\n30,nurse,rome\n"), SCHEMA)

    def test_extra_undeclared_column(self, tmp_path):
        with pytest.raises(SchemaMismatch):
            load_csv(
                write(tmp_path, "age,job,city,income,zip\n30,nurse,rome,1,99\n"), SCHEMA
            )

    def test_non_binary_label(self, tmp_path):
        with pytest.raises(NonBinaryLabel):
            load_csv(write(tmp_path, "age,job,city,income\n30,nurse,rome,2\n"), SCHEMA)
        with pytest.raises(NonBinaryLabel):
            load_csv(write(tmp_path, "age,job,city,income\n30,nurse,rome,yes\n"), SCHEMA)

    def test_non_integer_cell(self, tmp_path):
        with pytest.raises(InvalidCell):
            load_csv(write(tmp_path, "age,job,city,income\nthirty,nurse,rome,1\n"), SCHEMA)

    def test_rows_with_empty_cells_dropped(self, tmp_path, caplog):
        path = write(
            tmp_path,
            "age,job,city,income\n30,nurse,rome,1\n40,,oslo,0\n50,clerk,rome,0\n",
        )
        with caplog.at_level("WARNING"):
            ds = load_csv(path, SCHEMA)
        assert ds.n_rows == 2
        assert "dropped 1 rows" in caplog.text


class TestDomains:
    def test_integer_range_spans_observed(self, tmp_path):
        lines = ["age,job,city,income"]
        for age in (17, 44, 90, 23):
            lines.append(f"{age},nurse,rome,1")
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"), SCHEMA)
        dom = ds.domains[ds.schema.index("age")]
        assert (dom.lo, dom.hi) == (17, 90)

    def test_constant_column_singleton(self):
        schema = Schema(("a",), (), "y", {"a": "integer"})
        ds = from_arrays(np.full((4, 1), 3), np.array([0, 1, 0, 1]), schema)
        dom = ds.domains[ds.schema.index("a")]
        assert dom.size == 1 and domain_contains(dom, 3)

    def test_categorical_code_set(self, tmp_path):
        lines = ["age,job,city,income"]
        for i, job in enumerate(("a", "b", "c", "d", "e")):
            lines.append(f"3{i},{job},rome,0")
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"), SCHEMA)
        assert ds.domains[ds.schema.index("job")].values == (0, 1, 2, 3, 4)

    def test_unknown_feature(self, tmp_path):
        ds = load_csv(write(tmp_path, "age,job,city,income\n30,a,b,1\n"), SCHEMA)
        with pytest.raises(UnknownFeature):
            ds.domains[ds.schema.index("zip")]

    def test_domains_contain_every_observed_value(self, demo_dataset):
        for j in range(demo_dataset.width):
            dom = demo_dataset.domains[j]
            assert all(domain_contains(dom, int(v)) for v in np.unique(demo_dataset.rows[:, j]))


@st.composite
def domains_and_values(draw):
    """(domain, values, rng seed): a range or set domain, and values that may
    lie outside it."""
    if draw(st.booleans()):
        lo = draw(st.integers(-5, 5))
        domain = ValueDomain.range_of(lo, lo + draw(st.integers(0, 6)))
    else:
        domain = ValueDomain.set_of(draw(st.sets(st.integers(-8, 8), min_size=1, max_size=6)))
    values = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=20))
    return domain, np.array(values), draw(st.integers(0, 2**32 - 1))


class TestValueDomain:
    @given(domains_and_values())
    def test_block_forms_match_their_definitions(self, case):
        domain, old, seed = case
        rng = np.random.default_rng(seed)
        new = domain.sample_excluding(rng, old)
        assert new.shape == old.shape
        assert all(domain_contains(domain, v) for v in new.tolist())
        if domain.size > 1:
            assert (new != old).all()
        assert all(domain_contains(domain, v) for v in domain.sample(rng, len(old)).tolist())
        nearest = [min(domain.as_tuple(), key=lambda v: (abs(v - o), v)) for o in old.tolist()]
        assert domain.clamp(old).tolist() == nearest
        # a scalar gives a Python int by the same code path
        scalar = domain.sample_excluding(rng, int(old[0]))
        assert type(scalar) is int and domain_contains(domain, scalar)
        assert domain.clamp(int(old[0])) == nearest[0]

    def test_invalid_domains_rejected(self):
        with pytest.raises(ValueError):
            ValueDomain.range_of(5, 4)
        with pytest.raises(ValueError):
            ValueDomain.set_of([])

    def test_sample_excluding_never_returns_old(self):
        rng = np.random.default_rng(0)
        rdom = ValueDomain.range_of(2, 9)
        sdom = ValueDomain.set_of([1, 4, 7, 11])
        for _ in range(300):
            assert rdom.sample_excluding(rng, 5) != 5
            assert sdom.sample_excluding(rng, 7) != 7

    def test_sample_excluding_singleton_returns_value(self):
        rng = np.random.default_rng(0)
        assert ValueDomain.range_of(3, 3).sample_excluding(rng, 3) == 3

    def test_clamp(self):
        assert ValueDomain.range_of(2, 9).clamp(12) == 9
        assert ValueDomain.range_of(2, 9).clamp(-1) == 2
        assert ValueDomain.set_of([1, 4, 9]).clamp(6) == 4

    def test_samples_stay_in_domain(self):
        rng = np.random.default_rng(1)
        dom = ValueDomain.set_of([2, 5, 6])
        assert all(domain_contains(dom, dom.sample(rng)) for _ in range(100))


class TestSplit:
    def test_700_300_split(self):
        schema = Schema(("a",), (), "y", {"a": "integer"})
        rows = np.arange(1000).reshape(-1, 1)
        ds = from_arrays(rows, np.zeros(1000, dtype=int) + (rows[:, 0] % 2), schema)
        train, test = split_train_test(ds, 0.7, seed=1)
        assert train.n_rows == 700 and test.n_rows == 300

    def test_partition_disjoint_exhaustive(self):
        schema = Schema(("a",), (), "y", {"a": "integer"})
        rows = np.arange(101).reshape(-1, 1)
        ds = from_arrays(rows, rows[:, 0] % 2, schema)
        train, test = split_train_test(ds, 0.63, seed=9)
        seen = np.concatenate([train.rows[:, 0], test.rows[:, 0]])
        assert sorted(seen.tolist()) == list(range(101))

    def test_same_seed_identical(self, demo_dataset):
        a1, b1 = split_train_test(demo_dataset, 0.7, seed=5)
        a2, b2 = split_train_test(demo_dataset, 0.7, seed=5)
        assert np.array_equal(a1.rows, a2.rows) and np.array_equal(b1.rows, b2.rows)
        assert np.array_equal(a1.labels, a2.labels)

    def test_fraction_one_empty_test_flags_downstream(self, demo_dataset):
        train, test = split_train_test(demo_dataset, 1.0, seed=0)
        assert train.n_rows == demo_dataset.n_rows and test.n_rows == 0
        with pytest.raises(EmptyData):
            test.require_rows()
        assert test.domains is None

    def test_fraction_validation(self, demo_dataset):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_train_test(demo_dataset, bad, seed=0)

    def test_split_domains_recomputed(self):
        schema = Schema(("a",), (), "y", {"a": "integer"})
        rows = np.arange(20).reshape(-1, 1)
        ds = from_arrays(rows, rows[:, 0] % 2, schema)
        train, test = split_train_test(ds, 0.5, seed=3)
        dom_t = train.domains[train.schema.index("a")]
        assert dom_t.lo == train.rows[:, 0].min() and dom_t.hi == train.rows[:, 0].max()
