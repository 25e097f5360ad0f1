import pytest

from summary import describe, high_percentile, percentile


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 90) == pytest.approx(3.7)


@pytest.mark.parametrize(
    "n, expected_p",
    [(3, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_high_percentile_keeps_ten_samples_beyond(n, expected_p):
    values = list(range(n))
    result = high_percentile(values)
    if expected_p is None:
        assert result is None
        return
    p, value = result
    assert p == expected_p
    assert sum(v > value for v in values) >= 10
    assert value == pytest.approx(percentile(values, p))


def test_describe_states_median_and_sample_count():
    line = describe("wall_s", "s", [3.0, 1.0, 2.0])
    assert "median 2 s" in line
    assert "n=3" in line
    assert "needs 20" in line
    line = describe("wall_s", "s", [float(v) for v in range(100)])
    assert "p90 89.1" in line and "n=100" in line
    assert describe("idi_per_s", "1/s", []).endswith("no samples")
