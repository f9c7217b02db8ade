import pytest

from dyckposet.checks import agree


def test_returns_the_common_value():
    assert agree("counts", 14, 14, 14) == 14


@pytest.mark.parametrize("values", [(2, 1, 1), (1, 2, 1), (1, 1, 2)],
                         ids=["first", "middle", "last"])
def test_raises_on_a_mismatch_at_any_position(values):
    with pytest.raises(AssertionError) as exc:
        agree("counts", *values)
    assert str(exc.value) == "counts disagree: " + " vs ".join(
        map(str, values))
