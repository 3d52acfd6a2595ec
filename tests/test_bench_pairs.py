"""The statistics of tools/bench_pairs.py on fixed numbers."""

from tools.bench_pairs import gain_holds, quartiles, regressed, wins

PARENT = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # quartiles 12.25, 14.5, 16.75: IQR 4.5


def test_quartiles_interpolate_between_the_sorted_values():
    assert quartiles(PARENT[::-1]) == (12.25, 14.5, 16.75)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_wins_count_neither_ties_nor_losses():
    change = [v - 1 for v in PARENT[:8]] + [18, 20]
    assert wins(PARENT, change, "lower") == 8
    assert wins(PARENT, change, "higher") == 1


def test_a_gain_needs_nine_in_ten_wins_and_a_gap_wider_than_the_parents_iqr():
    assert gain_holds(PARENT, [v - 5 for v in PARENT], "lower")
    # ten wins, but the medians differ by 4, inside the IQR 4.5
    assert not gain_holds(PARENT, [v - 4 for v in PARENT], "lower")
    # nine wins and one tie still hold; eight wins do not
    assert gain_holds(PARENT, [v - 5 for v in PARENT[:9]] + [19], "lower")
    assert not gain_holds(PARENT, [v - 5 for v in PARENT[:8]] + [18, 20], "lower")
    assert gain_holds(PARENT, [v + 5 for v in PARENT], "higher")
    assert not gain_holds(PARENT, [v + 5 for v in PARENT], "lower")


def test_regressed_compares_the_medians_against_the_relative_bound():
    # the bound 0.25 of the median 14.5 is 3.625
    assert regressed(PARENT, [v + 3.7 for v in PARENT], "lower", 0.25)
    assert not regressed(PARENT, [v + 3.5 for v in PARENT], "lower", 0.25)
    assert regressed(PARENT, [v - 3.7 for v in PARENT], "higher", 0.25)
    assert not regressed(PARENT, [v - 3.7 for v in PARENT], "lower", 0.25)
