"""Reference routes that more than one test module compares the package
against.  No command runs them, so they live with the tests."""


def is_below(d1, d2):
    """True iff path d1 lies weakly below path d2: heights compared column
    by column."""
    if d1.order != d2.order:
        raise ValueError("paths must have the same order")
    return all(h1 <= h2 for h1, h2 in
               zip(d1.column_heights(), d2.column_heights()))


def covers(p, i, j):
    """True iff element j covers element i of the poset p."""
    return bool(p.cover_up[i] >> j & 1)
