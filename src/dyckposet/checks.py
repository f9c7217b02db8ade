"""The one agreement check.  Every quantity computed by two or more
independent routes passes its values through agree; the CLI turns the
AssertionError of a disagreement into exit 4."""


def agree(name: str, *values):
    """Return the common value of values; if any differs from the first,
    raise AssertionError("<name> disagree: v1 vs v2 ...")."""
    first = values[0]
    if any(value != first for value in values[1:]):
        raise AssertionError(f"{name} disagree: "
                             + " vs ".join(map(str, values)))
    return first
