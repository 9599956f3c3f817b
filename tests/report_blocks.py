"""Report blocks read back as Python scalars, one row or one list per column
at a time, for tests that check a row on its own or compare blocks, and a
comparison of report texts that stays readable at megabytes."""


def block_rows(block: dict, count: int | None = None) -> list[dict]:
    """The rows of a report block of count rows (by default one per entry of
    its kind column): row i holds entry i of each column as a Python scalar,
    and each nested block becomes a nested dict. Every column must be an
    array of count entries."""
    count = len(block["kind"]) if count is None else count
    columns = {
        key: block_rows(entry, count) if isinstance(entry, dict) else entry.tolist()
        for key, entry in block.items()
    }
    assert all(len(column) == count for column in columns.values())
    return [{key: column[i] for key, column in columns.items()} for i in range(count)]


def block_lists(block: dict) -> dict:
    """The block with each column read back as a list of Python scalars, for
    comparing blocks with ==."""
    return {key: block_lists(entry) if isinstance(entry, dict) else entry.tolist()
            for key, entry in block.items()}


def report_rows(blocks) -> list[dict]:
    """The rows of a stream of report blocks, in order."""
    return [row for block in blocks for row in block_rows(block)]


def assert_same_text(actual: str, expected: str, context: int = 40) -> None:
    """Assert the texts are equal. A mismatch reports both lengths and the
    first differing offset with up to context characters of each text around
    it, never the whole texts: a diff of two multi-MB reports would not end."""
    if actual == expected:
        return
    # the longest common prefix, by bisection over whole-prefix comparisons
    offset, stop = 0, min(len(actual), len(expected))
    while offset < stop:
        middle = (offset + stop + 1) // 2
        if actual[:middle] == expected[:middle]:
            offset = middle
        else:
            stop = middle - 1
    window = slice(max(offset - context, 0), offset + context)
    raise AssertionError(
        f"texts differ: {len(actual)} against {len(expected)} characters, first at "
        f"offset {offset}: {actual[window]!r} against {expected[window]!r}")
