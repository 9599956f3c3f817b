"""Report blocks read back one row at a time, for tests that check a row on
its own."""


def block_rows(block: dict, count: int | None = None) -> list[dict]:
    """The rows of a report block of count rows (by default one per entry of
    its kind column): row i holds entry i of each list, and each nested block
    becomes a nested dict. Every list must hold count entries."""
    count = len(block["kind"]) if count is None else count
    columns = {
        key: block_rows(entry, count) if isinstance(entry, dict) else entry
        for key, entry in block.items()
    }
    assert all(len(column) == count for column in columns.values())
    return [{key: column[i] for key, column in columns.items()} for i in range(count)]


def report_rows(blocks) -> list[dict]:
    """The rows of a stream of report blocks, in order."""
    return [row for block in blocks for row in block_rows(block)]
