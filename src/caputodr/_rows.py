"""The one definition of a CSV row, ``repr`` of Python ints and floats joined by commas; standard library only.

``report`` also runs this file as ``python -I -S _rows.py NCOLS``: it reads NCOLS equal columns of
native float64 from stdin, formats all of their rows, then writes the text to stdout.
"""

import sys


def rows(t, approx, exact=None):
    """Yield the pointwise rows t,approx,exact,abs_err,rel_err of lists of floats.

    Without ``exact`` the last three columns are blank; rel_err is blank wherever |exact| < 1e-14.
    """
    if exact is None:
        for ti, ai in zip(t, approx):
            yield f"{ti!r},{ai!r},,,\n"
        return
    for ti, ai, ei in zip(t, approx, exact):
        ae = abs(ai - ei)
        rel = "" if abs(ei) < 1e-14 else repr(ae / abs(ei))
        yield f"{ti!r},{ai!r},{ei!r},{ae!r},{rel}\n"


def write_table(path, columns) -> None:
    """Write the CSV of ``columns``, a map from header name to a list of Python ints or floats."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns.values(), strict=True))


if __name__ == "__main__":
    values = memoryview(sys.stdin.buffer.read()).cast("d")
    count = len(values) // int(sys.argv[1])
    columns = [values[i : i + count].tolist() for i in range(0, len(values), count)]
    # joined in blocks, so that the text is held until the write but a string per row is not
    text = ["".join(rows(*(c[i : i + 4096] for c in columns))) for i in range(0, count, 4096)]
    sys.stdout.writelines(text)
