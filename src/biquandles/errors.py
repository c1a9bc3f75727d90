"""Error types shared across the package, and the readers of numbers and
content lines that the parsers share.

ParseError covers malformed input text (braid words, presentation files, table
files, command lines). DomainError covers well-formed input that violates a
mathematical precondition (non-unit scalars, non-prime moduli, non-square
systems, oversized carriers).
"""


class ParseError(ValueError):
    pass


class DomainError(ValueError):
    pass


def read_decimal(digits: str, what: str) -> int:
    """The value of a string of decimal digits. One longer than ``int`` converts
    (``sys.get_int_max_str_digits``, 4300 by default) is a ParseError, not a crash.
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} has {len(digits)} digits, too many to read") from None


def content_lines(text: str):
    """(line number, text) of each line left nonempty once its ``#`` comment and outer blanks are cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, line
