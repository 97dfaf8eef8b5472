"""Record tables and their one reader.

Each record format (scenario lines, the ev/final event log, nosupermax and
upclosure bodies) keeps a table beside its decoder: record kind -> the types
of the tokens after the kind, one per token, the last maybe a Tail.
record_table works out each entry's shape once, so a record of a fixed
token count is read without looking for a tail. read_record checks a record
against its entry and converts it, so a wrong token count reads alike in
every format."""

from collections import namedtuple

from .errors import UsageError

# a variable tail of at least `least` tokens, which `read` takes whole; with
# a marker, it starts at the first marker token after the kind
Tail = namedtuple("Tail", "read least marker", defaults=(0, None))


class FieldError(Exception):
    """A token its type refuses; read_record names the record."""


def bad_record(parts, why, lineno=None) -> UsageError:
    """`record <tokens>: <why>`, at `line <lineno>` when there is one."""
    location = None if lineno is None else f"line {lineno}"
    return UsageError(f"record {' '.join(parts)}: {why}", location)


def count_error(parts, want, lineno=None) -> UsageError:
    """`record <tokens>: <n> tokens, expected <want>`."""
    tokens = " ".join(parts).split()  # a scenario's last part may hold several
    return bad_record(tokens, f"{len(tokens)} tokens, expected {want}", lineno)


def record_table(types):
    """A table for read_record from record kind -> the types of the tokens
    after the kind, one per token, the last maybe a Tail. Each entry is
    worked out once: the readers of the fixed tokens, their count, and the
    tail or None."""
    table = {}
    for kind, readers in types.items():
        tail = readers[-1] if readers and type(readers[-1]) is Tail else None
        readers = readers[:-1] if tail else readers
        table[kind] = (readers, len(readers), tail)
    return table


def read_record(parts, table, at=0, first=None, lineno=None):
    """The values of a record by the entry of its kind, parts[at], in
    `table` (built by record_table), or None when the table lacks the kind.
    The tail is read first, then the tokens after the kind, then, when at is
    2, parts[1] by `first`, whose value leads. A wrong count raises `record
    <tokens>: <n> tokens, expected <m>` (or `at least <m>`) and a FieldError
    `record <tokens>: <its reason>`; a type's ValueError passes as it is."""
    if len(parts) <= at:  # too short to name its kind
        raise count_error(parts, f"at least {at + 1}", lineno)
    shape = table.get(parts[at])
    if shape is None:
        return None
    readers, count, tail = shape
    end = at + 1 + count
    if tail is None:
        if len(parts) != end:
            raise count_error(parts, end, lineno)
    elif len(parts) < end + tail.least:
        raise count_error(parts, f"at least {end + tail.least}", lineno)
    try:
        if tail:
            cut = parts.index(tail.marker, at + 1) if tail.marker else end
            rest = list(tail.read(parts[cut:]))
            if cut != end:
                raise count_error(parts, len(parts) - cut + end, lineno)
        values = []
        i = at
        for read in readers:  # faster than a comprehension over zip
            i += 1
            values.append(read(parts[i]))
        if tail:
            values.extend(rest)
        return [first(parts[1]), *values] if at else values
    except FieldError as exc:
        raise bad_record(parts, exc, lineno)
