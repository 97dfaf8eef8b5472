"""OracleRules compiled into the rows that programs and scenarios hold.

Tests write a program's rules as OracleRules, the form its `rules` view
reads back; `rows_of` compiles them into the shape of
`functionals.program_rows`, and `program_of` builds the program.
"""

from sepsim.functionals import OracleProgram, guard_mask, program_rows


def rows_of(rules):
    """(input -> its rows, each rule's input) of OracleRules in rule order."""
    return program_rows(
        (r.input, (r.available_at, r.use, *guard_mask(r.guard), r.output)) for r in rules
    )


def program_of(rules):
    """The OracleProgram of OracleRules in rule order."""
    return OracleProgram(rows_of(rules))


EMPTY_PROGRAM = OracleProgram()
