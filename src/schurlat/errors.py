"""Exception hierarchy shared by all schurlat modules."""


def shown(value: object) -> str:
    """A caller's value as an error message shows it. An integer over 64 bits
    is shown by its length, so a refusal never formats an unbounded integer
    (str() refuses one of more than 4,300 digits)."""
    if isinstance(value, int) and value.bit_length() > 64:
        sign = "-" if value < 0 else ""
        return f"{sign}<{value.bit_length()}-bit integer>"
    return str(value)


class InputError(ValueError):
    """A caller violated a documented precondition (bad parameters, ranges, shapes)."""


class SizeError(InputError):
    """An operation refused because the instance exceeds its configured ceiling."""


class ParseError(InputError):
    """Malformed external data: DIMACS text, solver output, certificate or table files."""


class RenderError(InputError):
    """A certificate cannot be rendered in the requested format."""


class IntegrityError(RuntimeError):
    """An internal cross-check failed: solver model rejected, table entry wrong,
    or two independently computed values disagree. Never a caller error."""


class NotTabulatedError(LookupError):
    """A Ramsey number was requested that is neither trivial nor in the table."""
