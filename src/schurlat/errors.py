"""Exception hierarchy shared by all schurlat modules."""


def shown(value: object) -> str:
    """A caller's value as an error message shows it. An integer over 64 bits
    is shown by its length, so a refusal never formats an unbounded integer
    (str() refuses one of more than 4,300 digits). A str, such as a line of
    outside text, is shown as its repr, and one over 100 characters by the
    repr of its first 100 and its length, so a refusal stays short however
    long the text. A tuple, such as a point, or a list shows each of its items
    this way."""
    if isinstance(value, list):
        return f"[{', '.join(map(shown, value))}]"
    if isinstance(value, tuple):
        items = ", ".join(map(shown, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    if isinstance(value, str):
        if len(value) <= 100:
            return repr(value)
        return f"{value[:100]!r}... <{len(value)} characters>"
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
