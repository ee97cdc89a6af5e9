"""The base class of every error the package raises."""


class NgmpnError(Exception):
    """A failure the package names: bad input, a model it cannot handle, or a
    computation that did not succeed. Anything else is a bug."""
