"""The one root type of the toolchain's user-input errors."""


class ReproError(Exception):
    """Bad user input: source text, an option, a grid or an artifact.

    ``repro`` prints any of these as ``repro: <message>`` and exits 2.
    Subclasses keep their built-in base too (``ValueError``,
    ``SyntaxError``), so existing ``except ValueError`` callers still
    catch them.
    """
