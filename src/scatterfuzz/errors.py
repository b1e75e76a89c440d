"""Exception types shared across the package."""


class ScatterFuzzError(Exception):
    """Base class for all package errors."""


class MalformedProgram(ScatterFuzzError):
    """Program failed static validation (a scenario authoring bug).

    ``index`` is the offending instruction's position in the program and
    ``line`` its source line, when known.
    """

    def __init__(self, message, index=None, line=None):
        self.reason, self.index, self.line = message, index, line
        if line is not None:
            message = f"line {line}: {message}"
        elif index is not None:
            message = f"instr {index}: {message}"
        super().__init__(message)


class ParseError(ScatterFuzzError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class UnknownLabel(ParseError):
    pass


class DuplicateLabel(ParseError):
    pass


class InconsistentBaseline(ScatterFuzzError):
    """The solve base input no longer reaches the targeted comparison."""


class ConfigError(ScatterFuzzError):
    pass


class ScenarioValidationError(ScatterFuzzError):
    """Scenario ground truth does not match the parsed program."""
