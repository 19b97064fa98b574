"""Error types raised by the pipeline.

All of these are ValueError subclasses so callers can catch input problems
with a single except clause; the CLI maps them to exit code 2 and prints
each with its class's ``prefix``, the module that owns the error.
"""


class TechfluxError(ValueError):
    """Base class for input/usage errors raised by techflux modules."""

    prefix = "techflux"


class CorpusError(TechfluxError):
    prefix = "corpus"


class LexiconError(TechfluxError):
    prefix = "lexicon"


class GraphError(TechfluxError):
    prefix = "cograph"


class CommunityError(TechfluxError):
    prefix = "community"


class TransitionError(TechfluxError):
    prefix = "transition"


class StatsError(TechfluxError):
    prefix = "breakcheck"


class SynthError(TechfluxError):
    prefix = "synth"


class ConfigError(TechfluxError):
    prefix = "config"
