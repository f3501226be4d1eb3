"""What a failure means: the one exception hierarchy of nearlyround.

Every exception the package raises on purpose derives from
NearlyRoundError through one of two branches:

* ConfigError - the input is bad (a malformed spec, a point inside a
  metric's excluded ball, an impossible band limit).  The CLI exits 2.
* SolverError - the input is valid but no number could be produced (the
  surface left the nearly round regime, or a solver did not converge).
  The CLI exits 3; a mass row keeps its Hawking value and is flagged
  embedding-failed:<class>; a verify check reads inf with a note.

The named leaves (RegimeViolation, NonConvexSurface, ...) live in the
modules that raise them.  Anything else that escapes is a defect of the
program and propagates as a traceback.
"""


class NearlyRoundError(Exception):
    """Root of the failures the package raises on purpose."""


class ConfigError(NearlyRoundError, ValueError):
    """The input is malformed, inconsistent, or outside a metric's domain."""


class SolverError(NearlyRoundError, RuntimeError):
    """Valid input, but the computation could not produce a number."""
