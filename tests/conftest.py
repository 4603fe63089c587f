"""Session set-up shared by every test module."""

import warnings

# When a hypothesis test fails, hypothesis's pytest plugin imports libcst to
# write a patch with the failing example. That import raises a
# DeprecationWarning (libcst uses mypy_extensions.TypedDict), which `-W error`
# turns into an INTERNALERROR that ends the session before the failure is
# reported. Importing the patch module here, once, with only that warning
# ignored, lets a failure report as a failure; a test's own
# DeprecationWarning still raises under `-W error`.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis, or one without the module
        pass
