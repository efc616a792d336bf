"""Property tests are deterministic by default: hypothesis draws the
same examples on every run, keeps no example database and sets no
per-example deadline. A test's own ``@settings`` only sets how many
examples it draws.

When a property test fails, hypothesis's pytest plugin imports its
patch writer, whose import of ``libcst`` warns of a deprecated
``mypy_extensions.TypedDict``. Under the suite's ``error`` warning
filter that warning would stop the whole session as an INTERNALERROR,
so the writer is imported here once, with deprecation warnings ignored.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        # Without libcst the plugin skips the patch, so nothing warns.
        pass

settings.register_profile("fedsvm", derandomize=True, database=None, deadline=None)
settings.load_profile("fedsvm")
