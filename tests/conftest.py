"""Property tests are deterministic by default: hypothesis draws the
same examples on every run, keeps no example database and sets no
per-example deadline. A test's own ``@settings`` only sets how many
examples it draws."""

from hypothesis import settings

settings.register_profile("fedsvm", derandomize=True, database=None, deadline=None)
settings.load_profile("fedsvm")
