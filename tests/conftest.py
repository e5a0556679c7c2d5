"""Shared test settings.

Hypothesis draws fresh examples on every local run.  ``HYPOTHESIS_PROFILE=ci``
selects the ``ci`` profile instead: the draws are derandomised and a failing
example prints its reproduction blob, so a CI failure replays locally.  Each
test keeps its own ``max_examples``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "default")
