"""Repo-wide test configuration.

Registers hypothesis profiles so CI runs are reproducible:

* ``default`` — hypothesis defaults, used for local development;
* ``ci`` — derandomized with a generous fixed deadline, so a CI
  failure replays identically and a loaded runner never flakes a
  property test on timing.

CI selects a profile via the ``HYPOTHESIS_PROFILE`` environment
variable (see ``.github/workflows/ci.yml``); local runs keep the
default unless the variable is set.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # property tests simply don't collect without it
    settings = None

if settings is not None:
    settings.register_profile("default", settings())
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=2000,
        print_blob=True,
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
