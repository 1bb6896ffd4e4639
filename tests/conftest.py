"""Shared test settings.

Property tests run a fixed, small set of examples: derandomized so a run
cannot flake, and without a per-example deadline so a loaded machine does
not fail them on time alone.
"""

from hypothesis import settings

settings.register_profile("smalljump", derandomize=True, deadline=None,
                          max_examples=20)
settings.load_profile("smalljump")
