"""Shared pytest setup: a deterministic hypothesis profile.

Property tests draw the same examples on every run (`derandomize`), have
no per-example deadline and a bounded number of examples, so they cannot
flake and their run time is fixed.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("qsopt", derandomize=True, deadline=None, max_examples=100)
    settings.load_profile("qsopt")
