"""Hypothesis profiles shared by every test module.

``casim``, loaded here, derandomizes: each test draws the same examples on
every run, seeded from the test itself, keeps no example database and has no
deadline.  Each test's ``@settings`` sets only its ``max_examples``.
``explore`` draws fresh examples instead; ``--hypothesis-seed`` repeats a
run of it::

    python -m pytest --hypothesis-profile=explore --hypothesis-seed=1 tests/test_model.py
"""

from hypothesis import settings

settings.register_profile("casim", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", derandomize=False, database=None, deadline=None)
settings.load_profile("casim")
