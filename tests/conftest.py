"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived
from each test's name, so every run repeats exactly, and no example has
a deadline, so a loaded machine cannot fail one by running it slowly.
"""

from hypothesis import settings

settings.register_profile("lamptune", derandomize=True, deadline=None, max_examples=15)
settings.load_profile("lamptune")
