"""Test-suite configuration.

Property tests draw their examples from a fixed seed and keep no example
database, so every run tries the same inputs and a failure found once is
not replayed from files left in the tree.
"""

from hypothesis import settings

settings.register_profile("frobsym", derandomize=True, database=None)
settings.load_profile("frobsym")
