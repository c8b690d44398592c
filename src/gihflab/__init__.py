"""Bounded-repetition word combinatorics and a multicollision attack lab.

The library splits into a pure combinatorics core (words, classics,
regularity, nesting) and a simulation half (hashsim, attacks) glued
together by a JSON-reporting CLI.
"""

__version__ = "0.1.0"
