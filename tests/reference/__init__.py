"""Reference implementations kept only as test oracles.

The production passes in ``src/`` are pinned against these by property
tests; nothing in ``src/`` imports them.
"""
