"""The repository benchmark; run it with ``python3 perfbench/run.py``."""
