"""LDplayer replay benchmark; the entry point is ``ldpbench/run.py``."""
