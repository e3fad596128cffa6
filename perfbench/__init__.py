"""perfbench: the repro simulator's benchmark (see README.md)."""
