"""Cold-path benchmark of the Strudel production path (see README.md)."""
