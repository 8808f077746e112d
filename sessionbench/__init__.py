"""Session-level benchmark of the repro engine (see README.md here)."""
