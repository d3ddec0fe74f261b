"""End-to-end benchmark of the repro RPQ engine (see README.md)."""
